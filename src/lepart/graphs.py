"""Weighted digraphs, their Laplacians, the stylized graph families, and TSV I/O.

Vertices are integer ids ``0..n-1``. An undirected graph is stored as both
orientations with equal weight, so the forest measure applies uniformly.

Vertex labeling conventions (fixed so correlation queries are reproducible):

* path: ``0..n-1`` in line order;
* cycle: ``0..n-1`` around the ring;
* star: vertex 0 is the center, ``1..n-1`` the leaves;
* community star: vertex 0 center, ``1..k`` carry the weight-1 edges,
  ``k+1..n-1`` the weight-``w`` edges;
* hierarchical tree: breadth-first order, vertex 0 is the ancestor, edges in
  generation ``i`` (distance ``i`` from the ancestor) have weight ``w_i``;
* bottleneck: ``0..n-1`` form the big clique with vertex 0 the bridge endpoint
  ``b``, ``n..n+m-1`` the small clique with vertex ``n`` the endpoint ``b'``;
* complete: all ordered pairs, unit weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import FormatError, ParameterError, StructureError

__all__ = [
    "WeightedDigraph",
    "Path",
    "Cycle",
    "Star",
    "CommunityStar",
    "HierarchicalTree",
    "Bottleneck",
    "Complete",
    "FamilySpec",
    "make_family",
    "parse_family",
    "family_to_string",
    "undirected",
    "laplacian",
    "load_edge_list",
    "save_edge_list",
    "delete_edge",
    "delete_undirected_edge",
    "contract_edge",
    "is_tree",
    "tree_path",
    "undirected_adjacency",
    "check_vertices",
]


Edge = tuple[int, int, float]


@dataclass(frozen=True)
class WeightedDigraph:
    """A finite weighted digraph without self-loops or parallel edges.

    ``edges`` is canonically sorted by (src, dst); weights are strictly
    positive (a weight-0 edge is simply absent). Instances are immutable and
    safe to share across threads.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"need at least one vertex, got n={self.n}")
        seen = set()
        for x, y, w in self.edges:
            if not (0 <= x < self.n and 0 <= y < self.n):
                raise ParameterError(f"edge ({x},{y}) out of range for n={self.n}")
            if x == y:
                raise FormatError(f"self-loop at vertex {x}")
            if (x, y) in seen:
                raise FormatError(f"duplicate edge ({x},{y})")
            if not w > 0:
                raise FormatError(f"nonpositive weight {w} on edge ({x},{y})")
            seen.add((x, y))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @cached_property
    def out(self) -> tuple[dict[int, float], ...]:
        """Out-neighbor weight maps, one per vertex."""
        adj: list[dict[int, float]] = [dict() for _ in range(self.n)]
        for x, y, w in self.edges:
            adj[x][y] = w
        return tuple(adj)

    @cached_property
    def out_weight(self) -> np.ndarray:
        """Total outgoing weight per vertex."""
        tot = np.zeros(self.n)
        for x, _, w in self.edges:
            tot[x] += w
        return tot

    def weight(self, x: int, y: int) -> float:
        """Weight of the directed edge (x, y), or 0 if absent."""
        return self.out[x].get(y, 0.0)

    @cached_property
    def is_symmetric(self) -> bool:
        return all(self.out[y].get(x) == w for x, y, w in self.edges)

    def subgraph(self, vertices: Iterable[int]) -> "WeightedDigraph":
        """Induced subgraph; vertices are relabeled in sorted order."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = tuple(
            (index[x], index[y], w)
            for x, y, w in self.edges
            if x in index and y in index
        )
        return WeightedDigraph(len(keep), edges)


def undirected(n: int, pairs: Iterable[Edge]) -> WeightedDigraph:
    """Build a graph from undirected weighted pairs (both orientations added)."""
    edges: list[Edge] = []
    for x, y, w in pairs:
        edges.append((x, y, float(w)))
        edges.append((y, x, float(w)))
    return WeightedDigraph(n, tuple(edges))


# -- graph families ------------------------------------------------------


@dataclass(frozen=True)
class Path:
    n: int


@dataclass(frozen=True)
class Cycle:
    n: int


@dataclass(frozen=True)
class Star:
    n: int
    w: float = 1.0


@dataclass(frozen=True)
class CommunityStar:
    n: int
    k: int
    w: float


@dataclass(frozen=True)
class HierarchicalTree:
    d: int
    h: int
    weights: tuple[float, ...]


@dataclass(frozen=True)
class Bottleneck:
    n: int
    m: int
    w: float = 1.0


@dataclass(frozen=True)
class Complete:
    n: int


FamilySpec = Union[Path, Cycle, Star, CommunityStar, HierarchicalTree, Bottleneck, Complete]


def make_family(spec: FamilySpec) -> WeightedDigraph:
    """Construct the graph of a family, following the labeling conventions above."""
    if isinstance(spec, Path):
        if spec.n < 1:
            raise ParameterError("path needs n >= 1")
        return undirected(spec.n, [(i, i + 1, 1.0) for i in range(spec.n - 1)])
    if isinstance(spec, Cycle):
        if spec.n < 3:
            raise ParameterError("cycle needs n >= 3")
        return undirected(spec.n, [(i, (i + 1) % spec.n, 1.0) for i in range(spec.n)])
    if isinstance(spec, Star):
        if spec.n < 1:
            raise ParameterError("star needs n >= 1")
        if not spec.w > 0:
            raise ParameterError("star needs w > 0")
        return undirected(spec.n, [(0, i, spec.w) for i in range(1, spec.n)])
    if isinstance(spec, CommunityStar):
        if spec.n < 1 or not 0 <= spec.k <= spec.n - 1:
            raise ParameterError("community star needs n >= 1 and 0 <= k <= n-1")
        if not spec.w > 0:
            raise ParameterError("community star needs w > 0")
        pairs = [(0, i, 1.0) for i in range(1, spec.k + 1)]
        pairs += [(0, i, spec.w) for i in range(spec.k + 1, spec.n)]
        return undirected(spec.n, pairs)
    if isinstance(spec, HierarchicalTree):
        return _make_hierarchical(spec)
    if isinstance(spec, Bottleneck):
        if spec.n < 1 or spec.m < 1:
            raise ParameterError("bottleneck needs n >= 1 and m >= 1")
        if not spec.w > 0:
            raise ParameterError("bottleneck needs w > 0")
        n, m = spec.n, spec.m
        pairs = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
        pairs += [(n + i, n + j, 1.0) for i in range(m) for j in range(i + 1, m)]
        pairs.append((0, n, spec.w))
        return undirected(n + m, pairs)
    if isinstance(spec, Complete):
        if spec.n < 1:
            raise ParameterError("complete graph needs n >= 1")
        return undirected(spec.n, [(i, j, 1.0) for i in range(spec.n) for j in range(i + 1, spec.n)])
    raise ParameterError(f"unknown family spec {spec!r}")


def _make_hierarchical(spec: HierarchicalTree) -> WeightedDigraph:
    if spec.d < 1 or spec.h < 1:
        raise ParameterError("hierarchical tree needs d >= 1 and h >= 1")
    if len(spec.weights) != spec.h:
        raise ParameterError(f"need one weight per generation, got {len(spec.weights)} for h={spec.h}")
    if any(not w > 0 for w in spec.weights):
        raise ParameterError("hierarchical tree weights must be positive")
    if any(a > b for a, b in zip(spec.weights, spec.weights[1:])):
        raise ParameterError("hierarchical tree weights must be nondecreasing toward the leaves")
    # Breadth-first labels: generation g occupies ids offset[g]..offset[g+1]-1.
    offsets = [0]
    for g in range(spec.h + 1):
        offsets.append(offsets[-1] + spec.d**g)
    pairs = []
    for g in range(1, spec.h + 1):
        w = spec.weights[g - 1]
        for j in range(spec.d**g):
            child = offsets[g] + j
            parent = offsets[g - 1] + j // spec.d
            pairs.append((parent, child, w))
    return undirected(offsets[-1], pairs)


_FAMILY_NAMES = {
    "path": Path,
    "cycle": Cycle,
    "star": Star,
    "commstar": CommunityStar,
    "hier": HierarchicalTree,
    "bottleneck": Bottleneck,
    "complete": Complete,
}


def parse_family(text: str) -> FamilySpec:
    """Parse a family string such as ``path:n=10`` or ``bottleneck:n=100,m=10,w=0.5``.

    Hierarchical trees write their per-generation weights with ``+``:
    ``hier:d=3,h=3,weights=1+10+100``.
    """
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    if name not in _FAMILY_NAMES:
        raise ParameterError(f"unknown family {name!r}; known: {', '.join(sorted(_FAMILY_NAMES))}")
    kwargs: dict[str, object] = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ParameterError(f"malformed family parameter {item!r}")
            key = key.strip()
            val = val.strip()
            if key in ("n", "m", "k", "d", "h"):
                kwargs[key] = int(val)
            elif key == "w":
                kwargs[key] = float(val)
            elif key == "weights":
                kwargs[key] = tuple(float(t) for t in val.split("+"))
            else:
                raise ParameterError(f"unknown family parameter {key!r}")
    try:
        return _FAMILY_NAMES[name](**kwargs)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for family {name!r}: {exc}") from exc


def family_to_string(spec: FamilySpec) -> str:
    """Inverse of :func:`parse_family`."""
    for name, cls in _FAMILY_NAMES.items():
        if isinstance(spec, cls):
            parts = []
            for field in spec.__dataclass_fields__:
                val = getattr(spec, field)
                if field == "weights":
                    parts.append("weights=" + "+".join(f"{w:g}" for w in val))
                else:
                    parts.append(f"{field}={val:g}" if isinstance(val, float) else f"{field}={val}")
            return f"{name}:{','.join(parts)}"
    raise ParameterError(f"unknown family spec {spec!r}")


# -- Laplacian ----------------------------------------------------------------


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Dense Laplacian L with L[x, y] = w(x, y) off-diagonal and zero row sums."""
    L = np.zeros((g.n, g.n))
    for x, y, w in g.edges:
        L[x, y] = w
        L[x, x] -= w
    return L


# -- edge-list TSV ------------------------------------------------------------


def save_edge_list(g: WeightedDigraph) -> str:
    """Serialize as ``# n=<count>`` plus one ``src<TAB>dst<TAB>weight`` line per edge.

    Edges come out sorted by (src, dst); weights carry 17 significant digits so
    the round trip is exact.
    """
    lines = [f"# n={g.n}"]
    for x, y, w in g.edges:
        lines.append(f"{x}\t{y}\t{w:.17g}")
    return "\n".join(lines) + "\n"


def load_edge_list(text: str) -> WeightedDigraph:
    """Parse the TSV format written by :func:`save_edge_list`.

    A ``# n=<count>`` header fixes the vertex count; without one, the largest
    vertex id + 1 is used.
    """
    n: int | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                try:
                    n = int(body[2:])
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: bad vertex count {body!r}") from exc
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected 'src<TAB>dst<TAB>weight', got {raw!r}")
        try:
            x, y, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        edges.append((x, y, w))
    if n is None:
        n = 1 + max((max(x, y) for x, y, _ in edges), default=0)
    try:
        return WeightedDigraph(n, tuple(edges))
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc


# -- edge surgery ----------------------------------------------------------


def delete_edge(g: WeightedDigraph, x: int, y: int) -> WeightedDigraph:
    """Remove the directed edge (x, y)."""
    if g.weight(x, y) == 0.0:
        raise ParameterError(f"no edge ({x},{y}) to delete")
    return WeightedDigraph(g.n, tuple(e for e in g.edges if (e[0], e[1]) != (x, y)))


def delete_undirected_edge(g: WeightedDigraph, x: int, y: int) -> WeightedDigraph:
    """Remove both orientations between x and y (whichever exist)."""
    edges = tuple(e for e in g.edges if {e[0], e[1]} != {x, y})
    if len(edges) == len(g.edges):
        raise ParameterError(f"no edge between {x} and {y} to delete")
    return WeightedDigraph(g.n, edges)


def contract_edge(g: WeightedDigraph, x: int, y: int) -> tuple[WeightedDigraph, list[int]]:
    """Directed contraction of the edge (x, y).

    All outgoing edges of x are dropped, then x and y merge into a single
    vertex that keeps y's outgoing edges and the incoming edges of both.
    Parallel edges created by the merge are combined by weight addition; a
    merged self-loop (an edge y->x) is dropped. Returns the contracted graph
    and the old->new vertex id map.
    """
    if g.weight(x, y) == 0.0:
        raise ParameterError(f"cannot contract missing edge ({x},{y})")
    mapping = [0] * g.n
    for v in range(g.n):
        if v == x:
            continue
        mapping[v] = v - (1 if v > x else 0)
    mapping[x] = mapping[y]
    acc: dict[tuple[int, int], float] = {}
    for u, v, w in g.edges:
        if u == x:
            continue  # outgoing edges of the tail disappear
        uu, vv = mapping[u], mapping[v]
        if uu == vv:
            continue  # merged self-loop
        acc[(uu, vv)] = acc.get((uu, vv), 0.0) + w
    edges = tuple((u, v, w) for (u, v), w in acc.items())
    return WeightedDigraph(g.n - 1, edges), mapping


# -- tree structure ---------------------------------------------------------


def undirected_adjacency(g: WeightedDigraph) -> tuple[tuple[int, ...], ...]:
    """Neighbor lists of the underlying undirected graph (direction ignored)."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for x, y, _ in g.edges:
        nbrs[x].add(y)
        nbrs[y].add(x)
    return tuple(tuple(sorted(s)) for s in nbrs)


def is_tree(g: WeightedDigraph) -> bool:
    """True when the underlying undirected graph is a spanning tree."""
    pairs = {frozenset((x, y)) for x, y, _ in g.edges}
    if len(pairs) != g.n - 1:
        return False
    adj = undirected_adjacency(g)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def check_vertices(g: WeightedDigraph, vertices: Iterable[int]) -> None:
    """Raise ParameterError unless every vertex id lies in 0..n-1."""
    for v in vertices:
        if not 0 <= v < g.n:
            raise ParameterError(f"vertex {v} out of range for n={g.n}")


def tree_path(g: WeightedDigraph, x: int, y: int) -> list[int]:
    """The unique undirected path from x to y in a tree."""
    check_vertices(g, (x, y))
    if x == y:
        raise ParameterError("need two distinct vertices")
    adj = undirected_adjacency(g)
    prev = {x: x}
    queue = [x]
    while queue and y not in prev:
        nxt = []
        for v in queue:
            for u in adj[v]:
                if u not in prev:
                    prev[u] = v
                    nxt.append(u)
        queue = nxt
    if y not in prev:
        raise StructureError(f"vertices {x} and {y} are not connected")
    path = [y]
    while path[-1] != x:
        path.append(prev[path[-1]])
    path.reverse()
    return path
