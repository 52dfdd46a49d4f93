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
from typing import Callable, Iterable, Union

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

from .errors import FormatError, ParameterError, StructureError, check_weight

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
    "contract_edge",
    "is_tree",
    "leaf_first",
    "tree_path",
    "check_vertices",
]


Edge = tuple[int, int, float]


class WeightedDigraph:
    """A finite weighted digraph without self-loops or parallel edges, in CSR form.

    The out-edges of vertex v are ``indices[indptr[v]:indptr[v + 1]]``, sorted
    by destination, with weights ``weights[indptr[v]:indptr[v + 1]]``;
    ``out_weight[v]`` is their total. Weights are positive and finite (a
    weight-0 edge is simply absent).

    ``WeightedDigraph(n, edges)`` takes ``(src, dst, weight)`` triples and
    :meth:`from_arrays` takes three parallel arrays; both run the same checks.
    ``edges``, ``out`` and :meth:`weight` are views derived from the arrays
    on first use. The arrays are read-only, so instances are immutable and
    safe to share across threads. Two graphs are equal when they have the
    same vertex count and the same edges.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    out_weight: np.ndarray

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        edges = tuple(edges)
        src, dst, w = zip(*edges) if edges else ((), (), ())
        self._build(n, src, dst, w)

    @classmethod
    def from_arrays(cls, n: int, src, dst, weights) -> "WeightedDigraph":
        """The graph with edges ``src[i] -> dst[i]`` of weight ``weights[i]``."""
        g = cls.__new__(cls)
        g._build(n, src, dst, weights)
        return g

    def _build(self, n: int, src, dst, weights) -> None:
        if n < 1:
            raise ParameterError(f"need at least one vertex, got n={n}")
        try:
            src = np.asarray(src, dtype=np.int64)
            dst = np.asarray(dst, dtype=np.int64)
        except OverflowError as exc:
            raise ParameterError(f"vertex id out of range for n={n}") from exc
        w = np.asarray(weights, dtype=float)
        for error, bad, what in (
            (ParameterError, (src < 0) | (src >= n) | (dst < 0) | (dst >= n), f"is out of range for n={n}"),
            (FormatError, src == dst, "is a self-loop"),
            (FormatError, ~(np.isfinite(w) & (w > 0)), "needs a positive, finite weight"),
        ):
            if bad.any():
                i = int(bad.argmax())
                raise error(f"edge ({src[i]},{dst[i]}) of weight {w[i]} {what}")
        key = src * n + dst
        order = np.argsort(key, kind="stable")
        key = key[order]
        bad = key[1:] == key[:-1]
        if bad.any():
            i = int(bad.argmax())
            raise FormatError(f"duplicate edge ({key[i] // n},{key[i] % n})")
        src = src[order]
        self.n = int(n)
        self.indptr = np.searchsorted(src, np.arange(n + 1))
        self.indices = dst[order]
        self.weights = w[order]
        # bincount adds in edge order, as a per-edge loop would
        self.out_weight = np.bincount(src, weights=self.weights, minlength=n)
        for a in (self.indptr, self.indices, self.weights, self.out_weight):
            a.flags.writeable = False

    @cached_property
    def _rows(self) -> np.ndarray:
        """Source vertex of each edge, in CSR order."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """``(src, dst, weight)`` triples sorted by (src, dst)."""
        return tuple(zip(self._rows.tolist(), self.indices.tolist(), self.weights.tolist()))

    @cached_property
    def out(self) -> tuple[dict[int, float], ...]:
        """Out-neighbor weight maps, one per vertex."""
        ptr, dst, w = self.indptr.tolist(), self.indices.tolist(), self.weights.tolist()
        return tuple(dict(zip(dst[a:b], w[a:b])) for a, b in zip(ptr, ptr[1:]))

    def weight(self, x: int, y: int) -> float:
        """Weight of the directed edge (x, y), or 0 if absent."""
        return self.out[x].get(y, 0.0)

    @cached_property
    def is_symmetric(self) -> bool:
        rows = self._rows
        order = np.lexsort((rows, self.indices))  # the reversed edges in CSR order
        return bool(
            np.array_equal(self.indices[order], rows)
            and np.array_equal(rows[order], self.indices)
            and np.array_equal(self.weights[order], self.weights)
        )

    @cached_property
    def _pairs(self) -> np.ndarray:
        """The undirected pairs joined by an edge either way, as keys min * n + max."""
        rows, cols = self._rows, self.indices
        return np.unique(np.minimum(rows, cols) * self.n + np.maximum(rows, cols))

    @cached_property
    def _undirected(self) -> sparse.csr_array:
        """The adjacency with every edge in both directions, for csgraph's directed routines.

        A directed search of it is some 10x faster than csgraph's own
        symmetrization; a graph storing each pair both ways is used as it is.
        """
        adjacency = sparse.csr_array((self.weights, self.indices, self.indptr), shape=(self.n, self.n))
        return adjacency if len(self.indices) == 2 * len(self._pairs) else adjacency + adjacency.T

    @cached_property
    def _is_tree(self) -> bool:
        n = self.n
        # A tree has n - 1 undirected pairs, each stored once or twice.
        if not n - 1 <= len(self.indices) <= 2 * (n - 1) or len(self._pairs) != n - 1:
            return False
        # n - 1 pairs form a tree exactly when they connect all n vertices
        return len(breadth_first_order(self._undirected, 0, directed=True, return_predecessors=False)) == n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.indices.tobytes(), self.weights.tobytes()))

    def __repr__(self) -> str:
        return f"WeightedDigraph(n={self.n}, edges={len(self.indices)})"


def undirected(n: int, pairs: Iterable[Edge]) -> WeightedDigraph:
    """Build a graph from undirected weighted pairs (both orientations added)."""
    pairs = tuple(pairs)
    a, b, w = zip(*pairs) if pairs else ((), (), ())
    return _both_ways(n, a, b, w)


def _both_ways(n: int, a, b, w) -> WeightedDigraph:
    """The graph with edges a[i] -> b[i] and b[i] -> a[i], both of weight w[i]."""
    return WeightedDigraph.from_arrays(n, np.concatenate((a, b)), np.concatenate((b, a)), np.concatenate((w, w)))


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
        i = np.arange(spec.n - 1)
        return _both_ways(spec.n, i, i + 1, np.ones(spec.n - 1))
    if isinstance(spec, Cycle):
        if spec.n < 3:
            raise ParameterError("cycle needs n >= 3")
        i = np.arange(spec.n)
        return _both_ways(spec.n, i, (i + 1) % spec.n, np.ones(spec.n))
    if isinstance(spec, Star):
        if spec.n < 1:
            raise ParameterError("star needs n >= 1")
        check_weight(spec.w)
        leaves = np.arange(1, spec.n)
        return _both_ways(spec.n, np.zeros_like(leaves), leaves, np.full(spec.n - 1, float(spec.w)))
    if isinstance(spec, CommunityStar):
        if spec.n < 1 or not 0 <= spec.k <= spec.n - 1:
            raise ParameterError("community star needs n >= 1 and 0 <= k <= n-1")
        check_weight(spec.w)
        leaves = np.arange(1, spec.n)
        return _both_ways(spec.n, np.zeros_like(leaves), leaves, np.where(leaves <= spec.k, 1.0, float(spec.w)))
    if isinstance(spec, HierarchicalTree):
        return _make_hierarchical(spec)
    if isinstance(spec, Bottleneck):
        if spec.n < 1 or spec.m < 1:
            raise ParameterError("bottleneck needs n >= 1 and m >= 1")
        check_weight(spec.w)
        n, m = spec.n, spec.m
        big, small = np.triu_indices(n, 1), np.triu_indices(m, 1)
        a = np.concatenate((big[0], small[0] + n, [0]))
        b = np.concatenate((big[1], small[1] + n, [n]))
        w = np.ones(len(a))
        w[-1] = spec.w
        return _both_ways(n + m, a, b, w)
    if isinstance(spec, Complete):
        if spec.n < 1:
            raise ParameterError("complete graph needs n >= 1")
        a, b = np.triu_indices(spec.n, 1)
        return _both_ways(spec.n, a, b, np.ones(len(a)))
    raise ParameterError(f"unknown family spec {spec!r}")


def _make_hierarchical(spec: HierarchicalTree) -> WeightedDigraph:
    if spec.d < 1 or spec.h < 1:
        raise ParameterError("hierarchical tree needs d >= 1 and h >= 1")
    if len(spec.weights) != spec.h:
        raise ParameterError(f"need one weight per generation, got {len(spec.weights)} for h={spec.h}")
    for w in spec.weights:
        check_weight(w)
    if any(a > b for a, b in zip(spec.weights, spec.weights[1:])):
        raise ParameterError("hierarchical tree weights must be nondecreasing toward the leaves")
    # Breadth-first labels: generation g occupies ids offset[g]..offset[g+1]-1,
    # and its j-th vertex hangs off vertex j // d of generation g - 1.
    sizes = [spec.d**g for g in range(spec.h + 1)]
    offsets = np.cumsum([0] + sizes)
    gen = np.repeat(np.arange(1, spec.h + 1), sizes[1:])
    child = np.arange(1, offsets[-1])
    parent = offsets[gen - 1] + (child - offsets[gen]) // spec.d
    weights = np.repeat(np.asarray(spec.weights, dtype=float), sizes[1:])
    return _both_ways(int(offsets[-1]), parent, child, weights)


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
            convert: Callable[[str], object]
            if key in ("n", "m", "k", "d", "h"):
                convert = int
            elif key == "w":
                convert = float
            elif key == "weights":
                convert = lambda v: tuple(float(t) for t in v.split("+"))
            else:
                raise ParameterError(f"unknown family parameter {key!r}")
            try:
                kwargs[key] = convert(val)
            except ValueError as exc:
                raise ParameterError(f"bad value for family parameter {key!r}: {val!r}") from exc
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
    L[g._rows, g.indices] = g.weights
    L[np.diag_indices(g.n)] -= g.out_weight
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


def is_tree(g: WeightedDigraph) -> bool:
    """True when the underlying undirected graph is a spanning tree (worked out once per graph)."""
    return g._is_tree


def leaf_first(g: WeightedDigraph, root: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tree g hung from ``root``, listed for elimination from the leaves up.

    Returns ``(order, parent, up, down)``. ``order`` is the breadth-first
    vertex order from ``root``: read backwards, every vertex comes after all
    of its descendants, and the children of one vertex are contiguous, in
    increasing id order. ``parent[v]`` is v's neighbour toward ``root``,
    ``up[v] = w(v, parent[v])`` and ``down[v] = w(parent[v], v)``, each 0
    where that direction is absent. At ``root``, parent is -1 and both
    weights are 0. g must be a tree (see :func:`is_tree`).
    """
    order, parent = breadth_first_order(g._undirected, root, directed=True, return_predecessors=True)
    parent[root] = -1
    rows, cols = g._rows, g.indices
    up, down = np.zeros(g.n), np.zeros(g.n)
    to_parent = parent[rows] == cols
    up[rows[to_parent]] = g.weights[to_parent]
    to_child = parent[cols] == rows
    down[cols[to_child]] = g.weights[to_child]
    return order, parent, up, down


def check_vertices(n: int, vertices: Iterable[int]) -> None:
    """Raise ParameterError unless every vertex id is an integer in 0..n-1."""
    for v in vertices:
        if not isinstance(v, (int, np.integer)):
            raise ParameterError(f"vertex {v!r} is not an integer id")
        if not 0 <= v < n:
            raise ParameterError(f"vertex {v} out of range for n={n}")


def tree_path(g: WeightedDigraph, x: int, y: int) -> list[int]:
    """The unique undirected path from x to y in a tree."""
    check_vertices(g.n, (x, y))
    if x == y:
        raise ParameterError("need two distinct vertices")
    if not is_tree(g):
        raise StructureError("tree_path needs a tree (as an undirected graph)")
    parent = breadth_first_order(g._undirected, x, directed=True, return_predecessors=True)[1]
    path = [y]
    while path[-1] != x:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return path
