"""Weighted digraphs, their Laplacians, the stylized graph families, and TSV I/O.

Vertices are integer ids ``0..n-1``. An undirected graph is stored as both
orientations with equal weight, so the forest measure applies uniformly.

Every graph is one CSR representation (:class:`WeightedDigraph`). Edge lists
from users, files and the sparse families pass every check of
``WeightedDigraph._build``, edge by edge; the dense families, complete and
bottleneck, are built from their weight matrix by ``_from_weights``, where
one pass over the matrix checks the weights and the CSR order holds by
construction. Both end in the same store step, which also keeps each edge's
flat key ``src * n + dst``, strictly increasing: :func:`laplacian` and the
dense factorization scatter at those keys into an n x n buffer, and
:meth:`WeightedDigraph.weight` is one binary search of them.

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

from .errors import FormatError, ParameterError, check_weight

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
    "undirected",
    "laplacian",
    "load_edge_list",
    "save_edge_list",
    "delete_edge",
    "contract_edge",
    "is_tree",
    "leaf_first",
    "check_vertices",
]


Edge = tuple[int, int, float]


def _vertex_ids(ids, n: int, copy: bool) -> np.ndarray:
    """``ids`` as an int64 array; ParameterError for a float id or one beyond int64.

    Integer ids take one pass; only other inputs are converted again, to int64.
    """
    a = np.array(ids) if copy else np.asarray(ids)
    if a.dtype.kind in "ib":
        return a.astype(np.int64, copy=False)
    try:
        converted = np.array(ids, dtype=np.int64)
    except OverflowError as exc:
        raise ParameterError(f"vertex id out of range for n={n}") from exc
    if a.size and a.dtype.kind == "f":
        raise ParameterError(f"vertex ids must be integers, got {a.dtype} ids")
    return converted


class WeightedDigraph:
    """A finite weighted digraph without self-loops or parallel edges, in CSR form.

    The out-edges of vertex v are ``indices[indptr[v]:indptr[v + 1]]``, sorted
    by destination, with weights ``weights[indptr[v]:indptr[v + 1]]``;
    ``out_weight[v]`` is their total. Weights are positive and finite (a
    weight-0 edge is simply absent).

    ``WeightedDigraph(n, edges)`` takes ``(src, dst, weight)`` triples and
    :meth:`from_arrays` takes three parallel arrays; both run the same checks.
    ``edges`` is a tuple view built from the arrays on first use, and
    :meth:`weight` searches the sorted edge keys. The arrays are read-only,
    so instances are immutable and safe to share across threads. Two graphs
    are equal when they have the same vertex count and the same edges.
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
        """The graph with edges ``src[i] -> dst[i]`` of weight ``weights[i]``.

        Edges already in CSR order (by source, then destination) skip the sort.
        """
        g = cls.__new__(cls)
        g._build(n, src, dst, weights)
        return g

    def _build(self, n: int, src, dst, weights) -> None:
        if n < 1:
            raise ParameterError(f"need at least one vertex, got n={n}")
        src = _vertex_ids(src, n, copy=False)
        # dst and w may be stored as they are, and stored arrays are made
        # read-only: copy the caller's, never alias them
        dst = _vertex_ids(dst, n, copy=True)
        w = np.array(weights, dtype=float)

        def reject(error, bad, what):
            i = int(bad.argmax())
            raise error(f"edge ({src[i]},{dst[i]}) of weight {w[i]} {what}")

        # min/max reductions decide the range check; the mask only finds the first offending edge
        if len(src) and not (0 <= min(src.min(), dst.min()) and max(src.max(), dst.max()) < n):
            reject(ParameterError, (src < 0) | (src >= n) | (dst < 0) | (dst >= n), f"is out of range for n={n}")
        for bad, what in ((src == dst, "is a self-loop"), (~(np.isfinite(w) & (w > 0)), "needs a positive, finite weight")):
            if bad.any():
                reject(FormatError, bad, what)
        key = src * n + dst
        # strictly increasing keys are CSR order already, without duplicates
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key, kind="stable")
            key = key[order]
            bad = key[1:] == key[:-1]
            if bad.any():
                i = int(bad.argmax())
                raise FormatError(f"duplicate edge ({key[i] // n},{key[i] % n})")
            src, dst, w = src[order], dst[order], w[order]
        # bincount adds in edge order, as a per-edge loop would; with no edges it would count in int64
        out_weight = np.bincount(src, weights=w, minlength=n).astype(float, copy=False)
        self._store(n, np.searchsorted(src, np.arange(n + 1)), dst, w, out_weight, key)

    def _store(self, n: int, indptr, indices, weights, out_weight, keys) -> None:
        """Keep checked arrays in CSR order, read-only: the last step of both builders.

        ``keys`` are the edges' flat indices ``src * n + dst`` into an n x n
        array, strictly increasing: :func:`laplacian` and the dense
        factorization scatter at them, SuperLU's matrix finds each row's
        diagonal slot among them, and :meth:`weight` searches them.
        """
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.out_weight = out_weight
        self._keys = keys
        for a in (indptr, indices, weights, out_weight, keys):
            a.flags.writeable = False

    @cached_property
    def _rows(self) -> np.ndarray:
        """Source vertex of each edge, in CSR order."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """``(src, dst, weight)`` triples sorted by (src, dst)."""
        return tuple(zip(self._rows.tolist(), self.indices.tolist(), self.weights.tolist()))

    def weight(self, x: int, y: int) -> float:
        """Weight of the directed edge (x, y), or 0 if absent; ParameterError unless both are ids in 0..n-1."""
        n, keys = self.n, self._keys
        check_vertices(n, (x, y))
        key = x * n + y
        i = keys.searchsorted(key)
        return float(self.weights[i]) if i < len(keys) and keys[i] == key else 0.0

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
    def _undirected(self):
        """The sparse adjacency with every edge both ways, for csgraph's directed routines.

        A directed search of it is some 10x faster than csgraph's own
        symmetrization; a symmetric graph is used as it is.
        """
        from scipy import sparse
        adjacency = sparse.csr_array((self.weights, self.indices, self.indptr), shape=(self.n, self.n))
        return adjacency if self.is_symmetric else adjacency + adjacency.T

    @cached_property
    def _is_tree(self) -> bool:
        n = self.n
        # A tree has n - 1 undirected pairs, each stored once or twice.
        if not n - 1 <= len(self.indices) <= 2 * (n - 1):
            return False
        # connected, and no edge outside the search tree, so no edge closes a cycle
        order, parent = self._search_from_0
        rows, cols = self._rows, self.indices
        return len(order) == n and bool(np.all((parent[rows] == cols) | (parent[cols] == rows)))

    @cached_property
    def _search_from_0(self) -> tuple[np.ndarray, np.ndarray]:
        """csgraph's breadth-first order from vertex 0 and its predecessors, read-only.

        :func:`is_tree` and :func:`leaf_first` share it. Labels that already
        are such an order, as every family tree's are, give it without SciPy
        (:func:`_labelled_breadth_first`); other graphs take csgraph's search
        (:func:`_breadth_first`).
        """
        found = _labelled_breadth_first(self) or _breadth_first(self)
        for a in found:
            a.flags.writeable = False
        return found

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
    """The graph with edges a[i] -> b[i] and b[i] -> a[i], both of weight w[i]: symmetric by construction."""
    g = WeightedDigraph.from_arrays(n, np.concatenate((a, b)), np.concatenate((b, a)), np.concatenate((w, w)))
    g.is_symmetric = True
    return g


def _from_weights(W: np.ndarray) -> WeightedDigraph:
    """The graph with an edge x -> y of weight W[x, y] wherever that is positive, from a dense float matrix.

    The dense families call it with a fresh matrix, whose diagonal it zeroes.
    One pass checks what :meth:`WeightedDigraph._build` checks edge by edge,
    that every weight is finite and not negative; the edges are the nonzeros
    of the off-diagonal mask, row by row, so they are in range, in CSR order,
    unique and without self-loops by construction. ``out_weight`` is summed
    in edge order, as ``_build``'s bincount sums it, and ``is_symmetric`` is
    read off W == W^T, without a sort.
    """
    n = len(W)
    np.fill_diagonal(W, 0.0)
    if not (0.0 <= W.min() and W.max() < np.inf):  # a nan fails the first test
        x, y = np.argwhere(~(np.isfinite(W) & (W >= 0.0)))[0]
        raise FormatError(f"edge ({x},{y}) of weight {W[x, y]} needs a nonnegative, finite weight")
    mask = W > 0.0
    keys = np.flatnonzero(mask)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
    # column = key - n * row, formed in place: every fresh array of n^2 entries costs its page faults
    indices = np.repeat(np.arange(n) * n, np.diff(indptr))
    np.subtract(keys, indices, out=indices)
    symmetric = np.array_equal(W, W.T)
    # numpy sums over the outer axis one row at a time, so column v's sum adds W[0, v], W[1, v], ...
    # in turn, and zeros add nothing: on a symmetric W that is out_weight[v] in edge order
    out_weight = (W if symmetric else np.ascontiguousarray(W.T)).sum(axis=0)
    g = WeightedDigraph.__new__(WeightedDigraph)
    g._store(n, indptr, indices, W.ravel()[keys], out_weight, keys)
    g.is_symmetric = symmetric
    return g


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
        W = np.zeros((n + m, n + m))
        W[:n, :n] = W[n:, n:] = 1.0
        W[0, n] = W[n, 0] = spec.w
        return _from_weights(W)
    if isinstance(spec, Complete):
        if spec.n < 1:
            raise ParameterError("complete graph needs n >= 1")
        return _from_weights(np.ones((spec.n, spec.n)))
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
            if key in kwargs:
                raise ParameterError(f"repeated family parameter {key!r}")
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


# -- Laplacian ----------------------------------------------------------------


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Dense Laplacian L with L[x, y] = w(x, y) off-diagonal and zero row sums.

    Built by :func:`_dense`, as the dense factorization builds qI - L; the
    diagonal is 0 - W(v), so an isolated vertex keeps +0.0.
    """
    return _dense(g, g.weights, 0.0 - g.out_weight)


def _dense(g: WeightedDigraph, off_diagonal, diagonal) -> np.ndarray:
    """The n x n array with ``off_diagonal`` at the edges and ``diagonal`` on the diagonal, +0.0 elsewhere.

    One flat scatter at the graph's CSR keys, into a zeroed buffer.
    """
    n = g.n
    a = np.zeros(n * n)
    a[g._keys] = off_diagonal
    a[:: n + 1] = diagonal
    return a.reshape(n, n)


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
    keep = g._keys != x * g.n + y
    return WeightedDigraph.from_arrays(g.n, g._rows[keep], g.indices[keep], g.weights[keep])


def contract_edge(g: WeightedDigraph, x: int, y: int) -> tuple[WeightedDigraph, list[int]]:
    """Directed contraction of the edge (x, y).

    All outgoing edges of x are dropped, then x and y merge into a single
    vertex that keeps y's outgoing edges and the incoming edges of both.
    Parallel edges created by the merge are combined by weight addition, in
    edge order; a merged self-loop (an edge y->x) is dropped. Returns the
    contracted graph and the old->new vertex id map.
    """
    if g.weight(x, y) == 0.0:
        raise ParameterError(f"cannot contract missing edge ({x},{y})")
    m = g.n - 1
    mapping = np.arange(g.n) - (np.arange(g.n) > x)
    mapping[x] = mapping[y]
    src, dst = mapping[g._rows], mapping[g.indices]
    keep = (g._rows != x) & (src != dst)  # outgoing edges of the tail and merged self-loops go
    keys, merged = np.unique(src[keep] * m + dst[keep], return_inverse=True)
    w = np.bincount(merged, weights=g.weights[keep])  # each merged pair summed in edge order from 0.0, as per edge
    return WeightedDigraph.from_arrays(m, keys // m, keys % m, w), mapping.tolist()


# -- tree structure ---------------------------------------------------------


def is_tree(g: WeightedDigraph) -> bool:
    """True when the underlying undirected graph is a spanning tree (worked out once per graph).

    The breadth-first search from vertex 0 that decides it is kept for
    :func:`leaf_first`, so a tree is searched once.
    """
    return g._is_tree


def leaf_first(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tree g hung from vertex 0, listed for elimination from the leaves up.

    Returns ``(order, parent, up, down)``. ``order`` is the breadth-first
    vertex order from 0, the search :func:`is_tree` keeps: read backwards,
    every vertex comes after all of its descendants, and the children of
    one vertex are contiguous, in increasing id order. ``parent[v]`` is v's
    neighbour toward 0, ``up[v] = w(v, parent[v])`` and
    ``down[v] = w(parent[v], v)``, each 0 where that direction is absent.
    At 0, parent is -1 and both weights are 0. g must be a tree (see
    :func:`is_tree`).
    """
    order, parent = g._search_from_0
    parent = parent.copy()  # the search is kept on g
    parent[0] = -1
    rows, cols = g._rows, g.indices
    up, down = np.zeros(g.n), np.zeros(g.n)
    to_parent = parent[rows] == cols
    up[rows[to_parent]] = g.weights[to_parent]
    to_child = parent[cols] == rows
    down[cols[to_child]] = g.weights[to_child]
    return order, parent, up, down


def _labelled_breadth_first(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray] | None:
    """csgraph's breadth-first search from 0, read off the labels, or None where they are not one.

    The labels are a breadth-first order from 0 when each v >= 1 has exactly
    one neighbour, either way, with a smaller id, and those neighbours are
    nondecreasing in v. Then every edge joins some v to that neighbour, so
    g is a tree, and a first-in first-out search from 0 that visits
    neighbours in increasing id order meets the vertices as 0, 1, ..., n-1,
    each from that neighbour.
    """
    rows, cols = g._rows, g.indices
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    parent = np.full(g.n, -1, dtype=np.int64)
    parent[hi] = lo  # each v's smaller neighbours agree, or the check below fails
    if not (np.all(parent[1:] >= 0) and np.array_equal(parent[hi], lo) and np.all(parent[2:] >= parent[1:-1])):
        return None
    parent[0] = -9999
    return np.arange(g.n, dtype=np.int32), parent.astype(np.int32)


def _breadth_first(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray]:
    """csgraph's breadth-first order of the vertices reached from 0, and their predecessors."""
    from scipy.sparse.csgraph import breadth_first_order
    return breadth_first_order(g._undirected, 0, directed=True, return_predecessors=True)


def check_vertices(n: int, vertices: Iterable[int]) -> None:
    """Raise ParameterError unless every vertex id is an integer in 0..n-1."""
    for v in vertices:
        if not isinstance(v, (int, np.integer)):
            raise ParameterError(f"vertex {v!r} is not an integer id")
        if not 0 <= v < n:
            raise ParameterError(f"vertex {v} out of range for n={n}")
