"""Forest sampling by loop-erased random walks with geometric killing.

A spanning rooted forest with law proportional to q^{#roots} * prod(weights)
is drawn by running, from each not-yet-covered vertex in turn, the discrete
jump chain that moves x -> y with probability w(x, y)/(q + W(x)) and dies
(rooting the walk's endpoint) with probability q/(q + W(x)), and attaching
its loop erasure to the forest grown so far. This is the killed-walk form of
Wilson's algorithm; the discrete skeleton has the same law as the
continuous-time walk for everything measurable on the jump sequence and
death position.

The sampler uses Wilson's next-pointer form: each step overwrites ``nxt[x]``
with the vertex the walk left x for (or :data:`ROOT` when it died at x), and
once the walk dies or hits the forest, a retrace from its start along
``nxt`` follows the last exits, which is the chronological loop erasure. No
path or position table is kept. :func:`partition_of` labels blocks in O(n)
by following each vertex's pointers only until a vertex of known root.

On a tree no walk is needed: :class:`TreeSampler` draws the forest exactly,
top-down from vertex 0, with one uniform per vertex from tables built of the
leaf-first pivots. :func:`forest_sampler` is the one place that chooses: the
tree sampler when the graph is a tree, Wilson's :class:`ForestSampler`
otherwise. An explicit processing order always means Wilson's walks.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from random import Random
from typing import Sequence

import numpy as np

from .errors import FormatError, ParameterError, StructureError, check_q
from .graphs import WeightedDigraph, is_tree, leaf_first

__all__ = [
    "ROOT",
    "RootedForest",
    "Partition",
    "partition_of",
    "ForestSampler",
    "TreeSampler",
    "forest_sampler",
    "sample_forest",
    "split_seed",
    "forest_to_json",
    "forest_from_json",
]

#: Parent-pointer value marking a root.
ROOT = -1


@dataclass(frozen=True)
class RootedForest:
    """A spanning rooted forest as a parent-pointer array.

    ``parent[v]`` is the vertex v points to, or :data:`ROOT` when v is a
    root. Edges point toward the root of each tree.
    """

    parent: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.parent)

    @cached_property
    def roots(self) -> tuple[int, ...]:
        return tuple(v for v, p in enumerate(self.parent) if p == ROOT)

    @property
    def root_count(self) -> int:
        return len(self.roots)

    def root_of(self, v: int) -> int:
        """The root of the tree containing v."""
        parent = self.parent
        n = len(parent)
        steps = 0
        while parent[v] != ROOT:
            v = parent[v]
            steps += 1
            if steps > n:
                raise StructureError("parent pointers contain a cycle")
        return v

    def validate(self, g: WeightedDigraph | None = None) -> None:
        """Check acyclicity and, when a graph is given, edge support."""
        n = self.n
        for v, p in enumerate(self.parent):
            if p != ROOT and not 0 <= p < n:
                raise StructureError(f"parent[{v}]={p} out of range")
        partition_of(self)
        if g is not None:
            if g.n != n:
                raise StructureError(f"forest on {n} vertices, graph has {g.n}")
            for v, p in enumerate(self.parent):
                if p != ROOT and g.weight(v, p) == 0.0:
                    raise StructureError(f"forest edge ({v},{p}) is not a graph edge")


@dataclass(frozen=True)
class Partition:
    """Vertex partition in canonical form: blocks sorted by minimum element."""

    block_of: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]


def partition_of(forest: RootedForest) -> Partition:
    """The partition whose blocks are the trees of the forest, in O(n).

    Each vertex's pointers are followed only until a vertex whose root is
    already known (or a root); the whole chain then takes that root.
    """
    parent = forest.parent
    n = len(parent)
    unknown, on_chain = n, n + 1  # markers outside the vertex range
    root = [unknown] * n
    for v in range(n):
        chain = []
        x = v
        while root[x] == unknown:
            root[x] = on_chain
            chain.append(x)
            if parent[x] == ROOT:
                r = x
                break
            x = parent[x]
        else:
            r = root[x]
            if r == on_chain:
                raise StructureError("parent pointers contain a cycle")
        for c in chain:
            root[c] = r
    # vertices are scanned in increasing order, so blocks come out sorted
    # internally and first seen in order of their minimum
    index: dict[int, int] = {}
    block_of = tuple(index.setdefault(r, len(index)) for r in root)
    blocks: list[list[int]] = [[] for _ in index]
    for v, b in enumerate(block_of):
        blocks[b].append(v)
    return Partition(block_of, tuple(map(tuple, blocks)))


def split_seed(master_seed: int, index: int) -> int:
    """Derive an independent 64-bit stream seed for replica ``index``.

    SplitMix64 finalizer applied to master_seed advanced by the replica
    index, so replica streams depend only on (master_seed, index) and can be
    generated in parallel without coordination.
    """
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class ForestSampler:
    """Reusable sampler for one (graph, q) pair.

    Precomputes per-vertex jump tables; :meth:`sample` is then a pure
    function of the supplied random stream, so replicas with disjoint seeds
    run independently.
    """

    def __init__(self, g: WeightedDigraph, q: float, order: Sequence[int] | None = None):
        check_q(q)
        self.graph = g
        self.q = q
        if order is None:
            order = range(g.n)
        self.order = tuple(order)
        if sorted(self.order) != list(range(g.n)):
            raise ParameterError("processing order must be a permutation of the vertices")
        self._total = (q + g.out_weight).tolist()
        ptr, dst, w = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()
        rows = list(zip(ptr, ptr[1:]))
        self._nbrs = [dst[a:b] for a, b in rows]
        self._cum = [list(accumulate(w[a:b])) for a, b in rows]

    def sample(self, rng: Random) -> RootedForest:
        random = rng.random
        q, total, nbrs, cum = self.q, self._total, self._nbrs, self._cum
        n = len(total)
        nxt = [ROOT] * n
        # in_tree[ROOT] is the sentinel slot n, so a retrace stops at a root
        in_tree = [False] * n + [True]
        for start in self.order:
            if in_tree[start]:
                continue
            x = start
            while True:
                u = random() * total[x]
                if u < q:
                    nxt[x] = ROOT  # walk killed: endpoint becomes a root
                    break
                y = nxt[x] = nbrs[x][bisect_right(cum[x], u - q)]
                if in_tree[y]:
                    break  # hit the existing forest
                x = y
            x = start
            while not in_tree[x]:  # retrace the last exits: the loop erasure
                in_tree[x] = True
                x = nxt[x]
        return RootedForest(tuple(nxt))


class TreeSampler:
    """Exact top-down sampler for one (tree, q) pair: one uniform per vertex.

    On a tree the only cycles a choice of pointers can close are two
    neighbours pointing at each other, so hung from vertex 0 the measure
    factors over the vertices. With the leaf-first pivots
    s_v = q + sum_c t_c, t_c = w(v, c) s_c / (s_c + w(c, v)) over v's
    children c, a vertex whose parent p does not point at it is "free": it
    points up with weight w(v, p), is a root with weight q, or points to
    child c with weight t_c. A vertex that p points at is "blocked" and
    draws from the same table without the up option, total s_v. Vertices
    are visited breadth-first, so p has drawn before v.

    Every table entry is q, an edge weight or a t_c, never a difference.
    The partial sums of the pivot recurrence are the blocked tables'
    boundaries (the children of one vertex are contiguous in the leaf-first
    order), and the up option comes last, above s_v, so one draw u picks:
    a root if u < q, the parent if u >= s_v, else the child whose boundary
    bisection finds. Since random() * s < s for every s > 0, a blocked
    vertex never points back, and a zero weight is never picked.
    """

    def __init__(self, g: WeightedDigraph, q: float):
        check_q(q)
        self.graph = g
        self.q = q
        order, parent, up, down = leaf_first(g, 0)
        n = g.n
        v = order[:0:-1]  # leaves first, without the root
        s = [q] * n
        self._child = v.tolist()
        bound = self._bound = []  # bound[j]: s[parent] once the j-th vertex is eliminated
        append = bound.append
        for x, p, w_xp, w_px in zip(self._child, parent[v].tolist(), up[v].tolist(), down[v].tolist()):
            s_x = s[x]
            s[p] = s_p = s[p] + w_px * s_x / (s_x + w_xp)
            append(s_p)
        # the children of the vertex at breadth-first position i are the
        # vertices eliminated at steps lo[i]..hi[i] - 1
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        key = -position[parent[v]]  # nondecreasing in the elimination step
        lo = np.searchsorted(key, -np.arange(n), "left").tolist()
        hi = np.searchsorted(key, -np.arange(n), "right").tolist()
        s_top = np.array(s)[order]
        # the root's up weight is 0, so whichever parent it reads, its free table is the blocked one
        self._plan = list(
            zip(order.tolist(), parent[order].clip(0).tolist(), s_top.tolist(), (s_top + up[order]).tolist(), lo, hi)
        )

    def sample(self, rng: Random) -> RootedForest:
        random = rng.random
        q, bound, child = self.q, self._bound, self._child
        nxt = [ROOT] * len(self._plan)
        for v, p, s, free, lo, hi in self._plan:
            u = random() * (s if nxt[p] == v else free)
            if u < q:
                continue  # a root
            if u >= s:
                nxt[v] = p
            else:
                nxt[v] = child[bisect_right(bound, u, lo, hi)]
        return RootedForest(tuple(nxt))


def forest_sampler(g: WeightedDigraph, q: float) -> ForestSampler | TreeSampler:
    """The sampler for (g, q): :class:`TreeSampler` on a tree, Wilson's :class:`ForestSampler` otherwise."""
    return TreeSampler(g, q) if is_tree(g) else ForestSampler(g, q)


def sample_forest(
    g: WeightedDigraph, q: float, rng_seed: int, order: Sequence[int] | None = None
) -> RootedForest:
    """Draw one forest with law q^{#roots} * prod(weights) / Z.

    An explicit processing ``order`` always runs Wilson's walks.
    """
    sampler = forest_sampler(g, q) if order is None else ForestSampler(g, q, order)
    return sampler.sample(Random(rng_seed))


def forest_to_json(forest: RootedForest) -> str:
    """JSON array of parent entries, -1 marking a root."""
    return json.dumps(list(forest.parent))


def forest_from_json(text: str, g: WeightedDigraph | None = None) -> RootedForest:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad forest JSON: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(v, int) for v in data):
        raise FormatError("forest JSON must be an array of integers")
    forest = RootedForest(tuple(data))
    forest.validate(g)
    return forest
