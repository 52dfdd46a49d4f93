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
leaf-first pivots. Its uniforms are counter-based (:func:`tree_uniforms`):
the one that replica r reads at breadth-first position i is a SplitMix64
hash of (seed, r, i), so :meth:`TreeSampler.draw` fills the next-pointer
rows of many replicas at once, in numpy, and a forest does not depend on
how the replicas are split into batches. Wilson's sampler reads a
``random.Random`` stream instead, replica r seeded by ``split_seed(seed,
r)``; its :meth:`ForestSampler.draw` fills rows of the same shape, so both
samplers hand estimators the same array. :func:`forest_sampler` is the one
place that chooses: the tree sampler when the graph is a tree, Wilson's
:class:`ForestSampler` otherwise. An explicit processing order always means
Wilson's walks.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
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
    "tree_uniforms",
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


#: SplitMix64 (Steele, Lea & Flood 2014): the Weyl increment and the finalizer's multipliers.
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF


def split_seed(master_seed: int, index: int) -> int:
    """Derive an independent 64-bit stream seed for replica ``index``.

    SplitMix64 finalizer applied to master_seed advanced by the replica
    index, so replica streams depend only on (master_seed, index) and can be
    generated in parallel without coordination.
    """
    z = (master_seed + (index + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """:func:`split_seed`'s finalizer on a uint64 array, in place (numpy wraps mod 2^64)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def tree_uniforms(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Counter-based uniforms U[r, i] for replicas start <= r < stop and positions i < n.

    U[r, i] is the top 53 bits of ``split_seed(split_seed(seed, r), i)``
    over 2^53: a pure function of (seed, r, i), in [0, 1), as in Salmon et
    al., "Parallel random numbers: as easy as 1, 2, 3" (SC 2011). Row k of
    the result is replica start + k.
    """
    gamma = np.uint64(_GAMMA)
    streams = _mix(np.arange(start + 1, stop + 1, dtype=np.uint64) * gamma + np.uint64(seed & _MASK))
    z = _mix(streams[:, None] + np.arange(1, n + 1, dtype=np.uint64) * gamma)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


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

    def draw(self, seed: int, start: int, stop: int) -> np.ndarray:
        """Next-pointer rows, shape (stop - start, n), of replicas start..stop-1 of ``seed``.

        Replica r is :meth:`sample` on ``Random(split_seed(seed, r))``.
        """
        forests = (self.sample(Random(split_seed(seed, r))).parent for r in range(start, stop))
        n = self.graph.n
        return np.fromiter(chain.from_iterable(forests), np.int64, (stop - start) * n).reshape(-1, n)


class TreeSampler:
    """Exact top-down sampler for one (tree, q) pair: one uniform per vertex.

    On a tree the only cycles a choice of pointers can close are two
    neighbours pointing at each other, so hung from vertex 0 the measure
    factors over the vertices. With the leaf-first pivots
    s_v = q + sum_c t_c, t_c = w(v, c) s_c / (s_c + w(c, v)) over v's
    children c, a vertex whose parent p does not point at it is "free": it
    points up with weight w(v, p), is a root with weight q, or points to
    child c with weight t_c. A vertex that p points at is "blocked" and
    draws from the same table without the up option, total s_v.

    Every table entry is q, an edge weight or a t_c, never a difference.
    The partial sums of the pivot recurrence are the blocked tables'
    boundaries (the children of one vertex are contiguous in the leaf-first
    order), and the up option comes last, above s_v, so one draw
    x = U * total picks: a root if x < q, the parent if x >= s_v, else the
    child whose boundary ``bisect_right`` finds. Since U * s < s for every
    U < 1 and s > 0, a blocked vertex never points back, and a zero weight
    is never picked.

    Replica r of a seed reads U[r, i] (:func:`tree_uniforms`) at the vertex
    of breadth-first position i, so a forest depends only on (seed, r).
    :meth:`draw` works out, for all replicas at once, what each vertex
    picks if free and if blocked. Only which of the two applies is
    sequential: v is blocked when its parent's pick is v. Pointer doubling
    settles it in numpy, composing each vertex's map "parent blocked -> v
    blocked" with its ancestors' in log2(depth) rounds.
    """

    def __init__(self, g: WeightedDigraph, q: float):
        check_q(q)
        self.graph = g
        self.q = q
        order, parent, up, down = leaf_first(g, 0)
        order, n = order.astype(np.int64), g.n
        v = order[:0:-1]  # leaves first, without the root
        s = [q] * n
        bound = []  # bound[j]: s[parent] once the j-th vertex is eliminated
        append = bound.append
        for x, p, w_xp, w_px in zip(v.tolist(), parent[v].tolist(), up[v].tolist(), down[v].tolist()):
            s_x = s[x]
            s[p] = s_p = s[p] + w_px * s_x / (s_x + w_xp)
            append(s_p)
        self._bound, self._child = np.array(bound), v
        # from here on, vertices are indexed by breadth-first position
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        above = position[parent[order].clip(0)]
        # the children of position i are the vertices eliminated at steps lo[i]..last[i]
        key = -above[:0:-1]  # nondecreasing in the elimination step
        self._lo = np.searchsorted(key, -np.arange(n), "left")
        self._last = np.searchsorted(key, -np.arange(n), "right") - 1
        self._steps = int(max((self._last - self._lo).max(), 0)).bit_length()
        self._order, self._position, self._above = order, position, above
        # the root's up weight is 0, so its free table is its blocked one and it never points up
        self._parent = order[above]
        self._s = np.array(s)[order]
        self._free = self._s + up[order]
        # doubling rounds until every jump reaches the root
        anc, self._rounds = above, 0
        while anc.any():
            anc = anc[anc]
            self._rounds += 1

    def draw(self, seed: int, start: int, stop: int) -> np.ndarray:
        """Next-pointer rows, shape (stop - start, n), of replicas start..stop-1 of ``seed``.

        Row k is the forest of replica start + k, :data:`ROOT` marking a
        root; it does not depend on the range it is drawn in.
        """
        if not isinstance(seed, (int, np.integer)):
            raise ParameterError(f"the tree sampler takes an integer seed, not {type(seed).__name__}")
        u = tree_uniforms(int(seed), start, stop, self.graph.n)
        free, blocked = self._picks(u * self._free), self._picks(u * self._s)
        # (m0, m1)[i] says whether i is blocked when anc[i] is free or blocked;
        # each round composes it with anc[i]'s map and doubles the jump. The root is free.
        vs, anc = self._order, self._above
        m0, m1 = free.take(anc, 1) == vs, blocked.take(anc, 1) == vs
        for _ in range(self._rounds):
            a0, a1 = m0.take(anc, 1), m1.take(anc, 1)
            m0, m1 = (a0 & m1) | (~a0 & m0), (a1 & m1) | (~a1 & m0)
            anc = anc[anc]
        return np.where(m0, blocked, free).take(self._position, 1)

    def sample(self, seed: int) -> RootedForest:
        """Replica 0 of ``seed``."""
        return RootedForest(tuple(self.draw(seed, 0, 1)[0].tolist()))

    def _picks(self, x: np.ndarray) -> np.ndarray:
        """What each draw x (columns by position) picks: ROOT, the parent, or a child."""
        s = self._s
        picks = np.where(x >= s, self._parent, ROOT)
        down = np.flatnonzero((x >= self.q) & (x < s))
        if down.size:  # bisect_right(bound, x, lo, last + 1), vectorized; bound[last] = s > x
            cols = down % len(s)
            x, lo, hi = x.take(down), self._lo.take(cols), self._last.take(cols)
            for _ in range(self._steps):
                mid = (lo + hi) >> 1
                right = self._bound.take(mid) <= x
                lo = np.where(right, mid + 1, lo)
                hi = np.where(right, hi, mid)
            picks.put(down, self._child.take(lo))
        return picks


def forest_sampler(g: WeightedDigraph, q: float) -> ForestSampler | TreeSampler:
    """The sampler for (g, q): :class:`TreeSampler` on a tree, Wilson's :class:`ForestSampler` otherwise."""
    return TreeSampler(g, q) if is_tree(g) else ForestSampler(g, q)


def sample_forest(
    g: WeightedDigraph, q: float, rng_seed: int, order: Sequence[int] | None = None
) -> RootedForest:
    """Draw one forest with law q^{#roots} * prod(weights) / Z.

    On a tree this is replica 0 of ``rng_seed`` (:meth:`TreeSampler.sample`);
    otherwise Wilson's walks read ``Random(rng_seed)``. An explicit
    processing ``order`` always runs Wilson's walks.
    """
    sampler = forest_sampler(g, q) if order is None else ForestSampler(g, q, order)
    return sampler.sample(rng_seed) if isinstance(sampler, TreeSampler) else sampler.sample(Random(rng_seed))


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
