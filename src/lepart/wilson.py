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
path or position table is kept.

On a tree no walk is needed: :class:`TreeSampler` draws the forest exactly,
top-down from vertex 0, with one uniform per vertex compared with the
leaf-first pivots. Its uniforms are counter-based (:func:`tree_uniforms`):
the one that replica r reads at breadth-first position i is a SplitMix64
hash of (seed, r, i), so :meth:`TreeSampler.draw` fills the next-pointer
rows of many replicas at once, in numpy, and a forest does not depend on
how the replicas are split into batches. Wilson's sampler reads a
``random.Random`` stream instead, replica r seeded by ``split_seed(seed,
r)``; its :meth:`ForestSampler.draw` fills rows of the same shape, so both
samplers hand estimators the same array. :func:`_roots`, pointer jumping
over such an array, is the one place that finds roots: for sampled rows,
the enumerated ensemble, and the one row of :func:`partition_of`.
:func:`forest_sampler` is the one place that chooses: the tree sampler when
the graph is a tree, Wilson's :class:`ForestSampler` otherwise. An explicit
processing order always means Wilson's walks.

The forest is a weighted spanning tree of the graph plus the cemetery,
joined to every vertex by weight q, and on an undirected graph Wilson's
walks may be rooted at any state of it. Rooted at the cemetery, every
forest waits for walks to be killed, about (q + W)/q steps each on a dense
graph at small q; rooted at a vertex of large weight W, the walks mostly
stop on reaching it. :func:`forest_sampler` roots them at the vertex of
largest W when one dense solve says that takes fewer expected steps
(:func:`_walk_root`); :func:`sample_forest` and directed graphs keep the
cemetery.
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
from .graphs import WeightedDigraph, check_vertices, is_tree, laplacian, leaf_first
from .spectral import _pivots

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

#: Most next-pointer entries (rows x vertices) drawn or reduced at once,
#: so a request's arrays stay a few MB whatever its replica count.
BLOCK_ENTRIES = 1 << 16


def _roots(nxt: np.ndarray) -> np.ndarray:
    """Each vertex's root in each row of a next-pointer array, by pointer jumping on flat indices.

    A valid row is at its fixed point after ceil(log2 n) rounds, and one
    more is the last: a row with a cycle leaves some entries at a vertex
    that is not a root.
    """
    rows, n = nxt.shape
    offsets = np.arange(rows)[:, None] * n
    flat = (np.where(nxt == ROOT, np.arange(n), nxt) + offsets).ravel()
    for _ in range((n - 1).bit_length() + 1):
        jumped = flat.take(flat)
        if np.array_equal(jumped, flat):
            break
        flat = jumped
    return flat.reshape(rows, n) - offsets


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

    def validate(self, g: WeightedDigraph | None = None) -> None:
        """Check pointer range and acyclicity (:func:`partition_of`) and, when a graph is given, edge support."""
        partition_of(self)
        if g is not None:
            if g.n != self.n:
                raise StructureError(f"forest on {self.n} vertices, graph has {g.n}")
            for v, p in enumerate(self.parent):
                if p != ROOT and g.weight(v, p) == 0.0:
                    raise StructureError(f"forest edge ({v},{p}) is not a graph edge")


@dataclass(frozen=True)
class Partition:
    """Vertex partition in canonical form: blocks sorted by minimum element."""

    block_of: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]


def partition_of(forest: RootedForest) -> Partition:
    """The partition whose blocks are the trees of the forest.

    Roots come from :func:`_roots` on the one row ``forest.parent``. A
    pointer out of range, or one that leads into a cycle (some vertex's
    root entry then is not a root), raises :class:`StructureError`.
    """
    parent = forest.parent
    n = len(parent)
    if n and not (ROOT <= min(parent) and max(parent) < n):
        v = next(v for v, p in enumerate(parent) if not ROOT <= p < n)
        raise StructureError(f"parent[{v}]={parent[v]} out of range")
    nxt = np.array(parent, dtype=np.int64)
    root = _roots(nxt.reshape(1, n))[0]
    if not (nxt.take(root) == ROOT).all():
        raise StructureError("parent pointers contain a cycle")
    # blocks are numbered in order of their minimum, and list their vertices in increasing order
    _, first, inverse = np.unique(root, return_index=True, return_inverse=True)
    block_of = np.argsort(np.argsort(first))[inverse]
    members = np.argsort(block_of, kind="stable").tolist()
    ends = np.cumsum(np.bincount(block_of)).tolist()
    blocks = tuple(tuple(members[a:b]) for a, b in zip([0, *ends], ends))
    return Partition(tuple(block_of.tolist()), blocks)


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

    The walks run on the graph plus the cemetery, a state joined to every
    vertex by weight q, whose tables sit in slot n, the one index
    :data:`ROOT` addresses in a list of n + 1. From the cemetery the walk
    jumps to a uniform vertex: its ``u < q`` branch goes to vertex 0 through
    the ``death`` list, which is ROOT for real vertices, and its other
    branch bisects [q, 2q, ...]. The walks are rooted at ``root``: the
    cemetery (the default), or, on an undirected graph, a vertex. Wilson's
    algorithm draws the same weighted spanning tree of the graph plus the
    cemetery from any root, and the forest is that tree with every pointer
    leading to the cemetery: a vertex root's walk from the cemetery runs
    first, and the pointer path it leaves is reversed at the end.
    """

    def __init__(
        self, g: WeightedDigraph, q: float, order: Sequence[int] | None = None, root: int = ROOT
    ):
        check_q(q)
        self.graph = g
        self.q = q
        n = g.n
        if order is None:
            order = range(n)
        self.order = tuple(order)
        if sorted(self.order) != list(range(n)):
            raise ParameterError("processing order must be a permutation of the vertices")
        if root != ROOT:
            check_vertices(n, (root,))
            if not g.is_symmetric:
                raise ParameterError("a vertex root needs an undirected graph")
        self.root = root
        self._starts = self.order if root == ROOT else (ROOT, *self.order)
        self._total = (q + g.out_weight).tolist()
        ptr, dst, w = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()
        rows = list(zip(ptr, ptr[1:]))
        self._nbrs = [dst[a:b] for a, b in rows]
        self._cum = [list(accumulate(w[a:b])) for a, b in rows]
        # the vertices' tables and the cemetery's, in slot n
        self._tables = (
            self._total + [n * q],
            self._nbrs + [list(range(1, n))],
            self._cum + [[k * q for k in range(1, n)]],
            [ROOT] * n + [0],
        )

    def sample(self, rng: Random) -> RootedForest:
        random = rng.random
        q = self.q
        total, nbrs, cum, death = self._tables
        nxt = [ROOT] * len(total)
        # the cemetery is slot n, in_tree[ROOT]; a retrace stops at the root
        in_tree = [False] * len(total)
        in_tree[self.root] = True
        for start in self._starts:
            if in_tree[start]:
                continue
            x = start
            while True:
                u = random() * total[x]
                if u < q:
                    y = nxt[x] = death[x]  # killed, or out of the cemetery to vertex 0
                else:
                    y = nxt[x] = nbrs[x][bisect_right(cum[x], u - q)]
                if in_tree[y]:
                    break  # hit the existing forest
                x = y
            x = start
            while not in_tree[x]:  # retrace the last exits: the loop erasure
                in_tree[x] = True
                x = nxt[x]
        if self.root != ROOT:
            # reverse the path cemetery -> ... -> root; its first vertex becomes a root
            prev, x = ROOT, nxt[ROOT]
            while x != ROOT:
                nxt[x], prev, x = prev, x, nxt[x]
        nxt.pop()
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
    The partial sums of the pivot recurrence (:func:`~lepart.spectral._pivots`)
    tile [q, s_v) into one interval [lo_c, hi_c) per child (the children of
    one vertex are contiguous in the leaf-first order): hi_c is v's pivot
    after c's elimination step, lo_c the one before it, or q for the first
    child. The up option comes last, above s_v, so one draw x = U * total
    picks: a root if x < q, the parent if x >= s_v, else the child c with
    lo_c <= x < hi_c. Since U * s < s for every U < 1 and s > 0, a blocked
    vertex never points back, and a zero weight, an empty interval, is never
    picked.

    Replica r of a seed reads U[r, i] (:func:`tree_uniforms`) at the vertex
    of breadth-first position i, so a forest depends only on (seed, r).
    :meth:`draw` serves all replicas at once. Only whether a vertex is
    blocked is sequential: v is blocked when its parent's draw falls in v's
    interval, and two interval tests give that for the parent free and
    blocked. Pointer doubling settles it in numpy, composing each vertex's
    map "parent blocked -> v blocked" with its ancestors' in log2(depth)
    rounds. Then each vertex draws once, and the blocked vertices are the
    child picks.
    """

    def __init__(self, g: WeightedDigraph, q: float):
        check_q(q)
        self.graph = g
        self.q = q
        order, parent, up, down = leaf_first(g, 0)
        order, n = order.astype(np.int64), g.n
        v = order[:0:-1]  # leaves first, without the root
        s, bound = _pivots(q, n, zip(v.tolist(), parent[v].tolist(), up[v].tolist(), down[v].tolist()))
        # from here on, vertices are indexed by breadth-first position
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        above = position[parent[order].clip(0)]
        # position i > 0 is eliminated at step n - 1 - i, just after position i + 1 if that is a
        # sibling; its parent picks it for x in [lo[i], hi[i]). The root's hi is below every lo.
        self._hi = np.array([0.0, *reversed(bound)])
        sibling_next = np.append(above[1:] == above[:-1], False)
        self._lo = np.where(sibling_next, np.append(self._hi[1:], q), q)
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
        free, blocked = u * self._free, u * self._s
        # (m0, m1)[i] says whether i is blocked when anc[i] is free or blocked;
        # each round composes it with anc[i]'s map and doubles the jump. The root is free.
        lo, hi, anc = self._lo, self._hi, self._above
        up_free, up_blocked = free.take(anc, 1), blocked.take(anc, 1)
        m0, m1 = (lo <= up_free) & (up_free < hi), (lo <= up_blocked) & (up_blocked < hi)
        for _ in range(self._rounds):
            a0, a1 = m0.take(anc, 1), m1.take(anc, 1)
            m0, m1 = (a0 & m1) | (~a0 & m0), (a1 & m1) | (~a1 & m0)
            anc = anc[anc]
        # m0 now says "my parent picks me": one scatter sets every child pick, and the other
        # draws pick the parent (x >= s) or nothing (x < q)
        rows = np.where(np.where(m0, blocked, free) >= self._s, self._parent, ROOT)
        replica, child = np.nonzero(m0)
        rows[replica, self._above[child]] = self._order[child]
        return rows.take(self._position, 1)

    def sample(self, seed: int) -> RootedForest:
        """Replica 0 of ``seed``."""
        return RootedForest(tuple(self.draw(seed, 0, 1)[0].tolist()))


#: Largest graph on which :func:`forest_sampler` weighs a vertex root (one dense solve).
MAX_HUB_VERTICES = 256


def forest_sampler(g: WeightedDigraph, q: float) -> ForestSampler | TreeSampler:
    """The sampler for (g, q): :class:`TreeSampler` on a tree, Wilson's :class:`ForestSampler` otherwise.

    Wilson's walks are rooted where they take fewer expected steps
    (:func:`_walk_root`).
    """
    check_q(q)
    return TreeSampler(g, q) if is_tree(g) else ForestSampler(g, q, root=_walk_root(g, q))


def _walk_root(g: WeightedDigraph, q: float) -> int:
    """ROOT, or the vertex h of largest weight W when Wilson's walks rooted there take fewer steps.

    Rooted at r, the walks take sum_v c(v) R_eff(v, r) steps on average,
    over the vertices, with c(v) = q + W(v), and the cemetery, with weight
    nq. With G = (qI - L)^-1, R_eff(v, cemetery) = G_vv and R_eff(v, h) =
    G_vv + G_hh - 2 G_vh, so E(h) - E(cemetery) = C G_hh - 2 (Gc)_h, where C
    = sum_v c(v) + nq. One dense solve gives the column G e_h. Since G_hh >=
    1/c_h and (Gc)_h <= c_h / q, the hub cannot win when q C >= 2 c_h^2, and
    no solve is made. Directed graphs, and graphs of more than
    :data:`MAX_HUB_VERTICES` vertices, keep the cemetery.
    """
    n = g.n
    if not g.is_symmetric or n > MAX_HUB_VERTICES:
        return ROOT
    c = q + g.out_weight
    h = int(np.argmax(c))
    total = float(c.sum()) + n * q
    if q * total >= 2.0 * c[h] ** 2:
        return ROOT
    e_h = np.zeros(n)
    e_h[h] = 1.0
    try:
        column = np.linalg.solve(q * np.eye(n) - laplacian(g), e_h)
    except np.linalg.LinAlgError:  # q below the rounding of the weights: keep the cemetery
        return ROOT
    return h if total * column[h] < 2.0 * float(column @ c) else ROOT


def sample_forest(
    g: WeightedDigraph, q: float, rng_seed: int, order: Sequence[int] | None = None
) -> RootedForest:
    """Draw one forest with law q^{#roots} * prod(weights) / Z.

    On a tree this is replica 0 of ``rng_seed`` (:meth:`TreeSampler.sample`);
    otherwise Wilson's walks, rooted at the cemetery, read
    ``Random(rng_seed)``. An explicit processing ``order`` always runs
    Wilson's walks.
    """
    if order is None and is_tree(g):
        return TreeSampler(g, q).sample(rng_seed)
    return ForestSampler(g, q, order).sample(Random(rng_seed))


def forest_to_json(forest: RootedForest) -> str:
    """JSON array of parent entries, -1 marking a root."""
    return json.dumps(list(forest.parent))


def forest_from_json(text: str, g: WeightedDigraph | None = None) -> RootedForest:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad forest JSON: {exc}") from exc
    if not isinstance(data, list) or not all(type(v) is int for v in data):  # bool is an int subclass
        raise FormatError("forest JSON must be an array of integers")
    forest = RootedForest(tuple(data))
    forest.validate(g)
    return forest
