"""Forest sampling by loop-erased random walks with geometric killing.

A spanning rooted forest with law proportional to q^{#roots} * prod(weights)
is drawn by running, from each not-yet-covered vertex in turn, the discrete
jump chain that moves x -> y with probability w(x, y)/(q + W(x)) and dies
(rooting the walk's endpoint) with probability q/(q + W(x)), loop-erasing as
it goes, and attaching the erased path to the forest grown so far. This is
the killed-walk form of Wilson's algorithm; the discrete skeleton has the
same law as the continuous-time walk for everything measurable on the jump
sequence and death position.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from random import Random
from typing import Sequence

from .errors import FormatError, ParameterError, StructureError, check_q
from .graphs import WeightedDigraph

__all__ = [
    "ROOT",
    "RootedForest",
    "Partition",
    "partition_of",
    "root_set",
    "ForestSampler",
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
        steps = 0
        while self.parent[v] != ROOT:
            v = self.parent[v]
            steps += 1
            if steps > self.n:
                raise StructureError("parent pointers contain a cycle")
        return v

    def validate(self, g: WeightedDigraph | None = None) -> None:
        """Check acyclicity and, when a graph is given, edge support."""
        n = self.n
        for v, p in enumerate(self.parent):
            if p != ROOT and not 0 <= p < n:
                raise StructureError(f"parent[{v}]={p} out of range")
        for v in range(n):
            self.root_of(v)
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
    """The partition whose blocks are the trees of the forest."""
    by_root: dict[int, list[int]] = {}
    for v in range(forest.n):
        by_root.setdefault(forest.root_of(v), []).append(v)
    blocks = tuple(tuple(sorted(b)) for b in sorted(by_root.values(), key=min))
    block_of = [0] * forest.n
    for i, block in enumerate(blocks):
        for v in block:
            block_of[v] = i
    return Partition(tuple(block_of), blocks)


def root_set(forest: RootedForest) -> frozenset[int]:
    return frozenset(forest.roots)


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
        q = self.q
        parent: list[int | None] = [None] * self.graph.n
        for start in self.order:
            if parent[start] is not None:
                continue
            path = [start]
            pos = {start: 0}
            while True:
                x = path[-1]
                u = rng.random() * self._total[x]
                if u < q:
                    tail: int | None = ROOT  # walk killed: endpoint becomes a root
                    break
                y = self._nbrs[x][bisect_right(self._cum[x], u - q)]
                if parent[y] is not None:
                    tail = y  # hit the existing forest
                    break
                j = pos.get(y)
                if j is not None:
                    for v in path[j + 1 :]:  # erase the loop just closed
                        del pos[v]
                    del path[j + 1 :]
                else:
                    pos[y] = len(path)
                    path.append(y)
            for a, b in zip(path, path[1:]):
                parent[a] = b
            parent[path[-1]] = tail
        return RootedForest(tuple(parent))  # type: ignore[arg-type]

    def sample_seeded(self, seed: int) -> RootedForest:
        return self.sample(Random(seed))


def sample_forest(
    g: WeightedDigraph, q: float, rng_seed: int, order: Sequence[int] | None = None
) -> RootedForest:
    """Draw one forest with law q^{#roots} * prod(weights) / Z."""
    return ForestSampler(g, q, order).sample_seeded(rng_seed)


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
