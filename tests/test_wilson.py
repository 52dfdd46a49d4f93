import math
from bisect import bisect_right
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from lepart import (
    Bottleneck,
    Complete,
    Cycle,
    HierarchicalTree,
    ParameterError,
    Partition,
    Path,
    ROOT,
    RootedForest,
    Star,
    StructureError,
    WeightedDigraph,
    brute_z,
    enumerate_forests,
    forest_from_json,
    forest_to_json,
    laplacian,
    make_family,
    partition_of,
    sample_forest,
    split_seed,
)
from lepart.wilson import ForestSampler


def test_single_vertex_always_root():
    g = WeightedDigraph(1, ())
    for seed in range(5):
        assert sample_forest(g, 1.0, seed).parent == (ROOT,)


def test_partition_of_examples():
    assert partition_of(RootedForest((ROOT, ROOT, ROOT))).blocks == ((0,), (1,), (2,))
    assert partition_of(RootedForest((ROOT, 0, 1))).blocks == ((0, 1, 2),)
    assert partition_of(RootedForest((ROOT, ROOT, 1))).blocks == ((0,), (1, 2))
    part = partition_of(RootedForest((1, ROOT, 1, 2)))
    assert part.blocks == ((0, 1, 2, 3),)
    assert part.block_of == (0, 0, 0, 0)


def test_root_set_examples():
    assert set(RootedForest((ROOT, 0)).roots) == {0}
    assert set(RootedForest((ROOT,) * 4).roots) == {0, 1, 2, 3}
    assert set(RootedForest((1, ROOT, 1)).roots) == {1}


def test_forest_validation():
    with pytest.raises(StructureError):
        RootedForest((1, 0)).validate()
    with pytest.raises(StructureError):
        RootedForest((5,)).validate()
    g = make_family(Path(3))
    with pytest.raises(StructureError):
        RootedForest((2, ROOT, ROOT)).validate(g)  # (0,2) is not a path edge
    RootedForest((1, ROOT, 1)).validate(g)


def test_forest_json_round_trip():
    f = RootedForest((1, ROOT, 1, 0))
    assert forest_from_json(forest_to_json(f)) == f
    assert forest_to_json(RootedForest((ROOT, 0))) == "[0, -1]".replace("0, -1", "-1, 0")  # [-1, 0]
    with pytest.raises(Exception):
        forest_from_json("[[1]]")


def test_sampler_determinism_and_seed_splitting():
    g = make_family(Star(6, 0.5))
    a = sample_forest(g, 1.0, 123)
    b = sample_forest(g, 1.0, 123)
    assert a == b
    seeds = {split_seed(99, r) for r in range(1000)}
    assert len(seeds) == 1000
    assert split_seed(99, 0) != split_seed(100, 0)


def test_invalid_q_and_order():
    g = make_family(Path(3))
    for q in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            sample_forest(g, q, 1)
    with pytest.raises(ParameterError):
        ForestSampler(g, 1.0, order=(0, 1))


@st.composite
def asymmetric_trees(draw):
    """A random tree with independent weights per direction, some edges one-way."""
    n = draw(st.integers(2, 9))
    weight = st.floats(0.1, 10.0)
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        for a, b in draw(st.sampled_from([((u, v), (v, u)), ((u, v),), ((v, u),)])):
            edges.append((a, b, draw(weight)))
    return WeightedDigraph(n, edges)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([Path(5), Cycle(4), Star(5, 2.0), Complete(4)]) | asymmetric_trees(), st.integers(0, 10**6))
def test_samples_are_valid_forests(fam, seed):
    g = fam if isinstance(fam, WeightedDigraph) else make_family(fam)
    for q in (0.2, 5.0):
        f = sample_forest(g, q, seed)
        f.validate(g)


def test_huge_killing_rate_roots_everything():
    for fam in (Path(7), Star(9)):
        g = make_family(fam)
        sampler = ForestSampler(g, 1e9)
        all_roots = 0
        for r in range(1000):
            f = sampler.sample(Random(split_seed(5, r)))
            all_roots += f.root_count == g.n
        assert all_roots / 1000 > 0.999


def test_path2_both_roots_frequency():
    # P(both roots) = q^2/(q^2+2q) = 1/2 at q=2
    g = make_family(Path(2))
    sampler = ForestSampler(g, 2.0)
    R = 10**5
    hits = sum(sampler.sample(Random(split_seed(31, r))).root_count == 2 for r in range(R))
    p_hat = hits / R
    sigma = math.sqrt(0.5 * 0.5 / R)
    assert abs(p_hat - 0.5) < 4 * sigma


def test_sampler_law_smoke_path3():
    g = make_family(Path(3))
    ens = enumerate_forests(g)
    q, R = 1.0, 20_000
    masses = ens.masses(q)
    probs = masses / masses.sum()
    index = {f.parent: i for i, f in enumerate(ens.forests)}
    counts = np.zeros(len(ens))
    sampler = ForestSampler(g, q)
    for r in range(R):
        counts[index[sampler.sample(Random(split_seed(17, r))).parent]] += 1
    _, p = chisquare(counts, probs * R)
    assert p > 0.001


def test_processing_order_invariance():
    # same-block probability must not depend on the sweep order
    g = make_family(Star(5))
    q, R = 1.0, 30_000
    freqs = []
    for order in (None, (4, 3, 2, 1, 0)):
        sampler = ForestSampler(g, q, order)
        hits = 0
        for r in range(R):
            f = sampler.sample(Random(split_seed(3, r)))
            hits += f.root_of(1) == f.root_of(2)
        freqs.append(hits / R)
    p = sum(freqs) / 2
    sigma = math.sqrt(2 * p * (1 - p) / R)
    assert abs(freqs[0] - freqs[1]) < 4 * sigma


# -- next-pointer sampler against the path/position reference ----------------


class CountingRandom(Random):
    """A Random that counts its random() calls, i.e. the walk steps."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def reference_sample(sampler: ForestSampler, rng: Random) -> RootedForest:
    """Wilson's algorithm with an explicit path and position table.

    The loop-erasing form the next-pointer sampler replaced; it must draw the
    same forest from the same stream.
    """
    q = sampler.q
    parent: list = [None] * sampler.graph.n
    for start in sampler.order:
        if parent[start] is not None:
            continue
        path = [start]
        pos = {start: 0}
        while True:
            x = path[-1]
            u = rng.random() * sampler._total[x]
            if u < q:
                tail = ROOT
                break
            y = sampler._nbrs[x][bisect_right(sampler._cum[x], u - q)]
            if parent[y] is not None:
                tail = y
                break
            j = pos.get(y)
            if j is not None:
                for v in path[j + 1 :]:
                    del pos[v]
                del path[j + 1 :]
            else:
                pos[y] = len(path)
                path.append(y)
        for a, b in zip(path, path[1:]):
            parent[a] = b
        parent[path[-1]] = tail
    return RootedForest(tuple(parent))


def reference_partition_of(forest: RootedForest) -> Partition:
    """Blocks by one root_of call per vertex, O(n * depth)."""
    by_root: dict[int, list[int]] = {}
    for v in range(forest.n):
        by_root.setdefault(forest.root_of(v), []).append(v)
    blocks = tuple(tuple(sorted(b)) for b in sorted(by_root.values(), key=min))
    block_of = [0] * forest.n
    for i, block in enumerate(blocks):
        for v in block:
            block_of[v] = i
    return Partition(tuple(block_of), blocks)


ONE_WAY = WeightedDigraph(
    6, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (2, 3, 1.0), (3, 4, 1.5), (4, 3, 0.2), (5, 4, 1.0), (4, 5, 3.0), (5, 0, 0.7)]
)


@pytest.mark.parametrize(
    "g, q, order",
    [
        (make_family(Path(50)), 0.05, None),
        (make_family(Bottleneck(20, 5, 0.3)), 0.2, None),
        (make_family(Complete(7)), 0.5, None),
        (make_family(HierarchicalTree(3, 3, (1.0, 2.0, 4.0))), 0.3, None),
        (ONE_WAY, 0.4, None),
        (make_family(Path(50)), 0.05, tuple(range(0, 50, 2)) + tuple(range(49, 0, -2))),
    ],
    ids=["path50", "bottleneck", "complete7", "hier33", "one-way", "path50-order"],
)
def test_next_pointer_sampler_matches_reference(g, q, order):
    sampler = ForestSampler(g, q, order)
    for seed in range(2000):
        fast, slow = CountingRandom(seed), CountingRandom(seed)
        forest = sampler.sample(fast)
        expected = reference_sample(sampler, slow)
        assert forest.parent == expected.parent
        assert fast.calls == slow.calls
        assert partition_of(forest) == reference_partition_of(forest)


def test_partition_of_rejects_cycles():
    for parent in ((1, 0), (0,), (ROOT, 2, 3, 1), (1, 2, ROOT, 4, 3)):
        with pytest.raises(StructureError):
            partition_of(RootedForest(parent))


@pytest.mark.parametrize(
    "family, q, formula",
    [(Path(30), 0.05, 148.91), (Bottleneck(10, 4, 0.3), 0.2, 64.80), (Star(12, 2.0), 0.7, 17.09)],
)
def test_walk_steps_match_green_kernel(family, q, formula):
    # Mean random() calls per forest is sum_v (q + W(v)) G_vv, G = (qI - L)^-1.
    g = make_family(family)
    expected = float(np.sum((q + g.out_weight) * np.diag(np.linalg.inv(q * np.eye(g.n) - laplacian(g)))))
    assert expected == pytest.approx(formula, abs=0.005)
    sampler = ForestSampler(g, q)
    steps = []
    for r in range(4000):
        rng = CountingRandom(split_seed(11, r))
        sampler.sample(rng)
        steps.append(rng.calls)
    mean = float(np.mean(steps))
    stderr = float(np.std(steps, ddof=1)) / math.sqrt(len(steps))
    assert abs(mean - expected) < 5 * stderr
