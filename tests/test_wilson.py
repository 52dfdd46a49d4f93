import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from lepart import (
    Complete,
    Cycle,
    ParameterError,
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
    make_family,
    partition_of,
    root_set,
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
    assert root_set(RootedForest((ROOT, 0))) == {0}
    assert root_set(RootedForest((ROOT,) * 4)) == {0, 1, 2, 3}
    assert root_set(RootedForest((1, ROOT, 1))) == {1}


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


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([Path(5), Cycle(4), Star(5, 2.0), Complete(4)]), st.integers(0, 10**6))
def test_samples_are_valid_forests(fam, seed):
    g = make_family(fam)
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
