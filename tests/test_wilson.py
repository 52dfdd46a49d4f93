import math
import re
from bisect import bisect_right
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chisquare

from lepart import (
    Bottleneck,
    Complete,
    Cycle,
    FormatError,
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
    undirected,
)
from lepart import wilson
from lepart.estimators import _chi_square_merged
from lepart.wilson import ForestSampler, forest_sampler
from oracles import OracleForest, asymmetric_trees, oracle_forests, wilson_steps


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
    # bool is an int subclass in Python, so true/false would read as 1/0
    with pytest.raises(FormatError, match="array of integers"):
        forest_from_json("[true, -1]", make_family(Path(2)))
    with pytest.raises(FormatError):
        forest_from_json("[false]")


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
            all_roots += OracleForest(f.parent).root_count == g.n
        assert all_roots / 1000 > 0.999


def test_path2_both_roots_frequency():
    # P(both roots) = q^2/(q^2+2q) = 1/2 at q=2
    g = make_family(Path(2))
    sampler = ForestSampler(g, 2.0)
    R = 10**5
    hits = sum(OracleForest(sampler.sample(Random(split_seed(31, r))).parent).root_count == 2 for r in range(R))
    p_hat = hits / R
    sigma = math.sqrt(0.5 * 0.5 / R)
    assert abs(p_hat - 0.5) < 4 * sigma


def test_sampler_law_smoke_path3():
    g = make_family(Path(3))
    ens = enumerate_forests(g)
    q, R = 1.0, 20_000
    masses = ens.masses(q)
    probs = masses / masses.sum()
    index = {f.parent: i for i, f in enumerate(oracle_forests(ens))}
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
            f = OracleForest(sampler.sample(Random(split_seed(3, r))).parent)
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
    oracle = OracleForest(forest.parent)
    by_root: dict[int, list[int]] = {}
    for v in range(forest.n):
        by_root.setdefault(oracle.root_of(v), []).append(v)
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


def test_partition_of_names_an_out_of_range_pointer():
    for parent, name in (((5, ROOT), "parent[0]=5 "), ((ROOT, -2), "parent[1]=-2 "), ((ROOT, 0, 10**30), "parent[2]=")):
        with pytest.raises(StructureError, match=re.escape(name)):
            partition_of(RootedForest(parent))
        with pytest.raises(StructureError, match=re.escape(name)):
            RootedForest(parent).validate()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.lists(st.integers(ROOT, n - 1), min_size=n, max_size=n)))
def test_partition_of_matches_root_of_on_any_pointer_array(parent):
    """Forests of any shape, and pointer arrays with cycles, which both must reject."""
    forest = RootedForest(tuple(parent))
    try:
        want = reference_partition_of(forest)
    except StructureError:
        with pytest.raises(StructureError, match="cycle"):
            partition_of(forest)
    else:
        assert partition_of(forest) == want


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


# -- walks rooted at the hub vertex -------------------------------------------

TWO_TRIANGLES = undirected(6, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (3, 4, 3.0), (4, 5, 0.7), (3, 5, 1.5)])
WEIGHTED_5 = undirected(5, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.5), (3, 0, 1.0), (0, 2, 3.0), (3, 4, 0.8), (1, 4, 0.3)])


def hub(g: WeightedDigraph) -> int:
    return int(np.argmax(g.out_weight))


@pytest.mark.parametrize(
    "g, q",
    [(make_family(Complete(4)), 0.1), (make_family(Complete(5)), 0.02), (TWO_TRIANGLES, 0.05), (WEIGHTED_5, 0.04)],
    ids=["complete4", "complete5", "two-triangles", "weighted5"],
)
def test_hub_rooted_law_matches_enumeration(g, q):
    # cells sorted by expected count, the sparse tail merged (as mc_root_count does)
    ens = enumerate_forests(g)
    masses = ens.masses(q)
    probs = masses / masses.sum()
    index = {f.parent: i for i, f in enumerate(oracle_forests(ens))}
    R = 20_000
    counts = np.zeros(len(ens))
    for row in ForestSampler(g, q, root=hub(g)).draw(42, 0, R).tolist():
        counts[index[tuple(row)]] += 1
    order = np.argsort(-probs, kind="stable")
    stat, dof = _chi_square_merged(counts[order], probs[order] * R)
    assert chi2.sf(stat, dof) > 0.001


def test_hub_rooted_rows_do_not_depend_on_the_split():
    g = make_family(Bottleneck(6, 4, 0.5))
    sampler = ForestSampler(g, 0.05, root=hub(g))
    whole = sampler.draw(9, 0, 300)
    for cut in (1, 150, 299):
        assert np.array_equal(np.vstack([sampler.draw(9, 0, cut), sampler.draw(9, cut, 300)]), whole)
    for row in whole.tolist():
        RootedForest(tuple(row)).validate(g)


def _random_graph(rng: np.random.Generator) -> WeightedDigraph:
    n = int(rng.integers(3, 13))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5] or [(0, 1)]
    return undirected(n, [(a, b, float(rng.lognormal(0.0, 1.0))) for a, b in pairs])


def test_walk_root_is_the_cheaper_of_cemetery_and_hub():
    rng = np.random.default_rng(2024)
    families = (Bottleneck(10, 4, 0.3), Complete(6), Cycle(12), Bottleneck(200, 20, 1.0))
    cases = [(make_family(fam), q) for fam in families for q in (0.01, 0.1, 1.0, 10.0)]
    cases += [(g, q) for g in (TWO_TRIANGLES, WEIGHTED_5) for q in (0.01, 0.05, 0.5, 5.0)]
    cases += [(_random_graph(rng), float(10.0 ** rng.uniform(-3, 1))) for _ in range(300)]
    chosen = []
    for g, q in cases:
        cemetery, rooted = wilson_steps(g, q, ROOT), wilson_steps(g, q, hub(g))
        if abs(rooted - cemetery) < 1e-9 * cemetery:
            continue  # a tie: either root is right
        want = hub(g) if rooted < cemetery else ROOT
        assert wilson._walk_root(g, q) == want
        chosen.append(want == ROOT)
    assert 0 < sum(chosen) < len(chosen)  # both roots are chosen somewhere
    g = make_family(Bottleneck(200, 20, 1.0))
    assert forest_sampler(g, 10 / 220).root == 0  # the bridge vertex


def test_directed_and_large_graphs_keep_the_cemetery():
    assert forest_sampler(ONE_WAY, 0.01).root == ROOT
    with pytest.raises(ParameterError):
        ForestSampler(ONE_WAY, 0.01, root=0)
    with pytest.raises(ParameterError):
        ForestSampler(make_family(Cycle(4)), 0.01, root=4)
    big = make_family(Bottleneck(250, 10, 1.0))
    assert wilson_steps(big, 0.01, hub(big)) < wilson_steps(big, 0.01, ROOT)
    assert forest_sampler(big, 0.01).root == ROOT  # more than MAX_HUB_VERTICES


@pytest.mark.parametrize(
    "g, q", [(make_family(Bottleneck(10, 4, 0.3)), 0.05), (make_family(Complete(6)), 0.1), (TWO_TRIANGLES, 0.05)],
    ids=["bottleneck", "complete6", "two-triangles"],
)
def test_hub_rooted_walk_steps_match_effective_resistances(g, q):
    # Mean random() calls per forest is sum_v c(v) R_eff(v, h) + nq G_hh.
    expected = wilson_steps(g, q, hub(g))
    sampler = ForestSampler(g, q, root=hub(g))
    steps = []
    for r in range(4000):
        rng = CountingRandom(split_seed(11, r))
        sampler.sample(rng)
        steps.append(rng.calls)
    mean = float(np.mean(steps))
    stderr = float(np.std(steps, ddof=1)) / math.sqrt(len(steps))
    assert abs(mean - expected) < 5 * stderr
