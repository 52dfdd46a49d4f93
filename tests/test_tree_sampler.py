"""The exact top-down tree sampler and the selector that routes trees to it."""

import hashlib
import math
from random import Random

import numpy as np
import pytest
from scipy.stats import chisquare

from lepart import (
    Bottleneck,
    Cycle,
    HierarchicalTree,
    Path,
    ROOT,
    Star,
    WeightedDigraph,
    enumerate_forests,
    make_family,
    mc_correlation,
    roots_marginal,
    sample_forest,
    split_seed,
    undirected,
)
from lepart.graphs import is_tree, leaf_first
from lepart.spectral import TreePairCorrelation
from lepart.wilson import ForestSampler, TreeSampler, forest_sampler


def random_tree(seed: int, n: int, one_way: bool) -> WeightedDigraph:
    """A random tree on n vertices, weights e^U(-2, 2) drawn per direction.

    With ``one_way``, about a third of the edges lose one direction (at
    least one edge always does).
    """
    rng = Random(seed)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        pair = [(u, v), (v, u)]
        if one_way and (v == 1 or rng.random() < 1 / 3):
            pair = [rng.choice(pair)]
        edges += [(a, b, math.exp(rng.uniform(-2.0, 2.0))) for a, b in pair]
    return WeightedDigraph(n, edges)


def chi_square_p(g: WeightedDigraph, q: float, replicas: int, seed: int) -> float:
    """p-value of sampled forests against the enumerated law; cells below 5 expected are pooled."""
    ens = enumerate_forests(g)
    masses = ens.masses(q)
    expected = masses / masses.sum() * replicas
    index = {f.parent: i for i, f in enumerate(ens.forests)}
    counts = np.zeros(len(ens))
    sampler = forest_sampler(g, q)
    assert isinstance(sampler, TreeSampler)
    for r in range(replicas):
        counts[index[sampler.sample(Random(split_seed(seed, r))).parent]] += 1
    small = expected < 5
    obs, exp = counts[~small], expected[~small]
    if small.any():
        obs, exp = np.append(obs, counts[small].sum()), np.append(exp, expected[small].sum())
    return float(chisquare(obs, exp)[1])


@pytest.mark.parametrize(
    "g, q",
    [
        (make_family(Path(4)), 0.7),
        (make_family(Star(5, 2.0)), 0.3),
        (make_family(HierarchicalTree(2, 2, (1.0, 3.0))), 1.1),
    ]
    + [(random_tree(seed, n, one_way), q) for seed, n, one_way, q in (
        (1, 5, False, 0.4),
        (2, 6, False, 1.5),
        (3, 7, False, 0.2),
        (4, 5, True, 0.8),
        (5, 6, True, 0.3),
        (6, 7, True, 2.0),
    )],
    ids=["path4", "star5", "hier22", "sym5", "sym6", "sym7", "oneway5", "oneway6", "oneway7"],
)
def test_tree_sampler_law_against_enumeration(g, q):
    assert is_tree(g)
    assert chi_square_p(g, q, 20_000, 23) > 0.001


def test_root_marginals_match_green_kernel_minors():
    g = make_family(HierarchicalTree(2, 3, (1.0, 2.0, 4.0)))
    q, R = 0.5, 20_000
    sampler = forest_sampler(g, q)
    assert isinstance(sampler, TreeSampler)
    roots = np.zeros((R, g.n), dtype=bool)
    for r in range(R):
        roots[r] = np.array(sampler.sample(Random(split_seed(8, r))).parent) == ROOT
    sets = [(v,) for v in range(g.n)] + [(0, 1), (1, 3), (3, 4), (7, 14), (0, 7, 14)]
    for vertices in sets:
        p = roots_marginal(g, q, vertices)
        p_hat = roots[:, list(vertices)].all(axis=1).mean()
        assert abs(p_hat - p) < 4 * math.sqrt(p * (1 - p) / R), vertices


def test_mc_correlation_on_a_long_path_matches_tree_exact():
    g = make_family(Path(1000))
    q, R = 3e-5, 2000
    exact = TreePairCorrelation(g, 400, 600).at(q)
    stats = mc_correlation(g, q, 400, 600, R, 3)
    assert abs(stats.estimate - exact) < 5 * math.sqrt(exact * (1 - exact) / R)


def test_single_vertex():
    g = WeightedDigraph(1, ())
    sampler = forest_sampler(g, 0.3)
    assert isinstance(sampler, TreeSampler)
    assert all(sampler.sample(Random(seed)).parent == (ROOT,) for seed in range(5))


@pytest.mark.parametrize("g", [make_family(Path(30)), make_family(Star(9, 0.5)), random_tree(9, 12, True)])
def test_one_uniform_per_vertex_and_valid_forests(g):
    sampler = TreeSampler(g, 0.2)
    for seed in range(200):
        rng, ref = Random(seed), Random(seed)
        forest = sampler.sample(rng)
        for _ in range(g.n):
            ref.random()
        assert rng.getstate() == ref.getstate()
        forest.validate(g)


def test_leaf_first_lists_children_contiguously():
    for seed in range(20):
        g = random_tree(seed, 15, seed % 2 == 1)
        order, parent, up, down = leaf_first(g, 0)
        assert sorted(order.tolist()) == list(range(g.n)) and order[0] == 0 and parent[0] == -1
        position = np.empty(g.n, dtype=int)
        position[order] = np.arange(g.n)
        assert np.all(np.diff(position[parent[order[1:]]]) >= 0)  # parents come in order
        for v in order[1:].tolist():
            p = int(parent[v])
            assert position[p] < position[v]
            assert up[v] == g.weight(v, p) and down[v] == g.weight(p, v)


def _sha(g, q, order=None) -> str:
    h = hashlib.sha256()
    for seed in range(200):
        h.update(repr(sample_forest(g, q, seed, order).parent).encode())
    return h.hexdigest()[:32]


@pytest.mark.parametrize(
    "g, q, order, digest",
    [
        (make_family(Cycle(9)), 0.3, None, "5d6e13c9cacb71fe93dbc66fcbeff45f"),
        (make_family(Bottleneck(5, 3, 0.5)), 0.4, None, "2b417b15f55301bb2b100bfbcab04798"),
        (undirected(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5), (4, 5, 1.0)]), 0.6, None, "6c7eae20f91ce4566c4931e95b393adb"),
        (make_family(Path(8)), 0.2, (7, 6, 5, 4, 3, 2, 1, 0), "bdc4abb7ce14e1e379e9d812548a84ba"),
    ],
    ids=["cycle", "bottleneck", "two-components", "tree-with-order"],
)
def test_selector_keeps_wilson_off_trees_and_for_explicit_orders(g, q, order, digest):
    # digests of Wilson's forests, recorded before trees had a sampler of their own
    if order is None:
        assert type(forest_sampler(g, q)) is ForestSampler
    assert _sha(g, q, order) == digest


def reference_elimination(g: WeightedDigraph, path: list[int]) -> list[tuple[int, int, float, float]]:
    """The hand-built leaf-first list: breadth-first from the whole path, reversed."""
    adj = [set() for _ in range(g.n)]
    for a, b, _ in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, queue, elim = set(path), list(path), []
    for p in queue:
        for v in sorted(adj[p]):
            if v not in seen:
                seen.add(v)
                queue.append(v)
                elim.append((v, p, g.weight(v, p), g.weight(p, v)))
    return elim[::-1]


def _by_parent(elim):
    children: dict[int, list] = {}
    for entry in elim:
        children.setdefault(entry[1], []).append(entry)
    return children


def test_tree_pair_elimination_matches_the_hand_built_list():
    # The two lists visit the pieces in another order, but each pivot sums
    # the same children in the same order, so every value is bit-identical.
    for seed in range(30):
        g = random_tree(seed, 12, seed % 2 == 1)
        x, y = Random(seed).sample(range(g.n), 2)
        pair = TreePairCorrelation(g, x, y)
        assert pair.path[0] == x and pair.path[-1] == y and len(set(pair.path)) == len(pair.path)
        assert all(g.weight(a, b) + g.weight(b, a) > 0 for a, b in zip(pair.path, pair.path[1:]))
        assert _by_parent(pair._elim) == _by_parent(reference_elimination(g, pair.path))
        done = set()
        for v, p, _, _ in pair._elim:
            assert p not in done
            done.add(v)
