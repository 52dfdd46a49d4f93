"""The exact top-down tree sampler and the selector that routes trees to it."""

import hashlib
import math
from bisect import bisect_right
from random import Random

import numpy as np
import pytest
from scipy.stats import chisquare

from lepart import (
    Bottleneck,
    CommunityStar,
    Cycle,
    HierarchicalTree,
    ParameterError,
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
from lepart import estimators, wilson
from lepart.graphs import is_tree, leaf_first
from lepart.spectral import TreePairCorrelation
from lepart.wilson import ForestSampler, RootedForest, TreeSampler, forest_sampler, tree_uniforms


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
    for row in sampler.draw(seed, 0, replicas).tolist():
        counts[index[tuple(row)]] += 1
    small = expected < 5
    obs, exp = counts[~small], expected[~small]
    if small.any():
        obs, exp = np.append(obs, counts[small].sum()), np.append(exp, expected[small].sum())
    return float(chisquare(obs, exp)[1])


LAW_CASES = [
    (make_family(Path(4)), 0.7),
    (make_family(Star(5, 2.0)), 0.3),
    (make_family(HierarchicalTree(2, 2, (1.0, 3.0))), 1.1),
] + [(random_tree(seed, n, one_way), q) for seed, n, one_way, q in (
    (1, 5, False, 0.4),
    (2, 6, False, 1.5),
    (3, 7, False, 0.2),
    (4, 5, True, 0.8),
    (5, 6, True, 0.3),
    (6, 7, True, 2.0),
)]


@pytest.mark.parametrize(
    "g, q", LAW_CASES, ids=["path4", "star5", "hier22", "sym5", "sym6", "sym7", "oneway5", "oneway6", "oneway7"]
)
def test_tree_sampler_law_against_enumeration(g, q):
    assert is_tree(g)
    assert chi_square_p(g, q, 20_000, 23) > 0.001


def test_root_marginals_match_green_kernel_minors():
    g = make_family(HierarchicalTree(2, 3, (1.0, 2.0, 4.0)))
    q, R = 0.5, 20_000
    sampler = forest_sampler(g, q)
    assert isinstance(sampler, TreeSampler)
    roots = sampler.draw(8, 0, R) == ROOT
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
    assert all(sampler.sample(seed).parent == (ROOT,) for seed in range(5))
    assert sampler.draw(3, 0, 4).tolist() == [[ROOT]] * 4


def python_uniform(seed: int, r: int, i: int) -> float:
    """U[r, i] by the definition, in Python integers: SplitMix64 of SplitMix64, top 53 bits."""
    return (split_seed(split_seed(seed, r), i) >> 11) / 2**53


@pytest.mark.parametrize("seed", [0, 42, -7, 2**64 - 1, 2**70 + 5])
def test_uniforms_match_a_python_splitmix64(seed):
    u = tree_uniforms(seed, 5, 12, 9)
    assert u.shape == (7, 9) and u.dtype == np.float64
    assert u.tolist() == [[python_uniform(seed, r, i) for i in range(9)] for r in range(5, 12)]
    assert ((0 <= u) & (u < 1)).all()


@pytest.mark.parametrize("g", [make_family(Path(30)), make_family(Star(9, 0.5)), random_tree(9, 12, True)])
def test_one_uniform_per_vertex_and_valid_forests(g, monkeypatch):
    """A forest reads exactly U[r, 0..n-1]: the Python definition of those n uniforms gives the same rows."""
    sampler = TreeSampler(g, 0.2)
    drawn = sampler.draw(7, 0, 200)
    asked = []

    def reference(seed, start, stop, n):
        asked.append((seed, start, stop, n))
        return np.array([[python_uniform(seed, r, i) for i in range(n)] for r in range(start, stop)])

    monkeypatch.setattr(wilson, "tree_uniforms", reference)
    assert np.array_equal(sampler.draw(7, 0, 200), drawn)
    assert asked == [(7, 0, 200, g.n)]
    for row in drawn.tolist():
        RootedForest(tuple(row)).validate(g)
    assert sampler.sample(7) == RootedForest(tuple(drawn[0].tolist()))


def test_tree_sampler_takes_an_integer_seed():
    sampler = TreeSampler(make_family(Path(5)), 0.5)
    assert sampler.sample(np.int64(3)) == sampler.sample(3)
    with pytest.raises(ParameterError, match="integer seed"):
        sampler.sample(Random(3))


def test_wilson_rows_are_its_replica_streams():
    g = make_family(Bottleneck(5, 3, 0.5))
    sampler = ForestSampler(g, 0.4)
    rows = sampler.draw(11, 3, 40)
    assert rows.dtype == np.int64 and rows.shape == (37, g.n)
    assert rows.tolist() == [list(sampler.sample(Random(split_seed(11, r))).parent) for r in range(3, 40)]
    assert sampler.draw(11, 5, 5).shape == (0, g.n)


def per_vertex_rows(sampler: TreeSampler, u: np.ndarray) -> list[list[int]]:
    """The reference: each replica vertex by vertex in breadth-first order, in Python floats."""
    q, bound, child = sampler.q, sampler._bound.tolist(), sampler._child.tolist()
    columns = (sampler._order, sampler._parent, sampler._s, sampler._free, sampler._lo, sampler._last)
    plan = list(zip(*(c.tolist() for c in columns)))
    rows = []
    for row in u.tolist():
        nxt = [ROOT] * len(row)
        for (v, p, s, free, lo, last), x in zip(plan, row):
            x *= s if nxt[p] == v else free
            if x >= s:
                nxt[v] = p
            elif x >= q:
                nxt[v] = child[bisect_right(bound, x, lo, last + 1)]
        rows.append(nxt)
    return rows


#: The nine trees of the law test, the tree families of the mc_small benchmark workload, and a deep path.
ROUTE_CASES = LAW_CASES + [
    (make_family(spec), q)
    for spec in (Path(8), Path(40), Star(24, 0.5), CommunityStar(40, 10, 2.0), HierarchicalTree(3, 3, (1.0, 2.0, 4.0)))
    for q in (0.05, 1.0, 20.0)
] + [(make_family(Path(200)), 0.01)]


@pytest.mark.parametrize("g, q", ROUTE_CASES)
def test_draw_matches_the_per_vertex_loop(g, q):
    sampler = TreeSampler(g, q)
    rows = sampler.draw(5, 0, 300)
    assert rows.dtype == np.int64
    assert rows.tolist() == per_vertex_rows(sampler, tree_uniforms(5, 0, 300, g.n))


def test_rows_do_not_depend_on_the_split(monkeypatch):
    g = make_family(HierarchicalTree(3, 3, (1.0, 2.0, 4.0)))
    sampler = TreeSampler(g, 0.6)
    whole = sampler.draw(9, 0, 300)
    for cut in (1, 150, 299):
        assert np.array_equal(np.vstack([sampler.draw(9, 0, cut), sampler.draw(9, cut, 300)]), whole)
    # blocks of 7 replicas, so _run_replicas crosses 42 block boundaries
    monkeypatch.setattr(estimators, "BLOCK_ENTRIES", 7 * g.n)
    blocks = []
    assert estimators._run_replicas(sampler, 300, 9, lambda nxt: blocks.append(nxt) or len(nxt)) == 300
    assert [len(b) for b in blocks] == [7] * 42 + [6]
    assert np.array_equal(np.vstack(blocks), whole)


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
