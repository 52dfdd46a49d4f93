"""The exact top-down tree sampler and the selector that routes trees to it."""

import hashlib
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
from oracles import asymmetric_trees, oracle_forests, tree_pair_separation, tree_pivots


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
    index = {f.parent: i for i, f in enumerate(oracle_forests(ens))}
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


def per_vertex_rows(g: WeightedDigraph, q: float, u: np.ndarray) -> list[list[int]]:
    """The reference: each replica vertex by vertex in breadth-first order, in Python floats.

    v's draw x picks a root below q, its parent from s_v up, and otherwise
    the child that ``bisect_right`` finds among the pivots v reaches as its
    children are eliminated (:func:`oracles.tree_pivots`).
    """
    order, parent, up, _ = leaf_first(g, 0)
    order, parent, up = order.tolist(), parent.tolist(), up.tolist()
    s, bound = tree_pivots(g, q, 0)
    children: dict[int, tuple[list[float], list[int]]] = {}
    for c, b in zip(order[:0:-1], bound):  # tree_pivots steps through order backwards, without the root
        bounds, kids = children.setdefault(parent[c], ([], []))
        bounds.append(b)
        kids.append(c)
    rows = []
    for row in u.tolist():
        nxt = [ROOT] * g.n
        for v, x in zip(order, row):
            p = parent[v]
            x *= s[v] if p != ROOT and nxt[p] == v else s[v] + up[v]
            if x >= s[v]:
                nxt[v] = p
            elif x >= q:
                bounds, kids = children[v]
                nxt[v] = kids[bisect_right(bounds, x)]
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
    assert rows.tolist() == per_vertex_rows(g, q, tree_uniforms(5, 0, 300, g.n))


@settings(max_examples=60, deadline=None)
@given(asymmetric_trees(), st.floats(1e-3, 10.0), st.integers(0, 2**64 - 1))
def test_draw_matches_the_per_vertex_loop_on_one_way_edges(g, q, seed):
    # a child whose only edge points to its parent has a zero-width interval
    rows = TreeSampler(g, q).draw(seed, 0, 200)
    assert rows.tolist() == per_vertex_rows(g, q, tree_uniforms(seed, 0, 200, g.n))


def test_draws_on_interval_ends_pick_as_bisect_right_does(monkeypatch):
    """Draws that land exactly on q, on a pivot or on s pick what ``bisect_right`` picks.

    Vertex 1 is the centre of a star on leaves 2..9 and hangs from vertex 0,
    weights 1 in the star, w(0, 1) = 2, w(1, 0) = 4 and q = 1. Leaves 5 and 9
    only point to the centre, so their intervals have zero width, and the
    centre's pivots are the binary fractions 1, 1.5, 2, 2.5, 2.5, 3, 3.5, 4
    (leaves 9..2); s_0 = 2. So every draw below is exact: the centre's
    draws run through its pivots, blocked (s = 4) and free (s + w(1, 0) = 8).
    """
    star = [(1, c, 1.0) for c in range(2, 10) if c not in (5, 9)] + [(c, 1, 1.0) for c in range(2, 10)]
    g = WeightedDigraph(10, [(0, 1, 2.0), (1, 0, 4.0), *star])
    ends = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
    # vertex 0 picks the centre at U = 0.75 only; each leaf's free draw is exactly its s = 1
    u = np.array([[0.75, x / 4, *[0.5] * 8] for x in ends] + [[0.25, x / 8, *[0.5] * 8] for x in ends])
    monkeypatch.setattr(wilson, "tree_uniforms", lambda seed, start, stop, n: u)
    rows = TreeSampler(g, 1.0).draw(0, 0, len(u)).tolist()
    assert [row[:2] for row in rows] == [[1, c] for c in (8, 7, 6, 4, 3, 2)] + [[ROOT, c] for c in (8, 7, 6, 4, 3, 2)]
    assert rows == per_vertex_rows(g, 1.0, u)


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


PIVOT_TREES = [
    make_family(spec)
    for spec in (Path(2), Path(30), Star(12, 2.0), HierarchicalTree(3, 3, (1.0, 2.0, 4.0)), HierarchicalTree(2, 4, (1.0, 10.0, 100.0, 1e3)))
] + [random_tree(seed, 12, True) for seed in range(4)]


@pytest.mark.parametrize("g", PIVOT_TREES)
@pytest.mark.parametrize("q", [1e-12, 0.05, 1.0, 20.0])
def test_pivots_match_the_plain_loop(g, q):
    s, bound = tree_pivots(g, q, 0)
    sampler = TreeSampler(g, q)
    order = sampler._order.tolist()
    assert sampler._s.tolist() == [s[v] for v in order]
    lo, hi, above = sampler._lo.tolist(), sampler._hi.tolist(), sampler._above.tolist()
    assert hi[:0:-1] == bound  # position i > 0 is eliminated at step n - 1 - i
    assert not lo[0] < hi[0]  # the root's interval is empty
    # each vertex's child intervals, in elimination order, tile [q, s_p)
    for p in range(g.n):
        kids = [i for i in range(g.n - 1, 0, -1) if above[i] == p]
        if kids:
            assert [lo[i] for i in kids] == [q] + [hi[i] for i in kids[:-1]]
            assert hi[kids[-1]] == s[order[p]]
    rng = Random(g.n)
    for x, y in [(0, g.n - 1)] + [tuple(rng.sample(range(g.n), 2)) for _ in range(4)]:
        assert TreePairCorrelation(g, x, y).at(q) == tree_pair_separation(g, x, y, q)
