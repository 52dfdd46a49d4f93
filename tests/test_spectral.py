import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from lepart import (
    Bottleneck,
    Complete,
    Cycle,
    ParameterError,
    Path,
    Star,
    StructureError,
    WeightedDigraph,
    brute_correlation,
    brute_event,
    brute_z,
    enumerate_forests,
    expected_root_count,
    green_kernel,
    hitting_prob,
    laplacian,
    laplacian_spectrum,
    make_family,
    partition_function,
    path_correlation,
    roots_marginal,
    tree_correlation,
    tree_correlation_adjacent,
    tree_correlation_profile,
    undirected,
)
from lepart.graphs import contract_edge, delete_edge
from lepart.spectral import TreePairCorrelation
from lepart.wilson import ROOT

TINY = [Path(2), Path(4), Cycle(3), Star(4), Complete(4)]
QS = (0.1, 1.0, 10.0)


def random_weighted_tree(n: int, rng: random.Random) -> WeightedDigraph:
    pairs = []
    for v in range(1, n):
        u = rng.randrange(v)
        w = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
        pairs.append((u, v, w))
    return undirected(n, pairs)


# -- partition function ---------------------------------------------------


def test_partition_function_examples():
    assert partition_function(make_family(Path(1)), 2.0).to_float() == pytest.approx(2.0)
    assert partition_function(make_family(Path(3)), 1.0).to_float() == pytest.approx(8.0)
    # star: q (q+w)^{n-2} (q+nw) at n=4, w=1, q=1
    assert partition_function(make_family(Star(4)), 1.0).to_float() == pytest.approx(20.0)
    with pytest.raises(ParameterError):
        partition_function(make_family(Path(3)), -1.0)
    with pytest.raises(ParameterError):
        partition_function(make_family(Path(3)), math.inf)


@pytest.mark.parametrize("fam", TINY, ids=str)
@pytest.mark.parametrize("q", QS)
def test_partition_function_matches_enumeration(fam, q):
    g = make_family(fam)
    ens = enumerate_forests(g)
    assert partition_function(g, q).to_float() == pytest.approx(brute_z(ens, q), rel=1e-10)


# -- Green kernel ----------------------------------------------------------


def test_green_kernel_single_vertex():
    g = WeightedDigraph(1, ())
    for q in QS:
        assert green_kernel(g, q).matrix == pytest.approx(np.ones((1, 1)))


def test_green_kernel_path2():
    K = green_kernel(make_family(Path(2)), 2.0).matrix
    assert K == pytest.approx(np.array([[0.75, 0.25], [0.25, 0.75]]))


@pytest.mark.parametrize("fam", TINY + [Bottleneck(3, 3, 2.0), Star(6, 0.3)], ids=str)
@pytest.mark.parametrize("q", QS)
def test_green_kernel_invariants(fam, q):
    g = make_family(fam)
    K = green_kernel(g, q)
    M = q * np.eye(g.n) - laplacian(g)
    assert np.abs(M @ K.matrix / q - np.eye(g.n)).max() < 1e-9
    assert np.abs(K.matrix.sum(axis=1) - 1.0).max() < 1e-9
    assert K.matrix.min() >= -1e-12 and K.matrix.max() <= 1 + 1e-12


def test_roots_marginal_examples():
    assert roots_marginal(green_kernel(WeightedDigraph(1, ()), 3.0), (0,)) == pytest.approx(1.0)
    K = green_kernel(make_family(Path(2)), 2.0)
    assert roots_marginal(K, (0,)) == pytest.approx(0.75)
    assert roots_marginal(K, (0, 1)) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        roots_marginal(K, ())


@pytest.mark.parametrize("fam", TINY, ids=str)
@pytest.mark.parametrize("q", QS)
def test_roots_marginal_matches_enumeration(fam, q):
    g = make_family(fam)
    ens = enumerate_forests(g)
    K = green_kernel(g, q)
    for v in range(g.n):
        want = brute_event(ens, q, lambda f, v=v: f.parent[v] == ROOT)
        assert roots_marginal(K, (v,)) == pytest.approx(want, abs=1e-10)


# -- spectrum ------------------------------------------------------------------


def test_spectrum_examples():
    assert laplacian_spectrum(make_family(Path(2))) == pytest.approx([0.0, 2.0])
    assert laplacian_spectrum(make_family(Complete(3))) == pytest.approx([0.0, 3.0, 3.0])
    n = 9
    want = np.sort(2 - 2 * np.cos(np.pi * (n - np.arange(1, n + 1)) / n))
    assert laplacian_spectrum(make_family(Path(n))) == pytest.approx(want)


@pytest.mark.parametrize("fam", [Path(6), Cycle(5), Bottleneck(3, 4, 0.5)], ids=str)
def test_connected_undirected_has_single_zero_eigenvalue(fam):
    lam = laplacian_spectrum(make_family(fam))
    assert abs(lam[0]) < 1e-9
    assert lam[1] > 1e-9


def test_expected_root_count():
    assert expected_root_count(WeightedDigraph(1, ()), 0.5) == pytest.approx(1.0)
    g = make_family(Path(2))
    assert expected_root_count(g, 2.0) == pytest.approx(1.5)
    assert expected_root_count(g, 2.0) == pytest.approx(np.trace(green_kernel(g, 2.0).matrix))
    for fam in TINY:
        gg = make_family(fam)
        assert expected_root_count(gg, 1e6) == pytest.approx(gg.n, abs=1e-3)
        qs = np.logspace(-3, 3, 20)
        vals = [expected_root_count(gg, float(q)) for q in qs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("fam", TINY, ids=str)
@pytest.mark.parametrize("q", QS)
def test_trace_identity(fam, q):
    g = make_family(fam)
    tr = float(np.trace(green_kernel(g, q).matrix))
    assert tr == pytest.approx(expected_root_count(g, q), rel=1e-9)


# -- hitting probabilities ------------------------------------------------------


def test_hitting_prob_path2():
    g = make_family(Path(2))
    for q in QS:
        assert hitting_prob(g, 0, 1, q) == pytest.approx(1 / (1 + q))


def test_hitting_prob_no_route():
    g = WeightedDigraph(2, ((0, 1, 1.0),))
    assert hitting_prob(g, 1, 0, 1.0) == 0.0


def test_hitting_prob_small_killing():
    g = make_family(Cycle(5))
    assert hitting_prob(g, 0, 3, 1e-9) == pytest.approx(1.0, abs=1e-6)


# -- adjacent-pair correlation --------------------------------------------------


def test_adjacent_examples():
    g = make_family(Path(2))
    for q in QS:
        assert tree_correlation_adjacent(g, 0, 1, q) == pytest.approx(q / (q + 2))
    assert tree_correlation_adjacent(g, 0, 1, 1e9) == pytest.approx(1.0, abs=1e-6)
    # star center-leaf: q(q+(n-1)w)/((q+w)(q+nw)) at n=4, w=1, q=1
    assert tree_correlation_adjacent(make_family(Star(4)), 0, 1, 1.0) == pytest.approx(0.4)


def test_adjacent_errors():
    with pytest.raises(StructureError):
        tree_correlation_adjacent(make_family(Cycle(3)), 0, 1, 1.0)
    with pytest.raises(ParameterError):
        tree_correlation_adjacent(make_family(Path(3)), 0, 2, 1.0)


# -- exact tree correlation ---------------------------------------------------


def test_tree_correlation_examples():
    g2 = make_family(Path(2))
    for q in QS + (1e-12,):  # full relative precision where the probability is tiny
        assert tree_correlation(g2, 0, 1, q) == pytest.approx(q / (q + 2), rel=1e-12)
    # star leaves: q(q^2+(n+2)wq+2(n-1)w^2)/((q+w)^2(q+nw))
    n, w, q = 5, 0.7, 1.3
    want = q * (q * q + (n + 2) * w * q + 2 * (n - 1) * w * w) / ((q + w) ** 2 * (q + n * w))
    assert tree_correlation(make_family(Star(n, w)), 1, 2, q) == pytest.approx(want, rel=1e-12)


def test_tree_correlation_vs_enumeration_path4():
    g = make_family(Path(4))
    ens = enumerate_forests(g)
    assert tree_correlation(g, 0, 3, 1.0) == pytest.approx(brute_correlation(ens, 1.0, 0, 3), abs=1e-10)


def test_tree_correlation_errors():
    with pytest.raises(StructureError):
        tree_correlation(make_family(Cycle(4)), 0, 2, 1.0)
    with pytest.raises(ParameterError):
        tree_correlation(make_family(Path(3)), 1, 1, 1.0)
    with pytest.raises(ParameterError):
        tree_correlation(make_family(Path(3)), 0, 3, 1.0)  # vertex out of range
    with pytest.raises(ParameterError):
        TreePairCorrelation(make_family(Path(3)), 0, 2).at(math.inf)


def test_tree_correlation_long_path_exact():
    pair = TreePairCorrelation(make_family(Path(40)), 0, 39)
    assert pair.d == 39
    for q in (1e-4, 1e-2, 1.0, 100.0):
        assert abs(pair.at(q) - path_correlation(40, 1, 40, q)) <= 1e-12


def _separation_by_slogdet(g: WeightedDigraph, path: list[int], q: float) -> float:
    """1 - P(same tree) as the d+1-term sum, every determinant by dense LU.

    Term k: z_k's whole piece is free, every other path vertex z_j is fixed
    to point toward z_k, which deletes its row and column from its piece.
    """
    d = len(path) - 1
    on_path = set(path)
    adj = [set(g.out[v]) | {u for u in range(g.n) if v in g.out[u]} for v in range(g.n)]
    pieces = []
    for z in path:
        block, stack = {z}, [z]
        while stack:
            for u in adj[stack.pop()] - block - on_path:
                block.add(u)
                stack.append(u)
        pieces.append(sorted(block))
    L = laplacian(g)

    def logdet(rows: list[int], piece: list[int]) -> float:
        if not rows:
            return 0.0
        inside = np.array(piece)
        M = -L[np.ix_(rows, rows)]
        # within its piece a vertex keeps only its in-piece out-weight
        M[np.diag_indices(len(rows))] = q + np.array([L[v, inside].sum() - L[v, v] for v in rows])
        sign, value = np.linalg.slogdet(M)
        assert sign > 0
        return float(value)

    log_a = [logdet([v for v in pieces[j] if v != path[j]], pieces[j]) for j in range(d + 1)]
    log_b = [logdet(pieces[j], pieces[j]) for j in range(d + 1)]
    terms = []
    for k in range(d + 1):
        t = log_b[k] + sum(log_a[j] for j in range(d + 1) if j != k)
        t += sum(math.log(g.weight(path[j], path[j + 1])) for j in range(k))
        t += sum(math.log(g.weight(path[j], path[j - 1])) for j in range(k + 1, d + 1))
        terms.append(t)
    sign, log_z = np.linalg.slogdet(q * np.eye(g.n) - L)
    assert sign > 0
    return -math.expm1(float(logsumexp(terms)) - float(log_z))


def test_tree_pair_matches_slogdet_sum_on_random_trees():
    rng = random.Random(20261018)
    beyond_30 = 0
    for _ in range(40):
        n = rng.randrange(2, 61)
        spine = rng.random() < 0.5  # a long spine gives pairs more than 30 edges apart
        edges, end = [], 0
        for v in range(1, n):
            if spine and rng.random() < 0.8:
                u, end = end, v
            else:
                u = rng.randrange(v)
            edges.append((u, v, math.exp(rng.uniform(-3.0, 3.0))))
            edges.append((v, u, math.exp(rng.uniform(-3.0, 3.0))))
        g = WeightedDigraph(n, tuple(edges))
        x, y = (0, end) if spine and end else rng.sample(range(n), 2)
        pair = TreePairCorrelation(g, x, y)
        beyond_30 += pair.d > 30
        for q in (1e-3, 0.2, 5.0, 1e3):
            want = _separation_by_slogdet(g, pair.path, q)
            assert pair.at(q) == pytest.approx(want, rel=1e-9, abs=1e-12), (n, x, y, q)
    assert beyond_30 >= 3, beyond_30


def test_tree_correlation_one_way_edges_vs_enumeration():
    # a tree edge may exist in one direction only; some pairs can then never share a tree
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(2, 8)
        edges = []
        for v in range(1, n):
            u, kind = rng.randrange(v), rng.randrange(3)
            if kind != 1:
                edges.append((u, v, math.exp(rng.uniform(-2.0, 2.0))))
            if kind != 0:
                edges.append((v, u, math.exp(rng.uniform(-2.0, 2.0))))
        g = WeightedDigraph(n, tuple(edges))
        x, y = rng.sample(range(n), 2)
        pair, ens = TreePairCorrelation(g, x, y), enumerate_forests(g)
        for q in (0.01, 1.0, 50.0):
            assert abs(pair.at(q) - brute_correlation(ens, q, x, y)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 16), st.randoms(use_true_random=False))
def test_adjacent_agreement_on_random_trees(n, pyrng):
    rng = random.Random(pyrng.random())
    g = random_weighted_tree(n, rng)
    x = rng.randrange(n)
    nbrs = sorted(g.out[x])
    y = rng.choice(nbrs)
    for q in (0.3, 3.0):
        a = tree_correlation_adjacent(g, x, y, q)
        b = tree_correlation(g, x, y, q)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(4, 8), st.randoms(use_true_random=False))
def test_tree_correlation_vs_enumeration_random(n, pyrng):
    rng = random.Random(pyrng.random())
    g = random_weighted_tree(n, rng)
    ens = enumerate_forests(g)
    x, y = rng.sample(range(n), 2)
    for q in (0.5, 2.0):
        assert tree_correlation(g, x, y, q) == pytest.approx(brute_correlation(ens, q, x, y), abs=1e-9)


def test_profile_is_vectorized_and_monotone_smoke():
    g = random_weighted_tree(12, random.Random(5))
    qs = np.logspace(-6, 6, 40)
    us = tree_correlation_profile(g, 0, 11, qs)
    assert us.shape == (40,)
    assert all(b >= a - 1e-12 for a, b in zip(us, us[1:]))


# -- deletion-contraction and edge probabilities -------------------------------


@pytest.mark.parametrize(
    "g",
    [
        make_family(Path(3)),
        make_family(Cycle(3)),
        make_family(Star(4, 2.0)),
        make_family(Complete(4)),
        WeightedDigraph(4, ((0, 1, 0.5), (1, 0, 2.0), (1, 2, 1.0), (2, 3, 0.7), (3, 1, 1.3), (0, 2, 0.2))),
    ],
    ids=["path3", "cycle3", "star4w2", "k4", "digraph"],
)
@pytest.mark.parametrize("q", (0.5, 2.0))
def test_deletion_contraction_identity(g, q):
    ens = enumerate_forests(g)
    Z = brute_z(ens, q)
    for x, y, w in g.edges:
        Zd = brute_z(enumerate_forests(delete_edge(g, x, y)), q)
        gc, _ = contract_edge(g, x, y)
        Zc = brute_z(enumerate_forests(gc), q)
        assert Z == pytest.approx(Zd + w * Zc, rel=1e-10)


@pytest.mark.parametrize("fam", [Path(3), Cycle(3), Star(4, 2.0)], ids=str)
@pytest.mark.parametrize("q", (0.5, 2.0))
def test_edge_probability_expressions(fam, q):
    g = make_family(fam)
    ens = enumerate_forests(g)
    Z = brute_z(ens, q)
    K = np.linalg.inv(q * np.eye(g.n) - laplacian(g))
    for x, y, w in g.edges:
        p_edge = brute_event(ens, q, lambda f, x=x, y=y: f.parent[x] == y)
        assert p_edge == pytest.approx(w * (K[x, x] - K[y, x]), abs=1e-10)
        gc, _ = contract_edge(g, x, y)
        assert p_edge == pytest.approx(w * brute_z(enumerate_forests(gc), q) / Z, abs=1e-10)
        assert p_edge <= w / (q + w) + 1e-12
