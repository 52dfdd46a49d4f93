import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgetrs
from scipy.special import logsumexp

from lepart import (
    Bottleneck,
    CommunityStar,
    Complete,
    Cycle,
    HierarchicalTree,
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
    undirected,
    z_path,
)
from lepart.estimators import closed_form_z
from lepart.graphs import contract_edge, delete_edge, is_tree
from lepart import spectral
from lepart.errors import NumericError
from lepart.spectral import DENSE_SHARE, TreePairCorrelation, _transposed
from lepart.wilson import ROOT
from oracles import adjacent_separation, per_forest, reference_dense_factor, reference_factor, reference_system

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


def random_digraph(rng: random.Random) -> WeightedDigraph:
    """Up to 60 vertices; every ordered pair is an edge on its own, with its own
    weight, so pairs come joined both ways with unequal weights, one way, or not."""
    n = rng.randint(1, 60)
    p = rng.uniform(0.02, 0.3)
    edges = [(x, y, math.exp(rng.uniform(-3.0, 3.0))) for x in range(n) for y in range(n) if x != y and rng.random() < p]
    return WeightedDigraph(n, edges)


def test_sparse_routes_match_dense_linear_algebra():
    """Sparse LU log-det, hitting probabilities and root marginals against dense LU.

    At q = 1e-9 both routes lose digits to cancellation in the last pivots,
    so the bound adds eps * c(M), with c(M) = n + 2 tr(M^{-1} N) the
    componentwise condition number of log det M for M = D - N (first order
    in a backward error |dM| <= eps |M|; M^{-1} >= 0 for an M-matrix).
    """
    eps = np.finfo(float).eps
    for seed in range(40):
        rng = random.Random(seed)
        g = random_digraph(rng)
        for q in (1e-9, 1e-3, 1.0, 1e3):
            M = q * np.eye(g.n) - laplacian(g)
            sign, dense = np.linalg.slogdet(M)
            assert sign == 1
            tol = 1e-9
            if q < 1e-3:
                N = np.diag(np.diag(M)) - M
                tol += eps * (g.n + 2 * np.trace(np.linalg.solve(M, N)))
            assert abs(partition_function(g, q).log() - dense) <= tol
            if g.n >= 2 and q >= 1e-3:
                x, y = rng.sample(range(g.n), 2)
                others = [v for v in range(g.n) if v != y]
                h = np.linalg.solve(M[np.ix_(others, others)], -M[others, y])
                assert hitting_prob(g, x, y, q) == pytest.approx(h[others.index(x)], abs=1e-9)
                K = green_kernel(g, q)
                for A in ([x], sorted([x, y])):
                    want = np.linalg.det(K[np.ix_(A, A)])
                    assert roots_marginal(g, q, A) == pytest.approx(want, abs=1e-9)


UNDIRECTED_SYSTEMS = [
    Path(1), Path(2), Path(40), Cycle(3), Cycle(31), Star(2, 0.3), Star(12, 0.5), CommunityStar(20, 6, 0.1),
    HierarchicalTree(2, 3, (0.5, 1.0, 4.0)), Bottleneck(1, 1, 0.5), Bottleneck(5, 3, 0.2), Bottleneck(20, 4, 2.0),
    Complete(1), Complete(2), Complete(7), Complete(60),
]  # fmt: skip


def _takes_dense_route(g: WeightedDigraph) -> bool:
    return len(g.indices) + g.n >= DENSE_SHARE * g.n**2


@pytest.mark.parametrize("fam", UNDIRECTED_SYSTEMS, ids=str)
def test_factored_matrix_is_the_sparse_algebra_one_on_undirected_graphs(fam):
    """The factored matrix is qI - L itself, and every value equals by ``==`` that of the reference
    factors of the route ``_factor`` takes: SuperLU's, or LAPACK's dense LU."""
    g = make_family(fam)
    for q in (1e-9, 1e-3, 0.7, 20.0):
        got, want = _transposed(g, q), reference_system(g, q)
        assert got.data.tobytes() == want.data.tobytes()
        assert np.array_equal(got.indices, want.indices) and np.array_equal(got.indptr, want.indptr)
        if _takes_dense_route(g):
            lu, piv = reference_dense_factor(g, q)
            pivots, solve = lu.diagonal(), lambda rhs: dgetrs(lu, piv, rhs, trans=1)[0]
        else:
            lu = reference_factor(g, q)
            pivots, solve = lu.U.diagonal(), lu.solve
        assert float(np.sum(np.log(spectral._factor(g, q)[0]))) == float(np.sum(np.log(pivots)))
        if g.n >= 2:
            x, y = 0, g.n - 1
            rhs = np.zeros(g.n)
            rhs[y] = 1.0
            column = solve(rhs)
            assert hitting_prob(g, x, y, q) == float(column[x] / column[y])
            A = sorted({0, g.n // 2, g.n - 1})
            rhs = np.zeros((g.n, len(A)))
            rhs[A, range(len(A))] = q
            assert roots_marginal(g, q, A) == float(np.linalg.det(solve(rhs)[A]))


def _values_by_route(g: WeightedDigraph, q: float, share: float, monkeypatch) -> list[float]:
    """``_factor``'s log det, a hitting probability and a root marginal, with ``DENSE_SHARE`` set to ``share``."""
    monkeypatch.setattr(spectral, "DENSE_SHARE", share)
    values = [float(np.sum(np.log(spectral._factor(g, q)[0])))]
    if g.n >= 2:
        values += [hitting_prob(g, 0, g.n - 1, q), roots_marginal(g, q, sorted({0, g.n // 2, g.n - 1}))]
    return values


def test_dense_and_sparse_routes_agree(monkeypatch):
    """Both routes of ``_factor``, each forced, agree within 1e-12 (relative to log Z, absolute for
    the probabilities), on the undirected families and on digraphs."""
    graphs = [make_family(fam) for fam in UNDIRECTED_SYSTEMS] + [random_digraph(random.Random(seed)) for seed in range(40)]
    for g in graphs:
        for q in (1e-3, 0.7, 20.0):
            dense = _values_by_route(g, q, 0.0, monkeypatch)
            sparse = _values_by_route(g, q, math.inf, monkeypatch)
            for a, b in zip(dense, sparse):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (g, q, dense, sparse)


#: The benchmark's graph families (perfbench/workloads.py): its trees of at least 200 vertices and
#: its cycles, which SuperLU factors faster than dense LU, and its cliques, which it factors slower.
_SPARSE_FAMILIES = (
    [Path(n) for n in (200, 250, 300, 450, 600, 800, 1000, 1100, 1500, 2000, 3000, 5000)]
    + [Cycle(n) for n in (300, 450, 600, 800, 1000, 1200)]
    + [Star(n, 0.5) for n in (200, 400)]
    + [CommunityStar(n, k, w) for n, k, w in (
        (200, 40, 0.5), (300, 90, 2.0), (400, 150, 0.1), (200, 70, 2.0), (300, 30, 0.1), (400, 120, 0.5),
        (200, 60, 0.1), (250, 100, 1.0), (200, 25, 0.01), (250, 50, 0.1))]
    + [HierarchicalTree(d, h, (1.0,) * h) for d, h in ((2, 7), (2, 8), (3, 5), (4, 4))]
)  # fmt: skip
_DENSE_FAMILIES = (
    [Complete(n) for n in (80, 110, 140, 170, 200, 230)]
    + [Bottleneck(n, m, w) for n, m, w in (
        (100, 10, 0.5), (120, 20, 1.0), (140, 30, 0.2), (160, 20, 0.5), (180, 40, 1.0), (200, 10, 0.2),
        (80, 8, 0.2), (100, 10, 0.5), (120, 12, 1.0), (200, 20, 1.0))]
    + [Bottleneck(max(2, round(0.6 * n)), max(2, n - max(2, round(0.6 * n))), 0.5) for n in (6, 8, 16, 24, 40)]
)  # fmt: skip


@pytest.mark.parametrize("fam, dense", [(f, False) for f in _SPARSE_FAMILIES] + [(f, True) for f in _DENSE_FAMILIES], ids=str)
def test_factor_route_follows_the_share_of_nonzeros(fam, dense, monkeypatch):
    """``_factor`` calls LAPACK's dgetrf on the benchmark's cliques and SuperLU on its trees and cycles;
    ``partition_function`` factors the cliques and cycles, and on the trees calls neither."""
    from scipy.linalg import lapack
    from scipy.sparse import linalg
    called = []
    for module, name in ((lapack, "dgetrf"), (linalg, "splu")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=original, name=name, **k: called.append(name) or f(*a, **k))
    g = make_family(fam)
    spectral._factor(g, 0.5)
    assert called == (["dgetrf"] if dense else ["splu"])
    partition_function(g, 0.5)
    assert called == (["dgetrf"] if dense else ["splu"]) * (1 if is_tree(g) else 2)


_TRIANGLE = [(0, 1, 0.1), (1, 2, 0.1), (0, 2, 0.5)]
_K30 = make_family(Complete(30))


@pytest.mark.parametrize(
    "g, everywhere",
    [
        pytest.param(make_family(Complete(4)), True, id="complete4"),
        pytest.param(_K30, True, id="complete30"),
        pytest.param(undirected(3, _TRIANGLE), True, id="triangle"),
        pytest.param(WeightedDigraph.from_arrays(31, _K30._rows, _K30.indices, _K30.weights), False, id="complete30+isolated"),
        pytest.param(undirected(4, _TRIANGLE), False, id="triangle+isolated"),
    ],
)
def test_factor_raises_below_the_rounding_of_the_weights(g, everywhere, monkeypatch):
    """At q = 1e-17 and 1e-20, q + W(v) rounds to W(v) on every vertex of the first three graphs, so
    ``_factor`` raises its rounding error before either route factors. An isolated vertex keeps q on
    its diagonal, so the last two graphs are factored, and each route, forced, raises from its own
    checks on the singular block -L: dense LU on a pivot that is not positive or a row swap, and
    SuperLU on an exactly singular factor or a pivot that is not positive. None returns a log of
    rounding error."""
    for share in (0.0, math.inf):
        monkeypatch.setattr(spectral, "DENSE_SHARE", share)
        for q in (1e-17, 1e-20):
            for call in (lambda: partition_function(g, q), lambda: hitting_prob(g, 0, 1, q)):
                with pytest.raises(NumericError) as err:
                    call()
                message = str(err.value)
                assert ("lost to rounding in every q + W(v)" in message) is everywhere
                assert everywhere or ("dense LU" if share == 0.0 else "sparse LU") in message


@pytest.mark.parametrize("fam", UNDIRECTED_SYSTEMS + [Complete(230), Bottleneck(200, 10, 0.2), Bottleneck(180, 40, 1.0)], ids=str)
def test_dense_route_factors_the_sparse_algebra_matrix(fam, monkeypatch):
    """The matrix that dgetrf receives is the transpose of ``reference_system(g, q)``, byte for byte,
    and so every zero is +0.0, with the dense route forced on every graph; on digraphs too, where
    qI - L is not symmetric."""
    from scipy.linalg import lapack
    factored = []
    dgetrf = lapack.dgetrf
    monkeypatch.setattr(lapack, "dgetrf", lambda a, **k: factored.append(np.array(a.T)) or dgetrf(a, **k))
    monkeypatch.setattr(spectral, "DENSE_SHARE", 0.0)
    rng = random.Random(str(fam))
    for g in (make_family(fam), random_digraph(rng), random_digraph(rng)):
        for q in (1e-9, 0.36, 2.8):
            spectral._factor(g, q)
            M = factored.pop()
            assert M.tobytes() == reference_system(g, q).toarray().tobytes()
            assert not np.signbit(M[M == 0.0]).any()


@pytest.mark.parametrize("q", [1e-20, 1e-300])
@pytest.mark.parametrize("fam", [Complete(300), Complete(4), Bottleneck(20, 4, 2.0), Cycle(1000), Path(40)], ids=str)
def test_factor_raises_when_q_rounds_away_from_every_weight(fam, q, monkeypatch):
    """When every q + W(v) rounds to W(v), the stored matrix is -L, which is singular: both routes
    raise NumericError before they factor, so log Z, hitting probabilities and root marginals do.
    On a tree, log Z comes from the pivots, which never form q + W(v), and matches the closed form."""
    from scipy.linalg import lapack
    from scipy.sparse import linalg
    for module, name in ((lapack, "dgetrf"), (linalg, "splu")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} was called"))
    g = make_family(fam)
    assert np.array_equal(q + g.out_weight, g.out_weight)
    if is_tree(g):
        assert partition_function(g, q).log() == pytest.approx(closed_form_z(fam, q).log(), rel=1e-14)
    else:
        with pytest.raises(NumericError, match="rounding"):
            partition_function(g, q)
    for call in (
        lambda: hitting_prob(g, 0, 1, q),
        lambda: roots_marginal(g, q, [0]),
    ):
        with pytest.raises(NumericError, match="rounding"):
            call()


def test_factor_answers_when_q_survives_in_one_diagonal_entry():
    """A vertex with no out-edges keeps q on its diagonal: it is a sink, and qI - L is nonsingular."""
    g = WeightedDigraph(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)])  # vertex 2 has W = 0
    q = 1e-20
    assert not np.array_equal(q + g.out_weight, g.out_weight)
    assert partition_function(g, q).log() == pytest.approx(math.log(q * 1.0 * 1.0), rel=1e-12)


def test_factored_matrix_is_the_transpose_on_digraphs():
    """With one-way edges and unequal weights each way, SuperLU gets (qI - L)^T, entry for entry."""
    one_way = 0
    for seed in range(40):
        g = random_digraph(random.Random(seed))
        one_way += not g.is_symmetric
        for q in (1e-9, 1.0):
            got, want = _transposed(g, q), reference_system(g, q)
            assert got.has_sorted_indices
            assert got.toarray().tobytes() == want.T.toarray().tobytes()
    assert one_way >= 30


def test_partition_function_path_beyond_dense_reach():
    n = 10**5  # a dense n x n matrix would take 80 GB
    g = make_family(Path(n))
    for q in (1e-3, 0.01, 1.0, 1e3):
        assert abs(partition_function(g, q).log() - z_path(n, q).log()) <= 1e-9


def _relabelled_tree(seed: int, n: int) -> WeightedDigraph:
    """A random tree in random labels, each edge one way or both, with weights drawn per direction."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        for a, b in rng.choice([((u, v),), ((v, u),), ((u, v), (v, u))]):
            edges.append((label[a], label[b], math.exp(rng.uniform(-3.0, 3.0))))
    return WeightedDigraph(n, edges)


_TREE_FAMILIES = [Path(1), Path(2), Path(40), Path(2000), Star(12, 0.5), CommunityStar(20, 6, 0.1), HierarchicalTree(2, 3, (0.5, 1.0, 4.0))]


def test_tree_log_z_from_the_pivots_matches_lu():
    """On trees, log Z comes from the pivots, and at q >= 1e-3 it is within 1e-12 of LU's log det
    (relative to |log Z| beyond 1), on the families and on trees with one-way edges, unequal
    weights and labels in no breadth-first order."""
    trees = [make_family(fam) for fam in _TREE_FAMILIES] + [_relabelled_tree(seed, 2 + seed) for seed in range(30)]
    for g in trees:
        assert is_tree(g)
        for q in (1e-3, 0.7, 20.0):
            lu = float(np.sum(np.log(spectral._factor(g, q)[0])))
            assert abs(partition_function(g, q).log() - lu) <= 1e-12 * max(1.0, abs(lu)), (g, q)


def test_tree_log_z_keeps_its_digits_at_small_q():
    """At q = 1e-9 and 1e-12 the pivots keep log Z of the tree families within 1e-12 of their closed
    forms; LU, which subtracts, is off by up to 8.9e-5 there."""
    for fam in (Path(2), Path(30), Path(2000), Star(12, 0.5), CommunityStar(20, 6, 0.1)):
        for q in (1e-12, 1e-9):
            assert abs(partition_function(make_family(fam), q).log() - closed_form_z(fam, q).log()) <= 1e-12, (fam, q)


# -- Green kernel ----------------------------------------------------------


def test_green_kernel_single_vertex():
    g = WeightedDigraph(1, ())
    for q in QS:
        assert green_kernel(g, q) == pytest.approx(np.ones((1, 1)))


def test_green_kernel_path2():
    K = green_kernel(make_family(Path(2)), 2.0)
    assert K == pytest.approx(np.array([[0.75, 0.25], [0.25, 0.75]]))


@pytest.mark.parametrize("fam", TINY + [Bottleneck(3, 3, 2.0), Star(6, 0.3)], ids=str)
@pytest.mark.parametrize("q", QS)
def test_green_kernel_invariants(fam, q):
    g = make_family(fam)
    K = green_kernel(g, q)
    M = q * np.eye(g.n) - laplacian(g)
    assert np.abs(M @ K / q - np.eye(g.n)).max() < 1e-9
    assert np.abs(K.sum(axis=1) - 1.0).max() < 1e-9
    assert K.min() >= -1e-12 and K.max() <= 1 + 1e-12


def test_roots_marginal_examples():
    assert roots_marginal(WeightedDigraph(1, ()), 3.0, (0,)) == pytest.approx(1.0)
    g = make_family(Path(2))
    assert roots_marginal(g, 2.0, (0,)) == pytest.approx(0.75)
    assert roots_marginal(g, 2.0, (0, 1)) == pytest.approx(0.5)
    for vertices in ((), (-1,), (7,), (0, 2)):
        with pytest.raises(ParameterError):
            roots_marginal(g, 2.0, vertices)


@pytest.mark.parametrize("fam", TINY, ids=str)
@pytest.mark.parametrize("q", QS)
def test_roots_marginal_matches_enumeration(fam, q):
    g = make_family(fam)
    ens = enumerate_forests(g)
    for v in range(g.n):
        want = brute_event(ens, q, per_forest(lambda f, v=v: f.parent[v] == ROOT))
        assert roots_marginal(g, q, (v,)) == pytest.approx(want, abs=1e-10)


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
    assert expected_root_count(g, 2.0) == pytest.approx(np.trace(green_kernel(g, 2.0)))
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
    tr = float(np.trace(green_kernel(g, q)))
    assert tr == pytest.approx(expected_root_count(g, q), rel=1e-9)


# -- hitting probabilities ------------------------------------------------------


def test_hitting_prob_path2():
    g = make_family(Path(2))
    for q in QS:
        assert hitting_prob(g, 0, 1, q) == pytest.approx(1 / (1 + q))


def test_hitting_prob_no_route():
    g = WeightedDigraph(2, ((0, 1, 1.0),))
    assert hitting_prob(g, 1, 0, 1.0) == 0.0


def test_hitting_prob_out_of_range():
    g = make_family(Path(5))
    for x, y in ((0, 9), (9, 0), (-1, 2)):
        with pytest.raises(ParameterError):
            hitting_prob(g, x, y, 1.0)


def test_hitting_prob_small_killing():
    g = make_family(Cycle(5))
    assert hitting_prob(g, 0, 3, 1e-9) == pytest.approx(1.0, abs=1e-6)


# -- adjacent-pair correlation --------------------------------------------------


def test_adjacent_examples():
    g = make_family(Path(2))
    for q in QS:
        assert tree_correlation(g, 0, 1, q) == pytest.approx(q / (q + 2))
    for q in (1e-12, 1e-9):  # full relative precision where the probability is tiny
        assert tree_correlation(g, 0, 1, q) == pytest.approx(q / (q + 2), rel=1e-12, abs=0)
    assert tree_correlation(g, 0, 1, 1e9) == pytest.approx(1.0, abs=1e-6)
    # star center-leaf: q(q+(n-1)w)/((q+w)(q+nw)) at n=4, w=1, q=1
    assert tree_correlation(make_family(Star(4)), 0, 1, 1.0) == pytest.approx(0.4)


def test_adjacent_errors():
    with pytest.raises(StructureError):
        tree_correlation(make_family(Cycle(3)), 0, 1, 1.0)
    with pytest.raises(ParameterError):
        tree_correlation(make_family(Path(5)), 0, 9, 1.0)


# -- exact tree correlation ---------------------------------------------------


def test_tree_correlation_examples():
    g2 = make_family(Path(2))
    for q in QS + (1e-12,):  # full relative precision where the probability is tiny
        assert tree_correlation(g2, 0, 1, q) == pytest.approx(q / (q + 2), rel=1e-12, abs=0)
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


def test_tree_correlation_overflow_is_nan_not_zero():
    # pivots overflow to inf; the [0, 1] clamp must not turn the nan into 0
    g = make_family(Star(40, 1e300))
    with pytest.warns(RuntimeWarning):
        assert math.isnan(tree_correlation(g, 1, 2, 1e300))


def test_tree_correlation_long_path_exact():
    pair = TreePairCorrelation(make_family(Path(40)), 0, 39)
    assert pair.d == 39
    for q in (1e-4, 1e-2, 1.0, 100.0):
        assert abs(pair.at(q) - path_correlation(40, 1, 40, q)) <= 1e-12


@pytest.mark.parametrize("q", [1e-200, 1e-300])
def test_tree_correlation_keeps_its_relative_precision_where_q_squared_underflows(q):
    # the separation is about q, and sigma * P(sep) about q^2, which is 0 in floats below q = 1e-154
    for n, x, y in ((2, 0, 1), (3, 0, 2), (10, 0, 9), (40, 3, 20), (200, 5, 150)):
        want = path_correlation(n, x + 1, y + 1, q)
        assert 0 < want < 1e6 * q
        assert abs(TreePairCorrelation(make_family(Path(n)), x, y).at(q) - want) <= 1e-12 * want, (n, x, y)


def _separation_by_slogdet(g: WeightedDigraph, path: list[int], q: float) -> float:
    """1 - P(same tree) as the d+1-term sum, every determinant by dense LU.

    Term k: z_k's whole piece is free, every other path vertex z_j is fixed
    to point toward z_k, which deletes its row and column from its piece.
    """
    d = len(path) - 1
    on_path = set(path)
    adj = [set() for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
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
    nbrs = [v for u, v, _ in g.edges if u == x]
    y = rng.choice(nbrs)
    for q in (0.3, 3.0):
        a = adjacent_separation(g, x, y, q)
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
    pair = TreePairCorrelation(g, 0, 11)
    us = [pair.at(float(q)) for q in qs]
    assert len(us) == 40
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
        p_edge = brute_event(ens, q, per_forest(lambda f, x=x, y=y: f.parent[x] == y))
        assert p_edge == pytest.approx(w * (K[x, x] - K[y, x]), abs=1e-10)
        gc, _ = contract_edge(g, x, y)
        assert p_edge == pytest.approx(w * brute_z(enumerate_forests(gc), q) / Z, abs=1e-10)
        assert p_edge <= w / (q + w) + 1e-12
