import math

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import chi2, chisquare

from lepart import (
    Bottleneck,
    CommunityStar,
    Cycle,
    LepartError,
    ParameterError,
    Path,
    Star,
    WeightedDigraph,
    bottleneck_quantities,
    enumerate_forests,
    expected_root_count,
    hitting_prob,
    make_family,
    mc_correlation,
    mc_event,
    mc_root_count,
    roots_marginal,
    star_quantities,
    sweep,
    tree_correlation,
)
from lepart.checks import _chi_square_p
from lepart.estimators import (
    CorrelationQuery,
    RootQuery,
    closed_form_correlation,
    detect_layers_experiment,
    exact_route,
    poisson_binomial_pmf,
)
from lepart.wilson import ROOT
from oracles import per_forest


def test_reproducibility_bit_identical():
    g = make_family(Star(6, 0.5))
    a = mc_correlation(g, 1.0, 0, 1, 500, 42)
    b = mc_correlation(g, 1.0, 0, 1, 500, 42)
    assert a == b
    c = mc_correlation(g, 1.0, 0, 1, 500, 43)
    assert c != a


def test_single_replica_is_indicator():
    g = make_family(Path(3))
    s = mc_correlation(g, 1.0, 0, 2, 1, 7)
    assert s.estimate in (0.0, 1.0)
    assert s.stderr == 0.0
    with pytest.raises(ParameterError):
        mc_correlation(g, 1.0, 0, 2, 0, 7)
    with pytest.raises(ParameterError):
        mc_correlation(g, 1.0, 2, 2, 10, 7)


def test_mc_correlation_path2():
    g = make_family(Path(2))
    stats = mc_correlation(g, 2.0, 0, 1, 40_000, 11)
    assert abs(stats.estimate - 0.5) < 4 * stats.stderr
    assert stats.stderr == pytest.approx(math.sqrt(stats.estimate * (1 - stats.estimate) / 40_000))


def test_mc_correlation_star_leaves():
    n = 50
    g = make_family(Star(n, 1.0))
    want = star_quantities(n, 1.0, 1.0).leaf_leaf
    stats = mc_correlation(g, 1.0, 1, 2, 40_000, 13)
    assert abs(stats.estimate - want) < 4 * max(stats.stderr, 1e-4)


def test_mc_event_root_and_edge_probabilities():
    g = make_family(Path(5))
    stats = mc_event(g, 1.0, per_forest(lambda f: f.parent[2] == ROOT), 40_000, 3)
    want = roots_marginal(g, 1.0, (2,))
    assert abs(stats.estimate - want) < 4 * max(stats.stderr, 1e-4)
    # P(specific directed edge) via contraction ratio
    from lepart import brute_event, enumerate_forests

    g3 = make_family(Path(3))
    want_edge = brute_event(enumerate_forests(g3), 1.0, per_forest(lambda f: f.parent[0] == 1))
    stats_e = mc_event(g3, 1.0, per_forest(lambda f: f.parent[0] == 1), 40_000, 5)
    assert abs(stats_e.estimate - want_edge) < 4 * max(stats_e.stderr, 1e-4)


def test_mc_event_killing_dominates():
    g = make_family(Cycle(5))
    stats = mc_event(g, 1e9, per_forest(lambda f: f.root_count == 5), 1000, 9)
    assert stats.estimate > 0.999


@pytest.mark.parametrize("family", [Star(6, 0.5), Bottleneck(3, 3, 0.5)], ids=["tree-sampler", "wilson"])
def test_mc_event_row_predicates_count_the_adapters_hits(family, monkeypatch):
    """A row predicate counts exactly the forests its per-forest form selects, block by block."""
    from lepart import estimators

    g = make_family(family)
    monkeypatch.setattr(estimators, "BLOCK_ENTRIES", 97 * g.n)  # blocks of 97 replicas
    events = [
        (lambda nxt, roots: nxt[:, 0] == ROOT, lambda f: f.parent[0] == ROOT),
        (lambda nxt, roots: roots[:, 1] == roots[:, 4], lambda f: f.root_of(1) == f.root_of(4)),
        (lambda nxt, roots: (nxt == ROOT).sum(1) == 2, lambda f: f.root_count == 2),
        (lambda nxt, roots: nxt[:, 1] == 0, lambda f: f.parent[1] == 0),
    ]
    for row, pred in events:
        got, want = mc_event(g, 0.7, row, 1000, 29), mc_event(g, 0.7, per_forest(pred), 1000, 29)
        assert got == want and 0 < got.successes < 1000


def test_doubling_replicas_consistent():
    g = make_family(Path(4))
    a = mc_correlation(g, 1.0, 0, 3, 20_000, 21)
    b = mc_correlation(g, 1.0, 0, 3, 40_000, 21)
    sigma = math.sqrt(a.stderr**2 + b.stderr**2)
    assert abs(a.estimate - b.estimate) < 5 * sigma


# -- root count --------------------------------------------------------------


def test_poisson_binomial_pmf():
    assert poisson_binomial_pmf([]) == pytest.approx([1.0])
    assert poisson_binomial_pmf([0.5, 0.5]) == pytest.approx([0.25, 0.5, 0.25])
    pmf = poisson_binomial_pmf([0.2, 0.7, 0.9])
    assert pmf.sum() == pytest.approx(1.0)


def test_mc_root_count_single_vertex():
    g = WeightedDigraph(1, ())
    fit = mc_root_count(g, 1.0, 200, 3)
    assert fit.counts[1] == 200
    assert fit.p_value == 1.0


def test_mc_root_count_path5():
    g = make_family(Path(5))
    fit = mc_root_count(g, 1.0, 30_000, 17)
    assert fit.p_value > 0.001
    mean_exact = expected_root_count(g, 1.0)
    sd = math.sqrt(sum(p * (1 - p) for p in 1.0 / (1.0 + np.array([0, 0.381966, 1.381966, 2.618034, 3.618034]))))
    assert abs(fit.mean - mean_exact) < 4 * sd / math.sqrt(30_000)


def test_mc_root_count_needs_a_replica():
    with pytest.raises(ParameterError):
        mc_root_count(make_family(Path(3)), 1.0, 0, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: roots_marginal(g, 0.5, [2.5]),
        lambda g: tree_correlation(g, 0.5, 3, 0.7),
        lambda g: hitting_prob(g, 0.5, 3, 0.7),
        lambda g: mc_correlation(g, 0.7, 0.5, 3, 10, 1),
        lambda g: exact_route(g, 1, "3"),
        lambda g: sweep(g, [0.7], [RootQuery("r", (np.float64(2.0),))], 10, 1),
    ],
    ids=["roots_marginal", "tree_correlation", "hitting_prob", "mc_correlation", "exact_correlation", "sweep"],
)
def test_non_integer_vertex_ids_raise_parameter_error(call):
    with pytest.raises(ParameterError, match="not an integer"):
        call(make_family(Path(5)))


def test_numpy_integer_vertex_ids_are_accepted():
    g = make_family(Path(5))
    assert mc_correlation(g, 0.7, np.int64(1), np.int32(3), 50, 1) == mc_correlation(g, 0.7, 1, 3, 50, 1)
    assert roots_marginal(g, 0.5, np.array([2])) == roots_marginal(g, 0.5, [2])


SEEDED_CALLS = {
    "mc_correlation": lambda g, seed: mc_correlation(g, 0.5, 0, 3, 40, seed),
    "mc_event": lambda g, seed: mc_event(g, 0.5, lambda nxt, roots: roots[:, 0] == roots[:, 3], 40, seed),
    "sweep": lambda g, seed: sweep(g, [0.5, 2.0], [CorrelationQuery("c", 0, 3)], 40, seed).rows,
}


@pytest.mark.parametrize("seed", [np.int64(3), 3.0], ids=["int64", "float"])
@pytest.mark.parametrize("call", SEEDED_CALLS.values(), ids=SEEDED_CALLS)
@pytest.mark.parametrize("family", [Path(6), Cycle(6)], ids=["path6", "cycle6"])
def test_a_seed_is_any_integer_and_nothing_else(family, call, seed):
    """A numpy integer seed gives the rows of the Python int, on the tree sampler and on Wilson's; a float raises."""
    g = make_family(family)
    if isinstance(seed, float):
        with pytest.raises(ParameterError, match="integer seed"):
            call(g, seed)
    else:
        assert call(g, seed) == call(g, int(seed))


def test_out_of_range_vertices():
    g = make_family(Path(5))
    for x, y in ((0, 9), (-1, 2)):
        with pytest.raises(ParameterError):
            mc_correlation(g, 1.0, x, y, 10, 1)
        with pytest.raises(ParameterError):
            sweep(g, [1.0], [CorrelationQuery("c", x, y)], 0, 1)
        with pytest.raises(ParameterError):
            exact_route(g, x, y)
    with pytest.raises(ParameterError):
        sweep(g, [1.0], [RootQuery("r", (9,))], 0, 1)
    for family, x, y in ((Star(20), 0, 30), (Path(5), -1, 2), (CommunityStar(6, 2, 0.5), 1, 6), (Bottleneck(3, 2, 1.0), 0, 5)):
        with pytest.raises(ParameterError):
            closed_form_correlation(family, x, y, 1.0)
    # x == y is rejected by every family and every route
    for family, v in ((Star(20), 3), (CommunityStar(20, 5, 0.5), 2), (Bottleneck(10, 5, 0.5), 0), (Path(6), 2)):
        g = make_family(family)
        with pytest.raises(ParameterError, match="distinct"):
            closed_form_correlation(family, v, v, 1.0)
        for method in ("auto", "enum", "tree", "closed", "mc"):
            with pytest.raises(ParameterError, match="distinct"):
                exact_route(g, v, v, family, method)
        with pytest.raises(ParameterError, match="distinct"):
            sweep(family, [1.0], [CorrelationQuery("c", v, v)], 0, 1)


def test_mc_root_count_rejects_directed():
    g = WeightedDigraph(2, ((0, 1, 1.0),))
    with pytest.raises(ParameterError):
        mc_root_count(g, 1.0, 100, 1)


# -- sweeps ------------------------------------------------------------------


def test_sweep_empty_queries():
    table = sweep(make_family(Path(4)), [0.5, 1.0], [], 0, 1)
    assert table.rows == ()
    assert table.to_csv().strip() == table.CSV_HEADER


def test_sweep_grid_validation():
    with pytest.raises(ParameterError):
        sweep(make_family(Path(4)), [1.0, 0.5], [CorrelationQuery("x", 0, 1)], 0, 1)
    with pytest.raises(ParameterError):
        sweep(make_family(Path(4)), [-1.0, 0.5], [CorrelationQuery("x", 0, 1)], 0, 1)
    with pytest.raises(ParameterError):
        sweep(make_family(Path(4)), [0.5, math.inf], [CorrelationQuery("x", 0, 1)], 0, 1)
    with pytest.raises(ParameterError):
        sweep(make_family(Path(4)), [0.5, 1.0], [CorrelationQuery("x", 0, 1)], -3, 1)


def test_sweep_exact_dispatch():
    # n <= 8: enumeration; tree: tree-exact; family: closed form
    t1 = sweep(make_family(Path(5)), [1.0], [CorrelationQuery("c", 0, 4)], 0, 1)
    assert t1.rows[0].exact == pytest.approx(tree_correlation(make_family(Path(5)), 0, 4, 1.0), abs=1e-10)
    t2 = sweep(make_family(Star(40)), [1.0], [CorrelationQuery("c", 1, 2)], 0, 1)
    assert t2.rows[0].exact == pytest.approx(star_quantities(40, 1.0, 1.0).leaf_leaf, rel=1e-9)
    t3 = sweep(Bottleneck(20, 10, 1.0), [1.0], [CorrelationQuery("c", 0, 20)], 0, 1)
    assert t3.rows[0].exact == pytest.approx(bottleneck_quantities(20, 10, 1.0, 1.0).bridge, rel=1e-9)
    # a built graph with its spec takes the same closed form; the spec is given once
    built = make_family(Bottleneck(20, 10, 1.0))
    assert sweep(built, [1.0], [CorrelationQuery("c", 0, 20)], 0, 1, family=Bottleneck(20, 10, 1.0)) == t3
    with pytest.raises(ParameterError, match="not both"):
        sweep(Bottleneck(20, 10, 1.0), [1.0], [CorrelationQuery("c", 0, 20)], 0, 1, family=Bottleneck(20, 10, 1.0))
    # no exact method: non-tree, non-family, n > 8 pair off the bridge
    t4 = sweep(make_family(Bottleneck(20, 10, 1.0)), [1.0], [CorrelationQuery("c", 1, 21)], 0, 1)
    assert t4.rows[0].exact is None


def test_sweep_enumerates_once_and_builds_one_sampler_per_q(monkeypatch):
    from lepart import enumeration, estimators

    g = make_family(Bottleneck(5, 3, 1.0))
    qs, pairs = [0.5, 1.0, 2.0], [(0, y) for y in range(1, 8)]
    queries = [CorrelationQuery(f"0-{y}", x, y) for x, y in pairs]
    want = [(q, exact_route(g, x, y).at(q)) for q in qs for x, y in pairs]
    forests = len(enumerate_forests(g))
    calls = {"enumerate_forests": 0, "forest_sampler": 0}
    for name in calls:
        def counted(*args, fn=getattr(estimators, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(estimators, name, counted)
    reduced = []  # rows of the ensemble that pointer jumping reduced
    monkeypatch.setattr(enumeration, "_roots", lambda nxt, fn=enumeration._roots: reduced.append(len(nxt)) or fn(nxt))
    table = sweep(g, qs, queries, 0, 3)
    assert [(row.q, row.exact) for row in table.rows] == want
    assert calls == {"enumerate_forests": 1, "forest_sampler": 0}
    assert sum(reduced) == forests  # one pass over the ensemble serves all 7 pairs
    table = sweep(g, qs, queries, 20, 3)
    assert [(row.q, row.exact) for row in table.rows] == want
    assert calls == {"enumerate_forests": 2, "forest_sampler": len(qs)}
    assert sum(reduced) == 2 * forests
    for row, (x, y) in zip(table.rows, pairs * len(qs)):
        assert row.estimate == mc_correlation(g, row.q, x, y, 20, row.seed).estimate


def test_sweep_computes_the_ensemble_masses_once_per_q(monkeypatch):
    from lepart import enumeration

    g = make_family(Bottleneck(5, 3, 1.0))
    qs, pairs = [0.5, 1.0, 2.0], [(0, y) for y in range(1, 8)]
    ens = enumerate_forests(g)
    want = []  # every row's probability from its own mass vector, as each call once computed it
    for q in qs:
        masses = ens.weights * q ** ens.root_counts.astype(float)
        for x, y in pairs:
            want.append(float(masses[ens.roots[:, x] != ens.roots[:, y]].sum() / masses.sum()))
    calls = []
    monkeypatch.setattr(
        enumeration.ForestEnsemble, "masses", lambda self, q, fn=enumeration.ForestEnsemble.masses: calls.append(q) or fn(self, q)
    )
    table = sweep(g, qs, [CorrelationQuery(f"0-{y}", x, y) for x, y in pairs], 0, 3)
    assert [row.exact for row in table.rows] == want
    assert calls == qs


def test_sweep_mc_columns_and_csv():
    table = sweep(make_family(Path(5)), [0.5, 1.0], [CorrelationQuery("ends", 0, 4), RootQuery("mid", (2,))], 5000, 9)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "q,tag,exact,estimate,stderr,R,seed"
    assert len(lines) == 1 + 4
    for row in table.rows:
        assert row.exact is not None and row.estimate is not None
        assert abs(row.estimate - row.exact) < 4 * max(row.stderr, 1e-3)
    # distinct rows use distinct replica streams
    assert len({row.seed for row in table.rows}) == 4


def test_sweep_community_star_crossing():
    n, k = 200, 3
    spec = CommunityStar(n, k, 1.0 / n)
    alphas = np.arange(-1.5, 1.5001, 0.25)
    grid = [float(n**a) for a in alphas]
    table = sweep(spec, grid, [CorrelationQuery("center-v1", 0, 1)], 0, 1)
    by_alpha = {round(a, 2): row.exact for a, row in zip(alphas, table.rows)}
    assert by_alpha[-0.25] < 0.5 < by_alpha[0.25]
    assert by_alpha[0.0] == pytest.approx((k + 3) / (2 * k + 8), abs=0.05)


def test_sweep_bottleneck_transition():
    n, m, w = 400, 20, 1.0
    grid = list(np.logspace(-4, 1, 26))
    table = sweep(Bottleneck(n, m, w), grid, [CorrelationQuery("bridge", 0, n)], 0, 1)
    vals = [row.exact for row in table.rows]
    assert vals[0] < 0.01 and vals[-1] > 0.95
    crossings = [(a, b) for (a, ua), (b, ub) in zip(zip(grid, vals), zip(grid[1:], vals[1:])) if ua <= 0.5 <= ub]
    assert len(crossings) == 1
    lo, hi = crossings[0]
    assert lo / 3 <= w / m <= hi * 3


# -- layer detection ------------------------------------------------------------


def test_detect_layers_thresholds():
    grid = list(np.logspace(-4, 4, 33))
    table, crossings = detect_layers_experiment(3, 3, (1.0, 10.0, 100.0), grid, 0, 5)
    assert {row.tag for row in table.rows} == {"gen1", "gen2", "gen3"}
    gen1 = next(c for c in crossings if c.generation == 1)
    assert gen1.distance_to_leaves == 2
    assert gen1.threshold == pytest.approx(1.0 / 9.0)
    assert gen1.q_half is not None
    assert gen1.threshold / 10 < gen1.q_half < gen1.threshold * 10


def test_detect_layers_star_degenerate():
    # d=2, h=1 is the 3-vertex star; crossing matches the closed form sqrt(3)
    grid = list(np.logspace(-3, 3, 25))
    _, crossings = detect_layers_experiment(2, 1, (1.0,), grid, 0, 5)
    q = crossings[0].q_half
    assert q == pytest.approx(math.sqrt(3.0), rel=1e-6)
    # closed form: center-leaf separation of the unit star on 3 vertices is 1/2 there
    assert star_quantities(3, 1.0, q).center_leaf == pytest.approx(0.5, abs=1e-9)


def test_detect_layers_grid_below_threshold():
    table, crossings = detect_layers_experiment(3, 2, (1.0, 10.0), [1e-7, 1e-6, 1e-5], 0, 5)
    assert all(c.q_half is None for c in crossings)
    assert all(row.exact < 0.5 for row in table.rows)


# -- exact dispatch helper -------------------------------------------------------


def test_exact_correlation_dispatch():
    g8 = make_family(Path(8))
    assert exact_route(g8, 0, 7).method == "enum"
    g9 = make_family(Path(9))
    assert exact_route(g9, 0, 8).at(1.0) == pytest.approx(tree_correlation(g9, 0, 8, 1.0))
    cyc = make_family(Cycle(12))
    assert exact_route(cyc, 0, 6) is None


def test_exact_route_order_and_forced_methods():
    star8, star40 = Star(8, 0.5), Star(40, 0.5)
    assert exact_route(make_family(star8), 1, 2, star8).method == "enum"
    assert exact_route(make_family(star40), 1, 2, star40).method == "tree"
    b = Bottleneck(10, 5, 0.5)
    gb = make_family(b)
    bridge = exact_route(gb, 10, 0, b)
    assert bridge.method == "closed"
    assert bridge.at(0.7) == bottleneck_quantities(10, 5, 0.5, 0.7).bridge
    assert exact_route(gb, 1, 11, b) is None
    assert exact_route(gb, 0, 10, b, "mc") is None
    # a forced route answers with its own method, or raises when it does not apply
    g = make_family(star40)
    tree = exact_route(g, 0, 7, star40, "tree")
    closed = exact_route(g, 0, 7, star40, "closed")
    assert (tree.method, closed.method) == ("tree", "closed")
    for q in (1e-3, 0.4, 1.0, 30.0):
        assert tree.at(q) == pytest.approx(closed.at(q), rel=1e-12)
        assert tree.at(q) == exact_route(g, 0, 7).at(q)
    small = make_family(Path(6))
    assert exact_route(small, 0, 5, None, "tree").at(0.3) == pytest.approx(
        exact_route(small, 0, 5).at(0.3), rel=1e-12
    )
    with pytest.raises(LepartError):
        exact_route(g, 0, 7, star40, "enum")  # n > 8
    with pytest.raises(LepartError):
        exact_route(gb, 0, 10, b, "tree")  # not a tree
    with pytest.raises(ParameterError):
        exact_route(gb, 1, 11, b, "closed")  # off the bridge
    with pytest.raises(ParameterError):
        exact_route(g, 0, 7, star40, "det")


def test_chdtrc_equals_chi2_sf():
    for dof in (1, 2, 3, 7, 40, 500):
        for stat in (0.0, 1e-12, 0.3, 1.0, 3.84, 12.5, 80.0, 1e3):
            assert chdtrc(dof, stat) == chi2.sf(stat, dof), (dof, stat)


def test_mc_root_count_p_value_is_chi2_sf():
    fit = mc_root_count(make_family(Path(5)), 1.0, 30_000, 17)
    assert fit.p_value == float(chi2.sf(fit.chi_square, fit.dof))


def test_pearson_p_value_equals_chisquare():
    rng = np.random.default_rng(5)
    for k in (2, 3, 9, 40):
        probs = rng.dirichlet(np.ones(k))
        counts = rng.multinomial(2000, probs).astype(float)
        assert _chi_square_p(counts, probs * 2000) == float(chisquare(counts, probs * 2000)[1])
    exact = np.array([3.0, 5.0, 2.0])  # statistic 0
    assert _chi_square_p(exact, exact) == float(chisquare(exact, exact)[1]) == 1.0
    counts, expected = np.array([10.0, 10.0]), np.array([10.0, 11.0])
    with pytest.raises(ValueError):
        chisquare(counts, expected)
    with pytest.raises(ValueError):
        _chi_square_p(counts, expected)
