import math

import numpy as np
import pytest

from lepart import (
    BULK_LIMIT,
    Bottleneck,
    CommunityStar,
    Cycle,
    ParameterError,
    Path,
    Star,
    bottleneck_limit,
    bottleneck_quantities,
    brute_correlation,
    community_star_center_limit,
    community_star_quantities,
    enumerate_forests,
    make_family,
    partition_function,
    path_asymptotic_limit,
    path_correlation,
    path_root_measures,
    path_rw_bounds,
    simple_rw_band_prob,
    star_limits,
    star_quantities,
    tree_correlation,
    z_cycle,
    z_path,
)
from lepart.closed_forms import path_interior_root_measure, simple_rw_tail_prob
from lepart.wilson import ROOT

METHODS = ("combinatorial", "spectral", "recurrence", "chebyshev", "closed")


# -- z_path -------------------------------------------------------------------


def test_z_path_known_values():
    for method in METHODS:
        assert z_path(1, 2.0, method).to_float() == pytest.approx(2.0)
        assert z_path(2, 1.5, method).to_float() == pytest.approx(1.5**2 + 3.0)
        assert z_path(5, 1.0, method).to_float() == pytest.approx(55.0)
        assert z_path(3, 2.0, method).to_float() == pytest.approx(30.0)  # 3q + 4q^2 + q^3


def test_z_path_sequence_at_q1():
    want = [1, 3, 8, 21, 55, 144]
    got = [z_path(n, 1.0, "recurrence").to_float() for n in range(1, 7)]
    assert got == pytest.approx(want)


def test_z_path_errors():
    with pytest.raises(ParameterError):
        z_path(0, 1.0)
    with pytest.raises(ParameterError):
        z_path(3, -1.0)
    with pytest.raises(ParameterError):
        z_path(3, math.inf)
    with pytest.raises(ParameterError):
        z_path(3, 1.0, "newton")
    with pytest.raises(ParameterError):
        z_path(10_001, 1.0, "spectral")


@pytest.mark.parametrize("q", (0.01, 0.1, 1.0, 10.0, 100.0))
def test_z_path_methods_agree_small(q):
    for n in range(1, 51):
        logs = [z_path(n, q, m).log() for m in METHODS]
        ref = logs[-1]
        for lg in logs:
            assert abs(lg - ref) <= 1e-9 * max(1.0, abs(ref))


@pytest.mark.parametrize("q", (0.01, 1.0, 100.0))
def test_z_path_recurrence_vs_closed_large(q):
    for n in (10**3, 10**4, 10**5):
        a = z_path(n, q, "recurrence").log()
        b = z_path(n, q, "closed").log()
        assert abs(a - b) <= 1e-6 * max(1.0, abs(b))


def test_z_path_matches_determinant():
    for n in (1, 2, 17, 120, 300):
        for q in (0.5, 2.0):
            det = partition_function(make_family(Path(n)), q).log()
            assert abs(z_path(n, q).log() - det) <= 1e-9 * max(1.0, abs(det))


# -- z_cycle ------------------------------------------------------------------


def test_z_cycle_known_values():
    assert z_cycle(3, 1.0, "path").to_float() == pytest.approx(16.0)
    assert z_cycle(3, 1.0, "combinatorial").to_float() == pytest.approx(16.0)
    assert z_cycle(4, 1.0, "path").to_float() == pytest.approx(45.0)
    assert z_cycle(4, 1.0, "combinatorial").to_float() == pytest.approx(45.0)
    with pytest.raises(ParameterError):
        z_cycle(2, 1.0)


def test_z_cycle_large_q_sane():
    a = z_cycle(3, 1e6, "path").log()
    b = z_cycle(3, 1e6, "combinatorial").log()
    assert math.isfinite(a)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


@pytest.mark.parametrize("q", (0.5, 2.0))
def test_z_cycle_vs_determinant(q):
    for n in (3, 4, 10, 47, 300):
        det = partition_function(make_family(Cycle(n)), q).log()
        for method in ("path", "combinatorial"):
            assert abs(z_cycle(n, q, method).log() - det) <= 1e-9 * max(1.0, abs(det))


# -- path correlation -----------------------------------------------------------


def test_path_correlation_examples():
    for q in (0.3, 1.0, 3.0):
        assert path_correlation(2, 1, 2, q) == pytest.approx(q / (q + 2), rel=1e-12)
    g4 = make_family(Path(4))
    ens = enumerate_forests(g4)
    assert path_correlation(4, 1, 3, 1.0) == pytest.approx(brute_correlation(ens, 1.0, 0, 2), abs=1e-10)
    with pytest.raises(ParameterError):
        path_correlation(4, 3, 3, 1.0)
    with pytest.raises(ParameterError):
        path_correlation(4, 1, 5, 1.0)


@pytest.mark.parametrize("q", (0.3, 1.0, 3.0))
def test_path_correlation_vs_tree_exact(q):
    for n in range(2, 13):
        g = make_family(Path(n))
        for x in range(n):
            for y in range(x + 1, n):
                a = path_correlation(n, x + 1, y + 1, q)
                b = tree_correlation(g, x, y, q)
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


# -- path root measures --------------------------------------------------------


def test_path_root_measures_closed_forms():
    for q in (0.5, 2.0):
        m2 = path_root_measures(2, q)
        z2 = q * q + 2 * q
        assert m2.boundary_root.to_float() / z2 == pytest.approx((q + 1) / (q + 2), rel=1e-12)
        assert m2.both_boundaries_root.to_float() / z2 == pytest.approx(q * q / z2, rel=1e-12)
    # center of the 3-path at q=1 roots with probability 1/2
    assert path_interior_root_measure(3, 1, 1.0).to_float() / 8.0 == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("n", (2, 3, 5))
@pytest.mark.parametrize("q", (0.5, 2.0))
def test_path_root_measures_vs_enumeration(n, q):
    ens = enumerate_forests(make_family(Path(n)))
    from lepart import brute_event, brute_z

    Z = brute_z(ens, q)
    meas = path_root_measures(n, q)
    assert brute_event(ens, q, lambda f: f.parent[0] == ROOT) == pytest.approx(
        meas.boundary_root.to_float() / Z, abs=1e-10
    )
    assert brute_event(ens, q, lambda f: f.parent[0] == ROOT and f.parent[n - 1] == ROOT) == pytest.approx(
        meas.both_boundaries_root.to_float() / Z, abs=1e-10
    )
    for v in range(n):
        d = min(v, n - 1 - v)
        assert brute_event(ens, q, lambda f, v=v: f.parent[v] == ROOT) == pytest.approx(
            path_interior_root_measure(n, d, q).to_float() / Z, abs=1e-10
        )


# -- random walk bands ----------------------------------------------------------


def test_band_prob_examples():
    assert simple_rw_band_prob(0, 5.0) == 1.0
    assert simple_rw_band_prob(1, 1.0) == 0.0
    assert simple_rw_band_prob(4, 3.0) == pytest.approx(7 / 8, abs=1e-12)
    assert simple_rw_tail_prob(4, 2.0) == pytest.approx(2 / 16, abs=1e-12)
    assert simple_rw_band_prob(101, 2.0) + simple_rw_tail_prob(101, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_rw_bounds_m1():
    # S_1 = +-1, so d >= 3 has full band mass and the lower bound is (q/(2+q))^2
    for q in (0.3, 1.0, 3.0):
        b = path_rw_bounds(3, q, 1)
        assert b.band_prob == 1.0
        assert b.lower == pytest.approx((q / (2 + q)) ** 2, rel=1e-12)


def test_rw_bounds_large_q_limits():
    b = path_rw_bounds(10, 1e12, 25)
    assert b.upper == pytest.approx(1.0, abs=1e-9)
    assert b.band_prob >= 0.5
    assert b.lower == pytest.approx((2 * simple_rw_band_prob(25, 5.0) - 1) ** 2, rel=1e-6)


def test_rw_bounds_inapplicable_lower():
    # long horizon at small width: band mass < 1/2, lower bound flagged off
    b = path_rw_bounds(5, 0.04, 625)
    assert b.lower is None and b.band_prob < 0.5
    u = path_correlation(5000, 2498, 2503, 0.04)
    assert u <= b.upper


@pytest.mark.parametrize("d", (2, 5, 10, 20))
def test_sandwich_on_grid(d):
    n = 100 * d
    x = (n - d) // 2
    y = x + d
    for q in np.logspace(-3, 0, 7):
        u = path_correlation(n, x, y, float(q))
        for m in (d * d, 4 * d * d):
            b = path_rw_bounds(d, float(q), m)
            assert u <= b.upper + 1e-12
            if b.lower is not None:
                assert b.lower <= u + 1e-12


# -- scaling limits ---------------------------------------------------------------


def test_regime_limits():
    assert path_asymptotic_limit("bulk").value == pytest.approx(1 - 3 / (2 * math.e))
    got = path_asymptotic_limit("boundary", alpha=1.0, delta=1.0).value
    assert got == pytest.approx(1 - 3 / (2 * math.e) - 0.5 / math.e)
    far = path_asymptotic_limit("boundary", alpha=50.0, delta=1.0).value
    assert far == pytest.approx(BULK_LIMIT, abs=1e-9)
    with pytest.raises(ParameterError):
        path_asymptotic_limit("boundary", alpha=0.5, delta=1.0)
    with pytest.raises(ParameterError):
        path_asymptotic_limit("edge")


# -- star ---------------------------------------------------------------------


def test_star_quantities_values():
    sq = star_quantities(3, 1.0, 1.0)
    assert sq.center_leaf == pytest.approx(3 / 8)
    sq4 = star_quantities(4, 1.0, 1.0)
    assert sq4.center_leaf == pytest.approx(0.4)
    assert sq4.z.to_float() == pytest.approx(20.0)


@pytest.mark.parametrize("n,w", [(5, 1.0), (8, 0.3), (12, 4.0)])
@pytest.mark.parametrize("q", (0.3, 1.0, 3.0))
def test_star_quantities_vs_tree_exact(n, w, q):
    g = make_family(Star(n, w))
    sq = star_quantities(n, w, q)
    assert sq.center_leaf == pytest.approx(tree_correlation(g, 0, 1, q), rel=1e-10)
    assert sq.leaf_leaf == pytest.approx(tree_correlation(g, 1, 2, q), rel=1e-10)
    assert sq.z.log() == pytest.approx(partition_function(g, q).log(), abs=1e-10)


def test_star_limits_table():
    assert star_limits(1.0, 0.0) == (1.0, 1.0)
    assert star_limits(0.0, 1.0) == (0.0, 0.0)
    c, l = star_limits(0.0, 0.0, 1.0, 1.0)
    assert c == pytest.approx(0.5) and l == pytest.approx(0.75)


@pytest.mark.parametrize("qbar,wbar", [(1.0, 1.0), (1.0, 2.0), (3.0, 0.5)])
def test_star_limits_match_finite_n(qbar, wbar):
    # alpha = beta = 0: q and w constant, n -> infinity
    sq = star_quantities(10**8, wbar, qbar)
    c, l = star_limits(0.0, 0.0, qbar, wbar)
    assert sq.center_leaf == pytest.approx(c, abs=1e-6)
    assert sq.leaf_leaf == pytest.approx(l, abs=1e-6)


# -- community star ---------------------------------------------------------------


@pytest.mark.parametrize("n,k,w", [(5, 2, 0.5), (7, 3, 2.0), (8, 1, 0.25), (6, 4, 1.5)])
@pytest.mark.parametrize("q", (0.3, 1.0, 3.0))
def test_community_star_vs_tree_exact(n, k, w, q):
    g = make_family(CommunityStar(n, k, w))
    cs = community_star_quantities(n, k, w, q)
    assert cs.z.log() == pytest.approx(partition_function(g, q).log(), abs=1e-10)
    assert cs.center_v1 == pytest.approx(tree_correlation(g, 0, 1, q), abs=1e-10)
    assert cs.center_vw == pytest.approx(tree_correlation(g, 0, k + 1, q), abs=1e-10)
    if k >= 2:
        assert cs.v1_v1 == pytest.approx(tree_correlation(g, 1, 2, q), abs=1e-10)
    assert cs.v1_vw == pytest.approx(tree_correlation(g, 1, k + 1, q), abs=1e-10)
    if k <= n - 3:
        assert cs.vw_vw == pytest.approx(tree_correlation(g, k + 1, k + 2, q), abs=1e-10)


def test_community_star_adjacent_cross_oracle():
    from lepart import tree_correlation_adjacent

    g = make_family(CommunityStar(5, 2, 0.5))
    cs = community_star_quantities(5, 2, 0.5, 1.0)
    assert cs.center_v1 == pytest.approx(tree_correlation_adjacent(g, 0, 1, 1.0), abs=1e-10)


def test_community_star_degenerations():
    for q in (0.5, 2.0):
        cs0 = community_star_quantities(6, 0, 0.7, q)
        st = star_quantities(6, 0.7, q)
        assert cs0.center_v1 is None and cs0.v1_v1 is None and cs0.v1_vw is None
        assert cs0.center_vw == pytest.approx(st.center_leaf, rel=1e-12)
        assert cs0.vw_vw == pytest.approx(st.leaf_leaf, rel=1e-12)
        csn = community_star_quantities(6, 5, 0.7, q)
        unit = star_quantities(6, 1.0, q)
        assert csn.center_vw is None and csn.vw_vw is None
        assert csn.center_v1 == pytest.approx(unit.center_leaf, rel=1e-12)
        assert csn.v1_v1 == pytest.approx(unit.leaf_leaf, rel=1e-12)


def test_community_star_limit_tables():
    k = 3
    lim = community_star_center_limit(-1.0, 0.0, k)
    assert (lim.center_v1, lim.center_vw) == (0.0, 0.0)
    lim = community_star_center_limit(1.0, 0.0, k)
    assert (lim.center_v1, lim.center_vw) == (1.0, 1.0)
    assert community_star_center_limit(0.0, -0.5, k).center_v1 == pytest.approx(0.5)
    assert community_star_center_limit(0.0, -1.0, k).center_v1 == pytest.approx((k + 3) / (2 * k + 8))
    assert community_star_center_limit(0.0, -2.0, k).center_v1 == pytest.approx((k + 1) / (2 * k + 4))
    assert community_star_center_limit(0.0, 0.0, k).center_vw == pytest.approx(0.5)


def test_community_star_limit_matches_finite_n():
    # alpha=0, beta=-1, k fixed: finite-n value approaches (k+3)/(2k+8)
    k = 3
    for n in (10**3, 10**5, 10**7):
        cs = community_star_quantities(n, k, 1.0 / n, 1.0)
        err = abs(cs.center_v1 - (k + 3) / (2 * k + 8))
        assert err < 10 / n


# -- bottleneck --------------------------------------------------------------------


def test_bottleneck_z_reduces_to_path4():
    for q in (0.3, 1.0, 3.0):
        assert bottleneck_quantities(2, 2, 1.0, q).z.log() == pytest.approx(z_path(4, q).log(), abs=1e-12)
        # expanded coefficients: q^4 + 6q^3 + 10q^2 + 4q
        want = q**4 + 6 * q**3 + 10 * q**2 + 4 * q
        assert bottleneck_quantities(2, 2, 1.0, q).z.to_float() == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 6), (6, 2)])
@pytest.mark.parametrize("w", (0.1, 1.0, 10.0))
@pytest.mark.parametrize("q", (0.5, 2.0))
def test_bottleneck_z_vs_determinant(n, m, w, q):
    g = make_family(Bottleneck(n, m, w))
    got = bottleneck_quantities(n, m, w, q).z.log()
    assert got == pytest.approx(partition_function(g, q).log(), abs=1e-10)


@pytest.mark.parametrize("w", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("q", (0.5, 2.0))
def test_bottleneck_bridge_vs_enumeration(w, q):
    g = make_family(Bottleneck(3, 3, w))
    ens = enumerate_forests(g)
    got = bottleneck_quantities(3, 3, w, q).bridge
    assert got == pytest.approx(brute_correlation(ens, q, 0, 3), abs=1e-10)


def test_bottleneck_bridge_limits_in_q():
    assert bottleneck_quantities(5, 4, 1.0, 1e12).bridge == pytest.approx(1.0, abs=1e-9)
    assert bottleneck_quantities(5, 4, 1.0, 1e-12).bridge == pytest.approx(0.0, abs=1e-9)


def test_bottleneck_limit_classifier():
    # within-clique separation flips at sqrt(|C|)
    assert bottleneck_limit("within", 0.2, 0.0, 0.5) == 0.0
    assert bottleneck_limit("within", 0.7, 0.0, 0.5) == 1.0
    assert bottleneck_limit("within", 0.3, 0.0, 0.5, in_large_clique=False) == 1.0
    assert bottleneck_limit("within", 0.5, 0.0, 0.5) is None
    # bridge pair flips at w/m (and at w when the bridge outgrows the cliques)
    assert bottleneck_limit("bridge", -1.0, 0.0, 0.5) == 0.0
    assert bottleneck_limit("bridge", -0.2, 0.0, 0.5) == 1.0
    assert bottleneck_limit("bridge", 0.5, 2.0, 0.5) == 0.0  # q = o(w), w = omega(m)
    assert bottleneck_limit("bridge", 3.0, 2.0, 0.5) == 1.0  # q = omega(w)
    # bridge-to-clique: the c/(1+c) and 1/(1+c) windows
    assert bottleneck_limit("bridge_clique", 0.25, 2.0, 1.0, c=0.5) == pytest.approx(0.5 / 1.5)
    assert bottleneck_limit("bridge_clique", 0.25, 2.0, 1.0, c=0.5, in_large_clique=False) == pytest.approx(1 / 1.5)
    assert bottleneck_limit("bridge_clique", -0.5, 0.0, 0.5) == 0.0
    assert bottleneck_limit("bridge_clique", 0.8, 0.0, 0.5) == 1.0
    with pytest.raises(ParameterError):
        bottleneck_limit("bridge_clique", 0.25, 2.0, 1.0)  # missing c
    # across cliques
    assert bottleneck_limit("across", 0.5, 0.0, 0.5) == 1.0
    assert bottleneck_limit("across", -0.4, 0.0, 0.5) == 1.0  # q = omega(w/m) still
    assert bottleneck_limit("across", -0.9, 0.0, 0.5) == 0.0
    with pytest.raises(ParameterError):
        bottleneck_limit("diagonal", 0.0, 0.0, 0.5)
