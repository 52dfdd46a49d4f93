"""End-to-end acceptance gate.

One test per criterion; each prints a single ``ACCEPTANCE <n> PASS`` line
(visible with ``pytest -s``) and enforces its stated tolerance and, where
given, runtime budget. Seeds are fixed, so the whole module is
deterministic.
"""

import itertools
import math
import random
import time
from random import Random

import numpy as np
import pytest
from scipy.stats import chisquare

from lepart import (
    Bottleneck,
    CommunityStar,
    Complete,
    Cycle,
    Path,
    ROOT,
    Star,
    bottleneck_quantities,
    brute_correlation,
    brute_z,
    community_star_quantities,
    enumerate_forests,
    green_kernel,
    make_family,
    partition_function,
    path_asymptotic_limit,
    path_correlation,
    path_rw_bounds,
    russo_check,
    star_quantities,
    tree_correlation,
    undirected,
    z_path,
)
from lepart.estimators import closed_form_correlation
from lepart.graphs import is_tree
from lepart.spectral import TreePairCorrelation
from lepart.wilson import ForestSampler, split_seed
from oracles import Z_PATH_METHODS, oracle_forests, per_forest, z_cycle_oracle, z_path_oracle


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_oracle_equivalence():
    """brute_Z = det and brute correlations = tree-exact / closed forms."""
    t0 = time.perf_counter()
    specs = (
        [Path(n) for n in (2, 3, 4, 5)]
        + [Cycle(3), Cycle(4), Star(4), CommunityStar(5, 2, 0.5)]
        + [Bottleneck(3, 3, w) for w in (0.5, 1.0, 2.0)]
        + [Complete(4)]
    )
    pairs_checked = 0
    for spec in specs:
        g = make_family(spec)
        ens = enumerate_forests(g)
        for q in (0.3, 1.0, 3.0):
            bz = brute_z(ens, q)
            dz = partition_function(g, q).to_float()
            assert abs(bz - dz) <= 1e-9 * abs(dz), (spec, q)
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    bu = brute_correlation(ens, q, x, y)
                    if is_tree(g):
                        tu = tree_correlation(g, x, y, q)
                        assert abs(bu - tu) <= 1e-9, (spec, q, x, y)
                        pairs_checked += 1
                    cu = closed_form_correlation(spec, x, y, q)
                    if cu is not None:
                        assert abs(bu - cu) <= 1e-9, (spec, q, x, y)
                        pairs_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    report(1, f"oracle equivalence on {len(specs)} graphs, {pairs_checked} pair checks, {elapsed:.1f}s")


def test_criterion_2_path_partition_methods():
    """All evaluation routes for the path partition function agree."""
    t0 = time.perf_counter()
    for n in range(1, 51):
        for q in (0.01, 0.1, 1.0, 10.0, 100.0):
            logs = [z_path_oracle(n, q, m).log() for m in Z_PATH_METHODS]
            ref = logs[0]
            for lg in logs[1:]:
                assert abs(lg - ref) <= 1e-9 * max(1.0, abs(ref)), (n, q)
    for q in (0.01, 1.0, 100.0):
        a = z_path_oracle(10**5, q, "recurrence").log()
        b = z_path(10**5, q).log()
        assert abs(a - b) <= 1e-6 * max(1.0, abs(b)), q
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    report(2, f"five-way agreement for n<=50 and n=1e5 recurrence-vs-closed, {elapsed:.1f}s")


def test_criterion_3_cycle_partition():
    """Path-based and combinatorial cycle partition functions match determinants."""
    for n in range(3, 301):
        for q in (0.5, 2.0):
            det = partition_function(make_family(Cycle(n)), q).log()
            for method in ("path", "combinatorial"):
                got = z_cycle_oracle(n, q, method).log()
                assert abs(got - det) <= 1e-9 * max(1.0, abs(det)), (n, q, method)
    report(3, "cycle closed forms = determinant for n in 3..300")


def test_criterion_4_russo_identity():
    """Finite-difference derivative equals the root-count covariance form."""
    predicates = [
        lambda f: f.parent[0] == ROOT,
        lambda f: f.parent[0] == ROOT and f.parent[1] == ROOT,
        lambda f: f.root_count == 1,
        lambda f: f.root_count >= 2,
        lambda f: f.root_count % 2 == 0,
        lambda f: f.parent[0] != ROOT,
        lambda f: f.root_of(0) == f.root_of(1),
        lambda f: f.root_of(0) != f.root_of(1),
        lambda f: f.parent[0] == ROOT and all(f.root_of(v) != 0 for v in range(1, f.n)),
        lambda f: f.root_count == f.n,
        lambda f: f.parent[0] == 1,
        lambda f: f.parent[1] == 0,
    ]
    graphs = [Path(3), Star(4), Cycle(3), Complete(4)]
    checks = 0
    for spec in graphs:
        ens = enumerate_forests(make_family(spec))
        for q in (0.3, 1.0, 3.0):
            for pred in predicates:
                lhs, rhs = russo_check(ens, q, per_forest(pred))
                assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs)), (spec, q)
                checks += 1
    report(4, f"derivative identity over {checks} (graph, q, event) triples")


def test_criterion_5_sampler_law():
    """Sampled forests chi-square against the fully enumerated distribution."""
    t0 = time.perf_counter()
    replicas = 2 * 10**5
    p_values = []
    for spec in (Path(3), Star(4), Cycle(3), Complete(4)):
        g = make_family(spec)
        ens = enumerate_forests(g)
        for q in (0.5, 2.0):
            masses = ens.masses(q)
            probs = masses / masses.sum()
            index = {f.parent: i for i, f in enumerate(oracle_forests(ens))}
            counts = np.zeros(len(ens))
            sampler = ForestSampler(g, q)
            for r in range(replicas):
                counts[index[sampler.sample(Random(split_seed(42, r))).parent]] += 1
            _, p = chisquare(counts, probs * replicas)
            assert p > 0.001, (spec, q, p)
            p_values.append(float(p))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(5, f"chi-square p in [{min(p_values):.3f}, {max(p_values):.3f}] over 8 configs, {elapsed:.0f}s")


def test_criterion_6_determinantal_roots():
    """Monte Carlo root-set marginals agree with Green-kernel minors."""
    g = make_family(Path(5))
    q, replicas, seed = 1.0, 2 * 10**5, 11
    kernel = green_kernel(g, q)
    subsets = [(v,) for v in range(5)] + list(itertools.combinations(range(5), 2))
    counts = dict.fromkeys(subsets, 0)
    sampler = ForestSampler(g, q)
    for r in range(replicas):
        forest = sampler.sample(Random(split_seed(seed, r)))
        for A in subsets:
            if all(forest.parent[v] == ROOT for v in A):
                counts[A] += 1
    worst = 0.0
    for A in subsets:
        exact = float(np.linalg.det(kernel[np.ix_(A, A)]))
        sigma = math.sqrt(exact * (1 - exact) / replicas)
        dev = abs(counts[A] / replicas - exact)
        assert dev < 4 * sigma, (A, dev, sigma)
        worst = max(worst, dev / sigma)
    report(6, f"all {len(subsets)} root subsets within 4 sigma (worst {worst:.2f} sigma)")


def test_criterion_7_path_scaling_limits():
    """Finite-n path separation converges to the bulk and boundary constants."""
    t0 = time.perf_counter()
    delta = 0.3
    bulk_target = path_asymptotic_limit("bulk").value
    boundary_target = path_asymptotic_limit("boundary", alpha=delta, delta=delta).value
    errors = {"bulk": [], "boundary": []}
    for n in (10**4, 10**5, 10**6):
        d = int(2 * delta * math.sqrt(n))
        q = 1.0 / d**2
        # bulk pair: midpoint at n^0.6, i.e. omega(sqrt(n)) from both ends
        mid = int(n**0.6)
        x = mid - d // 2
        errors["bulk"].append(abs(path_correlation(n, x, x + d, q) - bulk_target))
        # boundary pair: midpoint at delta*sqrt(n), i.e. x at the end
        errors["boundary"].append(abs(path_correlation(n, 1, 1 + d, q) - boundary_target))
    for regime, errs in errors.items():
        assert errs[0] > errs[1] > errs[2], (regime, errs)
        assert errs[2] < 0.02, (regime, errs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    report(
        7,
        f"bulk err {errors['bulk'][-1]:.2e}, boundary err {errors['boundary'][-1]:.2e} at n=1e6, "
        f"both decreasing, {elapsed:.2f}s",
    )


def test_criterion_8_random_walk_sandwich():
    """Lower/upper random-walk bounds bracket the exact path separation.

    At m = d^2 and 4d^2 the band probability sits below 1/2, so the lower
    bound is inapplicable there by its own validity condition; shorter
    horizons (about d^2/8) are added so the lower branch is exercised too.
    """
    checked = lower_active = 0
    for d in (2, 5, 10, 20):
        n = 100 * d
        x = (n - d) // 2
        y = x + d
        horizons = sorted({max(1, d * d // 8), max(1, d * d // 4), d * d, 4 * d * d})
        for q in np.logspace(-3, 0, 7):
            u = path_correlation(n, x, y, float(q))
            for m in horizons:
                bounds = path_rw_bounds(d, float(q), m)
                checked += 1
                assert u <= bounds.upper + 1e-12, (d, q, m)
                if bounds.lower is not None:
                    lower_active += 1
                    assert bounds.lower <= u + 1e-12, (d, q, m)
    assert lower_active > 0
    report(8, f"zero violations over {checked} grid points ({lower_active} with the lower bound active)")


def _random_weighted_tree(rng: random.Random):
    """Random shape (uniform or chain-biased attachment), log-uniform weights."""
    n = rng.randrange(2, 51)
    chain_bias = rng.random() < 0.5
    pairs = []
    weights = []
    for v in range(1, n):
        if chain_bias and rng.random() < 0.8:
            u = v - 1
        else:
            u = rng.randrange(v)
        w = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
        pairs.append((u, v, w))
        weights.append(w)
    wmin = min(weights, default=1.0)
    wmax = max(weights, default=1.0)
    return undirected(n, pairs), wmin, wmax


def test_criterion_9_monotonicity_on_random_trees():
    """Separation probability is nondecreasing in q with the right endpoints."""
    rng = random.Random(20260810)
    trees = 0
    worst_drop = 0.0
    while trees < 200:
        g, wmin, wmax = _random_weighted_tree(rng)
        x, y = rng.sample(range(g.n), 2)
        pair = TreePairCorrelation(g, x, y)
        trees += 1
        qs = np.logspace(math.log10(1e-9 * wmin), math.log10(1e9 * wmax), 100)
        values = [pair.at(float(q)) for q in qs]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12, (g.n, x, y)
            worst_drop = max(worst_drop, a - b)
        assert values[0] < 1e-6, (g.n, x, y, values[0])
        assert values[-1] > 1 - 1e-6, (g.n, x, y, values[-1])
    report(9, f"200 trees monotone within 1e-12 (worst backward step {worst_drop:.1e}), endpoints OK")


def test_criterion_10_detection_phase_diagrams():
    """Community-star plateau constant and bottleneck half-crossing location."""
    t0 = time.perf_counter()
    n, k = 200, 3
    got = community_star_quantities(n, k, 1.0 / n, 1.0).center_v1
    want = (k + 3) / (2 * k + 8)
    assert abs(got - want) < 0.05, (got, want)

    bn, bm, bw = 400, 20, 1.0
    lo, hi = 1e-6, 1e3
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if bottleneck_quantities(bn, bm, bw, mid).bridge < 0.5:
            lo = mid
        else:
            hi = mid
    q_half = math.sqrt(lo * hi)
    boundary = bw / bm
    assert boundary / 3 <= q_half <= boundary * 3, (q_half, boundary)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    report(
        10,
        f"community-star value {got:.4f} vs {want:.4f}; bottleneck crossing {q_half:.4f} "
        f"vs w/m={boundary:.3f}, {elapsed:.2f}s",
    )
