"""Cross-oracle verification suite behind ``lepart verify``.

Each check pits at least two independent routes to the same quantity against
each other: enumeration vs determinant, closed form vs determinant, sampler
vs enumerated law, finite difference vs the root-count derivative identity,
and so on. All randomness is seeded, so a green run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random  # noqa: F401  (perfbench/tracing.py wraps each layer's Random)
from typing import Callable

import numpy as np

from . import graphs as g_
from .closed_forms import path_correlation, path_interior_root_measure, path_root_measures
from .enumeration import brute_correlation, brute_event, brute_z, enumerate_forests, russo_check
from .estimators import closed_form_z
from .graphs import (
    Bottleneck,
    CommunityStar,
    Complete,
    Cycle,
    Path,
    Star,
    make_family,
)
from .spectral import (
    expected_root_count,
    green_kernel,
    hitting_prob,
    partition_function,
    roots_marginal,
    tree_correlation,
)
from .wilson import ROOT, ForestSampler, forest_sampler

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


_TINY_FAMILIES = [Path(2), Path(4), Cycle(3), Star(4), Complete(4), Bottleneck(3, 3, 1.0), CommunityStar(5, 2, 0.5)]
_QS = (0.3, 1.0, 3.0)
_CLOSED_FORM_FAMILIES = [
    *(Path(n) for n in (1, 2, 5, 23, 80)),
    *(Cycle(n) for n in (3, 11, 60)),
    Star(5, 1.0), Star(9, 0.3), CommunityStar(6, 2, 0.5), CommunityStar(7, 4, 2.0),
    Bottleneck(3, 3, 0.5), Bottleneck(5, 4, 2.0), Complete(2), Complete(6),
]


def _check_enumeration_vs_determinant() -> str:
    """The partition function, by either route of ``spectral._factor``, against enumeration and dense LU."""
    worst = 0.0
    for fam in _TINY_FAMILIES:
        g = make_family(fam)
        ens = enumerate_forests(g)
        for q in _QS:
            z = partition_function(g, q)
            _, dense = np.linalg.slogdet(q * np.eye(g.n) - g_.laplacian(g))
            worst = max(worst, _rel(brute_z(ens, q), z.to_float()), abs(z.log() - dense))
    if worst > 1e-9:
        raise AssertionError(f"worst relative gap {worst:.3e} > 1e-9")
    return f"worst relative gap {worst:.2e}"


def _check_closed_forms_vs_determinant() -> str:
    """Closed forms against ``partition_function``: LU on cycles, bottlenecks and cliques, and on the
    trees the pivot route, which subtracts nothing and so is also held to it at q = 1e-9 and 1e-12."""
    worst = 0.0
    for fam in _CLOSED_FORM_FAMILIES:
        g = make_family(fam)
        for q in (0.5, 2.0, *((1e-9, 1e-12) if isinstance(fam, (Path, Star, CommunityStar)) else ())):
            worst = max(worst, abs(closed_form_z(fam, q).log() - partition_function(g, q).log()))
    if worst > 1e-9:
        raise AssertionError(f"worst log gap {worst:.3e} > 1e-9")
    return f"worst log gap {worst:.2e}"


def _check_correlations_vs_enumeration() -> str:
    worst = 0.0
    for fam in [Path(4), Star(5), CommunityStar(5, 2, 0.5)]:
        g = make_family(fam)
        ens = enumerate_forests(g)
        for q in _QS:
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    worst = max(worst, abs(brute_correlation(ens, q, x, y) - tree_correlation(g, x, y, q)))
    # adjacent pair from the two hitting probabilities p and r across its edge
    g = make_family(Star(5))
    for q in _QS:
        p, r = hitting_prob(g, 0, 1, q), hitting_prob(g, 1, 0, q)
        worst = max(worst, abs((1 - p - r + p * r) / (1 - p * r) - tree_correlation(g, 0, 1, q)))
    for n in (2, 5):
        gp = make_family(Path(n))
        ens = enumerate_forests(gp)
        for q in _QS:
            for x in range(n):
                for y in range(x + 1, n):
                    worst = max(worst, abs(brute_correlation(ens, q, x, y) - path_correlation(n, x + 1, y + 1, q)))
    if worst > 1e-9:
        raise AssertionError(f"worst gap {worst:.3e} > 1e-9")
    return f"worst gap {worst:.2e}"


def _check_determinantal_roots() -> str:
    worst = 0.0
    for fam in [Path(5), Cycle(4), Star(4)]:
        g = make_family(fam)
        ens = enumerate_forests(g)
        for q in (0.5, 2.0):
            for v in range(g.n):
                exact = roots_marginal(g, q, (v,))
                emp = brute_event(ens, q, lambda nxt, roots, v=v: nxt[:, v] == ROOT)
                worst = max(worst, abs(exact - emp))
            worst = max(worst, _rel(float(np.trace(green_kernel(g, q))), expected_root_count(g, q)))
    if worst > 1e-9:
        raise AssertionError(f"worst gap {worst:.3e} > 1e-9")
    return f"worst gap {worst:.2e}"


def _check_deletion_contraction() -> str:
    worst = 0.0
    for fam in [Path(3), Cycle(3), Star(4, 2.0), Complete(4)]:
        g = make_family(fam)
        ens = enumerate_forests(g)
        for q in (0.5, 2.0):
            Z = brute_z(ens, q)
            for x, y, w in g.edges:
                zd = brute_z(enumerate_forests(g_.delete_edge(g, x, y)), q)
                gc, _ = g_.contract_edge(g, x, y)
                zc = brute_z(enumerate_forests(gc), q)
                worst = max(worst, _rel(Z, zd + w * zc))
    if worst > 1e-10:
        raise AssertionError(f"worst relative gap {worst:.3e} > 1e-10")
    return f"worst relative gap {worst:.2e}"


def _check_edge_probabilities() -> str:
    worst = 0.0
    for fam in [Path(3), Cycle(3), Star(4, 2.0)]:
        g = make_family(fam)
        ens = enumerate_forests(g)
        L = g_.laplacian(g)
        for q in (0.5, 2.0):
            Z = brute_z(ens, q)
            K = np.linalg.inv(q * np.eye(g.n) - L)
            for x, y, w in g.edges:
                pe = brute_event(ens, q, lambda nxt, roots, x=x, y=y: nxt[:, x] == y)
                worst = max(worst, abs(pe - w * (K[x, x] - K[y, x])))
                gc, _ = g_.contract_edge(g, x, y)
                worst = max(worst, abs(pe - w * brute_z(enumerate_forests(gc), q) / Z))
                if pe > w / (q + w) + 1e-12:
                    raise AssertionError(f"edge probability bound violated at {(x, y)}")
    if worst > 1e-10:
        raise AssertionError(f"worst gap {worst:.3e} > 1e-10")
    return f"worst gap {worst:.2e}"


def _check_russo_identity() -> str:
    g = make_family(Path(3))
    ens = enumerate_forests(g)
    preds: list[Callable] = [
        lambda nxt, roots: nxt[:, 0] == ROOT,
        lambda nxt, roots: (nxt == ROOT).sum(1) == 1,
        lambda nxt, roots: roots[:, 0] == roots[:, 2],
    ]
    worst = 0.0
    for q in _QS:
        for pred in preds:
            lhs, rhs = russo_check(ens, q, pred)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    if worst > 1e-6:
        raise AssertionError(f"worst scaled gap {worst:.3e} > 1e-6")
    return f"worst scaled gap {worst:.2e}"


def _check_path_root_measures() -> str:
    worst = 0.0
    for n in (2, 3, 5):
        g = make_family(Path(n))
        ens = enumerate_forests(g)
        for q in (0.5, 2.0):
            Z = brute_z(ens, q)
            meas = path_root_measures(n, q)
            pb = brute_event(ens, q, lambda nxt, roots: nxt[:, 0] == ROOT)
            worst = max(worst, abs(pb - meas.boundary_root.to_float() / Z))
            pbb = brute_event(ens, q, lambda nxt, roots: (nxt[:, 0] == ROOT) & (nxt[:, n - 1] == ROOT))
            worst = max(worst, abs(pbb - meas.both_boundaries_root.to_float() / Z))
            for v in range(n):
                d = min(v, n - 1 - v)
                px = brute_event(ens, q, lambda nxt, roots, v=v: nxt[:, v] == ROOT)
                worst = max(worst, abs(px - path_interior_root_measure(n, d, q).to_float() / Z))
    if worst > 1e-10:
        raise AssertionError(f"worst gap {worst:.3e} > 1e-10")
    return f"worst gap {worst:.2e}"


def _chi_square_p(observed: np.ndarray, expected: np.ndarray) -> float:
    """Pearson's goodness-of-fit p-value on k cells, k - 1 degrees of freedom.

    The same arithmetic as ``scipy.stats.chisquare``, bit for bit, including
    its ValueError when the totals differ by more than a relative sqrt(eps).
    """
    total_o, total_e = observed.sum(), expected.sum()
    if abs(total_o - total_e) / min(total_o, total_e) > math.sqrt(np.finfo(float).eps):
        raise ValueError(f"observed total {total_o} and expected total {total_e} differ")
    stat = ((observed - expected) ** 2 / expected).sum()
    from scipy.special import chdtrc
    return float(chdtrc(len(observed) - 1, stat))


def _row_codes(nxt: np.ndarray) -> np.ndarray:
    """One integer per next-pointer row: the row's entries + 1 as base-(n+1) digits."""
    n = nxt.shape[1]
    return (nxt.astype(np.int64) + 1) @ (n + 1) ** np.arange(n, dtype=np.int64)


#: A 4-vertex tree with unequal weights both ways and one one-way edge (3 -> 1).
_ASYMMETRIC_TREE = g_.WeightedDigraph(4, [(0, 1, 1.0), (1, 0, 2.5), (1, 2, 0.4), (2, 1, 1.5), (3, 1, 0.8)])


def _check_sampler_law(seed: int = 42, replicas: int = 20_000) -> str:
    """Chi-square of sampled forests against the enumerated law.

    Wilson's walks on Path(3) at two q, and :func:`forest_sampler` on an
    asymmetric tree at one q (the tree sampler) and on Complete(4) at
    q = 0.1 (walks rooted at a vertex). Each case counts the rows of
    ``sampler.draw(seed, 0, replicas)`` against ``ens.parents`` by integer
    row codes.
    """
    path3, complete4 = make_family(Path(3)), make_family(Complete(4))
    cases = [(path3, ForestSampler(path3, q)) for q in (0.5, 2.0)]
    cases.append((_ASYMMETRIC_TREE, forest_sampler(_ASYMMETRIC_TREE, 0.7)))
    cases.append((complete4, forest_sampler(complete4, 0.1)))
    worst_p = 1.0
    for g, sampler in cases:
        ens = enumerate_forests(g)
        masses = ens.masses(sampler.q)
        probs = masses / masses.sum()
        codes = _row_codes(ens.parents)
        order = np.argsort(codes)
        drawn, freq = np.unique(_row_codes(sampler.draw(seed, 0, replicas)), return_counts=True)
        at = order[np.searchsorted(codes, drawn, sorter=order).clip(max=len(ens) - 1)]
        if not np.array_equal(codes[at], drawn):
            raise AssertionError("sampled a forest that is not in the enumerated ensemble")
        counts = np.zeros(len(ens))
        counts[at] = freq
        worst_p = min(worst_p, _chi_square_p(counts, probs * replicas))
    if worst_p <= 0.001:
        raise AssertionError(f"chi-square p-value {worst_p:.5f} <= 0.001")
    return f"min p-value {worst_p:.3f} over {replicas} samples per case"


CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("enumeration-vs-determinant", _check_enumeration_vs_determinant),
    ("closed-forms-vs-determinant", _check_closed_forms_vs_determinant),
    ("correlations-vs-enumeration", _check_correlations_vs_enumeration),
    ("determinantal-roots", _check_determinantal_roots),
    ("deletion-contraction", _check_deletion_contraction),
    ("edge-probabilities", _check_edge_probabilities),
    ("russo-identity", _check_russo_identity),
    ("path-root-measures", _check_path_root_measures),
    ("sampler-law", _check_sampler_law),
]

CHECK_NAMES = tuple(name for name, _ in CHECKS)


def run_checks(seed: int = 42) -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn(seed) if name == "sampler-law" else fn()
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results
