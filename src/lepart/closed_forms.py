"""Closed-form partition functions and separation probabilities.

Everything here is exact arithmetic on log-magnitude values, so path graphs
with millions of vertices and killing rates spanning many decades are fine.
Conventions: path partition functions use Z_0 = 0 (forced by the three-term
recurrence Z_n = (q+2) Z_{n-1} - Z_{n-2} with Z_1 = q, Z_2 = q^2 + 2q), and
path vertices are addressed by their 1-based position in the line.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import ParameterError, check_q
from .logvalue import LogValue

__all__ = [
    "z_path",
    "Z_PATH_METHODS",
    "z_cycle",
    "path_correlation",
    "PathRootMeasures",
    "path_root_measures",
    "simple_rw_band_prob",
    "simple_rw_tail_prob",
    "PathRwBounds",
    "path_rw_bounds",
    "path_asymptotic_limit",
    "RegimeLimit",
    "BULK_LIMIT",
    "StarQuantities",
    "star_quantities",
    "star_limits",
    "CommunityStarQuantities",
    "community_star_quantities",
    "community_star_center_limit",
    "CommunityStarLimits",
    "BottleneckQuantities",
    "bottleneck_quantities",
    "bottleneck_limit",
    "z_complete",
    "complete_rooting_measure",
]

#: Spectral product evaluation is skipped above this size (cost and trig error).
MAX_SPECTRAL_N = 10_000

Z_PATH_METHODS = ("combinatorial", "spectral", "recurrence", "chebyshev", "closed")


def _log_binom(n, k):
    """log C(n, k), elementwise; -inf outside the triangle."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    out = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    return np.where((k < 0) | (k > n), -np.inf, out)


# -- path graphs ------------------------------------------------------------


def z_path(n: int, q: float, method: str = "closed") -> LogValue:
    """Partition function of the n-vertex unit-weight path.

    Methods:

    * ``combinatorial``: sum_k C(n+k-1, 2k-1) q^k via log-gamma terms and
      log-sum-exp (all terms positive);
    * ``spectral``: product of (q + 2 - 2 cos(pi j / n)) over the Laplacian
      spectrum, capped at n <= 10^4;
    * ``recurrence``: iterate Z_k = (q+2) Z_{k-1} - Z_{k-2} with periodic
      rescaling, O(n);
    * ``chebyshev``: q U_{n-1}(q/2 + 1) through the hyperbolic-sine form of
      the second-kind Chebyshev polynomial;
    * ``closed``: the explicit surd form
      q [(A/2)^n - (B/2)^n] / sqrt(q^2 + 4q) with A, B = q + 2 +- sqrt(q^2+4q),
      evaluated in log space (default; O(1)).
    """
    if n < 1:
        raise ParameterError(f"path needs n >= 1, got {n}")
    check_q(q)
    if method == "combinatorial":
        k = np.arange(1, n + 1)
        terms = _log_binom(n + k - 1, 2 * k - 1) + k * math.log(q)
        return LogValue.from_log(float(logsumexp(terms)))
    if method == "spectral":
        if n > MAX_SPECTRAL_N:
            raise ParameterError(f"spectral product only evaluated for n <= {MAX_SPECTRAL_N}")
        j = np.arange(1, n)
        return LogValue.from_log(float(math.log(q) + np.log(q + 2 - 2 * np.cos(np.pi * j / n)).sum()))
    if method == "recurrence":
        return _z_path_recurrence(n, q)
    if method == "chebyshev":
        # U_{n-1}(cosh t) = sinh(n t) / sinh(t) with t = arccosh(1 + q/2)
        t = math.log1p(q / 2 + math.sqrt(q * q / 4 + q))
        return LogValue.from_log(math.log(q) + _log_sinh(n * t) - _log_sinh(t))
    if method == "closed":
        return _z_path_closed(n, q)
    raise ParameterError(f"unknown z_path method {method!r}; known: {Z_PATH_METHODS}")


def _log_sinh(t: float) -> float:
    """log(sinh(t)) for t > 0 without overflow."""
    return t + math.log1p(-math.exp(-2 * t)) - math.log(2.0)


def _z_path_closed(n: int, q: float) -> LogValue:
    disc = math.sqrt(q * q + 4 * q)
    log_half_a = math.log1p((q + disc) / 2)  # log((q + 2 + disc) / 2)
    a = q + 2 + disc
    log_ratio = n * (math.log(4.0) - 2 * math.log(a))  # log((B/A)^n), B = 4/A
    correction = math.log1p(-math.exp(log_ratio)) if log_ratio < 0 else -math.inf
    return LogValue.from_log(math.log(q) + n * log_half_a + correction - 0.5 * math.log(q * q + 4 * q))


def _z_path_recurrence(n: int, q: float) -> LogValue:
    prev, cur = 0.0, q  # Z_0, Z_1
    shift = 0.0
    for _ in range(n - 1):
        prev, cur = cur, (q + 2) * cur - prev
        if cur > 1e280:
            prev *= 1e-280
            cur *= 1e-280
            shift += 280 * math.log(10.0)
    return LogValue.from_log(math.log(cur) + shift)


def _z_path_value(n: int, q: float) -> LogValue:
    """Z of a path prefix with the Z_0 = 0 convention."""
    return LogValue.zero() if n == 0 else _z_path_closed(n, q)


def z_cycle(n: int, q: float, method: str = "path") -> LogValue:
    """Partition function of the n-vertex unit-weight cycle.

    ``path`` assembles it from path partition functions as
    Z_n + (2/q)(Z_n - Z_{n-1}) - 2; ``combinatorial`` sums
    [C(n+k, 2k) + C(n+k-1, 2k)] q^k.
    """
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3, got {n}")
    check_q(q)
    if method == "path":
        zn = _z_path_value(n, q)
        zn1 = _z_path_value(n - 1, q)
        two_over_q = LogValue.from_float(2.0 / q)
        return zn + two_over_q * (zn - zn1) - LogValue.from_float(2.0)
    if method == "combinatorial":
        k = np.arange(1, n + 1)
        terms = np.logaddexp(_log_binom(n + k, 2 * k), _log_binom(n + k - 1, 2 * k)) + k * math.log(q)
        return LogValue.from_log(float(logsumexp(terms)))
    raise ParameterError(f"unknown z_cycle method {method!r}")


def path_correlation(n: int, x: int, y: int, q: float) -> float:
    """P(positions x and y of the n-path fall in different trees), 1-based.

    Evaluated as 1 - Z_{n-d}/Z_n - d (Z_x - Z_{x-1})(Z_{n-y+1} - Z_{n-y}) / (q Z_n)
    with d = y - x, each ratio formed in log space before the subtraction,
    then clamped to [0, 1] (a warning fires if the pre-clamp value strays
    beyond 1e-8 outside).
    """
    if not 1 <= x < y <= n:
        raise ParameterError(f"need 1 <= x < y <= n, got x={x}, y={y}, n={n}")
    check_q(q)
    d = y - x
    zn = _z_path_value(n, q)
    ratio_bulk = (_z_path_value(n - d, q) / zn).to_float()
    left = _z_path_value(x, q) - _z_path_value(x - 1, q)
    right = _z_path_value(n - y + 1, q) - _z_path_value(n - y, q)
    ratio_root = float(d) * (left * right / zn).to_float() / q
    u = 1.0 - ratio_bulk - ratio_root
    if not -1e-8 <= u <= 1 + 1e-8:
        warnings.warn(
            f"path correlation {u!r} left [0,1] beyond roundoff at n={n}, q={q}",
            RuntimeWarning,
            stacklevel=2,
        )
    return min(1.0, max(0.0, u))


@dataclass(frozen=True)
class PathRootMeasures:
    """Unnormalized rooting measures of the n-path; divide by Z_n for probabilities."""

    n: int
    q: float
    boundary_root: LogValue  # mass of {one fixed boundary vertex is a root}
    both_boundaries_root: LogValue
    z: LogValue


def path_root_measures(n: int, q: float) -> PathRootMeasures:
    """Boundary rooting measures Z_n - Z_{n-1} and q Z_{n-1}."""
    if n < 1:
        raise ParameterError(f"path needs n >= 1, got {n}")
    check_q(q)
    zn = _z_path_value(n, q)
    zn1 = _z_path_value(n - 1, q)
    return PathRootMeasures(
        n=n,
        q=q,
        boundary_root=zn - zn1,
        both_boundaries_root=LogValue.from_float(q) * zn1,
        z=zn,
    )


def path_interior_root_measure(n: int, d: int, q: float) -> LogValue:
    """Unnormalized mass of {vertex at distance d from a boundary is a root}.

    Splitting the path at that vertex gives (1/q) M_{d+1}(boundary root)
    M_{n-d}(boundary root).
    """
    if not 0 <= d <= n - 1:
        raise ParameterError(f"need 0 <= d <= n-1, got d={d}, n={n}")
    check_q(q)
    left = path_root_measures(d + 1, q).boundary_root
    right = path_root_measures(n - d, q).boundary_root
    return left * right / LogValue.from_float(q)


# -- simple random walk bands ----------------------------------------------


def _walk_log_pmf(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and log-pmf of S_m = 2 Bin(m, 1/2) - m."""
    j = np.arange(m + 1)
    return 2 * j - m, _log_binom(m, j) - m * math.log(2.0)


def simple_rw_band_prob(m: int, a: float) -> float:
    """P(|S_m| < a) for the simple random walk on the integers started at 0."""
    if m < 0:
        raise ParameterError(f"need m >= 0, got {m}")
    if not a > 0:
        raise ParameterError(f"need a > 0, got {a}")
    if m == 0:
        return 1.0
    support, logp = _walk_log_pmf(m)
    inside = np.abs(support) < a
    if not inside.any():
        return 0.0
    return float(math.exp(logsumexp(logp[inside])))


def simple_rw_tail_prob(m: int, a: float) -> float:
    """P(|S_m| > a), summed directly so values near 0 keep full precision."""
    if m < 0:
        raise ParameterError(f"need m >= 0, got {m}")
    if m == 0:
        return 0.0
    support, logp = _walk_log_pmf(m)
    outside = np.abs(support) > a
    if not outside.any():
        return 0.0
    return float(math.exp(logsumexp(logp[outside])))


@dataclass(frozen=True)
class PathRwBounds:
    """Random-walk sandwich for the path separation probability at distance d.

    ``lower`` is None when the validity condition P(|S_m| < d/2) >= 1/2
    fails; the upper bound holds for every m >= 1.
    """

    lower: float | None
    upper: float
    band_prob: float  # P(|S_m| < d/2)


def path_rw_bounds(d: int, q: float, m: int) -> PathRwBounds:
    """Bounds (1 - (2/(2+q))^m)^2 (2P(|S_m|<d/2) - 1)^2 <= U <= 1 - P(|S_m|>d) (2/(2+q))^m."""
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    check_q(q)
    survive = (2.0 / (2.0 + q)) ** m
    band = simple_rw_band_prob(m, d / 2.0)
    lower = (1.0 - survive) ** 2 * (2.0 * band - 1.0) ** 2 if band >= 0.5 else None
    upper = 1.0 - simple_rw_tail_prob(m, float(d)) * survive
    return PathRwBounds(lower=lower, upper=upper, band_prob=band)


# -- path scaling limits ---------------------------------------------------

BULK_LIMIT = 1.0 - 3.0 / (2.0 * math.e)


@dataclass(frozen=True)
class RegimeLimit:
    """A scaling-regime tag and the limiting separation probability."""

    regime: str
    value: float


def path_asymptotic_limit(regime: str, alpha: float | None = None, delta: float | None = None) -> RegimeLimit:
    """Limit of the path separation probability for pairs at distance 2*delta*sqrt(n).

    ``bulk`` (both vertices deep inside): 1 - 3/(2e). ``boundary`` with the
    pair's midpoint at alpha*sqrt(n) from an end, alpha >= delta > 0:
    1 - 3/(2e) - exp(-alpha/delta)/2.
    """
    if regime == "bulk":
        return RegimeLimit("bulk", BULK_LIMIT)
    if regime == "boundary":
        if alpha is None or delta is None:
            raise ParameterError("boundary regime needs alpha and delta")
        if not delta > 0 or alpha < delta:
            raise ParameterError(f"boundary regime needs alpha >= delta > 0, got alpha={alpha}, delta={delta}")
        return RegimeLimit("boundary", BULK_LIMIT - 0.5 * math.exp(-alpha / delta))
    raise ParameterError(f"unknown regime {regime!r}; known: bulk, boundary")


# -- star graphs ------------------------------------------------------------


@dataclass(frozen=True)
class StarQuantities:
    """Closed forms for the homogeneous weight-w star on n vertices."""

    n: int
    w: float
    q: float
    z: LogValue
    center_leaf: float  # separation probability of the center and a leaf
    leaf_leaf: float


def star_quantities(n: int, w: float, q: float) -> StarQuantities:
    """Z = q (q+w)^{n-2} (q+nw) and the two pair separation probabilities."""
    if n < 3:
        raise ParameterError(f"star closed forms need n >= 3, got {n}")
    if not w > 0:
        raise ParameterError(f"need w > 0, got {w}")
    check_q(q)
    z = LogValue.from_float(q) * LogValue.from_float(q + w) ** (n - 2) * LogValue.from_float(q + n * w)
    center_leaf = q * (q + (n - 1) * w) / ((q + w) * (q + n * w))
    leaf_leaf = q * (q * q + (n + 2) * w * q + 2 * (n - 1) * w * w) / ((q + w) ** 2 * (q + n * w))
    return StarQuantities(n=n, w=w, q=q, z=z, center_leaf=center_leaf, leaf_leaf=leaf_leaf)


def star_limits(alpha: float, beta: float, qbar: float = 1.0, wbar: float = 1.0) -> tuple[float, float]:
    """Limits of the two star separation probabilities under q ~ qbar n^alpha, w ~ wbar n^beta.

    Returns (center-leaf, leaf-leaf). Off the diagonal alpha == beta both
    degenerate to 0 or 1; on it they are qbar/(qbar+wbar) and
    qbar (qbar + 2 wbar) / (qbar + wbar)^2, the limits of the exact
    finite-n expressions.
    """
    if not qbar > 0 or not wbar > 0:
        raise ParameterError("need positive qbar and wbar")
    if alpha > beta:
        return 1.0, 1.0
    if alpha < beta:
        return 0.0, 0.0
    return qbar / (qbar + wbar), qbar * (qbar + 2 * wbar) / (qbar + wbar) ** 2


# -- community star ----------------------------------------------------------


@dataclass(frozen=True)
class CommunityStarQuantities:
    """Closed forms for the star with k weight-1 edges and n-k-1 weight-w edges.

    Pair separation probabilities that involve an empty leaf class are None
    (center_v1 and the v1 pairs need k >= 1; the vw entries need k <= n-2).
    """

    n: int
    k: int
    w: float
    q: float
    z: LogValue
    center_v1: float | None
    center_vw: float | None
    v1_v1: float | None
    v1_vw: float | None
    vw_vw: float | None


def community_star_quantities(n: int, k: int, w: float, q: float) -> CommunityStarQuantities:
    if n < 3:
        raise ParameterError(f"community star closed forms need n >= 3, got {n}")
    if not 0 <= k <= n - 1:
        raise ParameterError(f"need 0 <= k <= n-1, got k={k}")
    if not w > 0:
        raise ParameterError(f"need w > 0, got {w}")
    check_q(q)
    quad = q * q + ((n - k) * w + k + 1) * q + n * w
    z = (
        LogValue.from_float(q)
        * LogValue.from_float(q + w) ** (n - k - 2)
        * LogValue.from_float(q + 1) ** (k - 1)
        * LogValue.from_float(quad)
    )
    center_v1 = center_vw = v1_v1 = v1_vw = vw_vw = None
    if k >= 1:
        center_v1 = q * (q * q + ((n - k) * w + k) * q + (n - 1) * w) / ((q + 1) * quad)
    if k <= n - 2:
        center_vw = q * (q * q + ((n - k - 1) * w + k + 1) * q + (n - 1) * w) / ((q + w) * quad)
    if k >= 2:
        v1_v1 = (
            q
            * (q**3 + ((n - k) * w + k + 3) * q**2 + ((3 * n - 2 * k) * w + 2 * k) * q + 2 * (n - 1) * w)
            / ((q + 1) ** 2 * quad)
        )
    if k >= 1 and k <= n - 2:
        v1_vw = (
            q
            * (
                q**3
                + ((n - k + 1) * w + k + 2) * q**2
                + ((n - k) * w * w + (2 * n - 1) * w + k + 1) * q
                + (n - 1) * w * (1 + w)
            )
            / ((q + 1) * (q + w) * quad)
        )
    if k <= n - 3:
        vw_vw = (
            q
            * (
                q**3
                + ((n - k + 2) * w + k + 1) * q**2
                + ((n + 2 * k + 2) * w + 2 * (n - k - 1) * w * w) * q
                + 2 * (n - 1) * w * w
            )
            / ((q + w) ** 2 * quad)
        )
    return CommunityStarQuantities(
        n=n, k=k, w=w, q=q, z=z,
        center_v1=center_v1, center_vw=center_vw,
        v1_v1=v1_v1, v1_vw=v1_vw, vw_vw=vw_vw,
    )


@dataclass(frozen=True)
class CommunityStarLimits:
    """Limits of the two center separations under q = n^alpha, w = n^beta, k fixed."""

    center_v1: float
    center_vw: float


def community_star_center_limit(alpha: float, beta: float, k: int) -> CommunityStarLimits:
    if k < 0:
        raise ParameterError(f"need k >= 0, got {k}")
    if alpha < 0:
        v1 = 0.0
    elif alpha > 0:
        v1 = 1.0
    elif beta > -1:
        v1 = 0.5
    elif beta == -1:
        v1 = (k + 3) / (2 * k + 8)
    else:
        v1 = (k + 1) / (2 * k + 4)
    if alpha < beta:
        vw = 0.0
    elif alpha == beta:
        vw = 0.5
    else:
        vw = 1.0
    return CommunityStarLimits(center_v1=v1, center_vw=vw)


# -- complete graphs ----------------------------------------------------------


def z_complete(n: int, q: float) -> LogValue:
    """Partition function q (q+n)^{n-1} of the unit-weight complete graph."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    check_q(q)
    return LogValue.from_float(q) * LogValue.from_float(q + n) ** (n - 1)


def complete_rooting_measure(n: int, r: int, q: float) -> LogValue:
    """Unnormalized mass of {a fixed set of r vertices are all roots} in K_n.

    Equals q^r (q + r) (q + n)^{n-r-1}; divide by z_complete for the
    probability.
    """
    if not 1 <= r <= n:
        raise ParameterError(f"need 1 <= r <= n, got r={r}, n={n}")
    check_q(q)
    return (
        LogValue.from_float(q) ** r
        * LogValue.from_float(q + r)
        * LogValue.from_float(q + n) ** (n - r - 1)
    )


# -- bottleneck graphs -------------------------------------------------------


@dataclass(frozen=True)
class BottleneckQuantities:
    """Closed forms for two cliques (sizes n, m) joined by a weight-w bridge."""

    n: int
    m: int
    w: float
    q: float
    z: LogValue
    bridge: float  # separation probability of the two bridge endpoints


def bottleneck_quantities(n: int, m: int, w: float, q: float) -> BottleneckQuantities:
    """Z = q [q(q+n)(q+m) + w(q+1)(2q+n+m)] (q+n)^{n-2} (q+m)^{m-2}."""
    if n < 2 or m < 2:
        raise ParameterError(f"bottleneck closed forms need n, m >= 2, got n={n}, m={m}")
    if not w > 0:
        raise ParameterError(f"need w > 0, got {w}")
    check_q(q)
    core = q * (q + n) * (q + m) + w * (q + 1) * (2 * q + n + m)
    z = (
        LogValue.from_float(q)
        * LogValue.from_float(core)
        * LogValue.from_float(q + n) ** (n - 2)
        * LogValue.from_float(q + m) ** (m - 2)
    )
    bridge = q * (q + n) * (q + m) / core
    return BottleneckQuantities(n=n, m=m, w=w, q=q, z=z, bridge=bridge)


def bottleneck_limit(
    kind: str,
    alpha: float,
    beta: float,
    mu: float,
    c: float | None = None,
    in_large_clique: bool = True,
) -> float | None:
    """Limiting separation probability for bottleneck pairs under power-law scaling.

    q ~ n^alpha, w ~ n^beta, m ~ n^mu (0 <= mu <= 1; when mu == 1, ``c`` is
    the proportionality constant m ~ c n). ``kind`` selects the pair:
    ``within`` (two non-bridge vertices of one clique), ``bridge`` (the two
    bridge endpoints), ``bridge_clique`` (a bridge endpoint and a vertex of
    its clique), ``across`` (non-bridge vertices of different cliques).
    Returns None when the exponents sit on a regime boundary the dichotomy
    does not cover.
    """
    if not 0 <= mu <= 1:
        raise ParameterError(f"need 0 <= mu <= 1, got mu={mu}")
    clique_exp = 1.0 if in_large_clique else mu
    if kind == "within":
        if alpha < clique_exp / 2:
            return 0.0
        if alpha > clique_exp / 2:
            return 1.0
        return None
    if kind == "bridge":
        if alpha < beta - mu or (alpha < beta and beta > mu):
            return 0.0
        if alpha > beta or (alpha > beta - mu and beta < mu):
            return 1.0
        return None
    if kind == "bridge_clique":
        if alpha > clique_exp / 2:
            return 1.0
        if alpha < 0 or (alpha < clique_exp / 2 and (beta < mu or mu < 1)):
            return 0.0
        if 0 < alpha < clique_exp / 2 and beta > mu and mu == 1:
            if c is None or not 0 < c <= 1:
                raise ParameterError("m ~ c n regime needs a constant c in (0, 1]")
            return c / (1 + c) if in_large_clique else 1 / (1 + c)
        return None
    if kind == "across":
        if alpha > 0:
            return 1.0
        if alpha < 0:
            if alpha > beta - mu:
                return 1.0
            if alpha < beta - mu:
                return 0.0
        return None
    raise ParameterError(f"unknown pair kind {kind!r}; known: within, bridge, bridge_clique, across")
