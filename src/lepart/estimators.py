"""Monte Carlo estimation, q-sweeps, and layer-detection experiments.

Every estimator is a deterministic function of (graph, q, replicas, seed):
replica r consumes its own stream seeded by ``split_seed(master_seed, r)``,
so runs are reproducible, parallelizable, and replica counts can be extended
without reusing indices. Uncertainty is reported as the exact Bernoulli
standard error sqrt(p(1-p)/R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.stats import chi2

from .closed_forms import (
    bottleneck_quantities,
    community_star_quantities,
    path_correlation,
    star_quantities,
)
from .enumeration import MAX_ENUM_VERTICES, brute_correlation, enumerate_forests
from .errors import ParameterError, check_q
from .graphs import (
    Bottleneck,
    CommunityStar,
    FamilySpec,
    HierarchicalTree,
    Path,
    Star,
    WeightedDigraph,
    check_vertices,
    is_tree,
    make_family,
)
from .spectral import TreePairCorrelation, green_kernel, laplacian_spectrum, roots_marginal
from .wilson import ROOT, ForestSampler, RootedForest, split_seed

__all__ = [
    "SampleStats",
    "mc_correlation",
    "mc_event",
    "mc_root_count",
    "RootCountFit",
    "poisson_binomial_pmf",
    "SweepRow",
    "SweepTable",
    "CorrelationQuery",
    "RootQuery",
    "sweep",
    "exact_correlation",
    "closed_form_correlation",
    "LayerCrossing",
    "detect_layers_experiment",
]


@dataclass(frozen=True)
class SampleStats:
    """A Bernoulli Monte Carlo estimate with its exact standard error."""

    replicas: int
    successes: int
    estimate: float
    stderr: float
    seed: int

    @staticmethod
    def from_counts(successes: int, replicas: int, seed: int) -> "SampleStats":
        p = successes / replicas
        return SampleStats(
            replicas=replicas,
            successes=successes,
            estimate=p,
            stderr=math.sqrt(p * (1.0 - p) / replicas),
            seed=seed,
        )


def _run_replicas(
    sampler: ForestSampler,
    replicas: int,
    seed: int,
    hit: Callable[[RootedForest], bool],
) -> int:
    if replicas < 1:
        raise ParameterError(f"need at least one replica, got {replicas}")
    successes = 0
    for r in range(replicas):
        forest = sampler.sample(Random(split_seed(seed, r)))
        if hit(forest):
            successes += 1
    return successes


def mc_correlation(
    g: WeightedDigraph, q: float, x: int, y: int, replicas: int, seed: int
) -> SampleStats:
    """Fraction of sampled forests in which x and y land in different trees."""
    check_vertices(g, (x, y))
    if x == y:
        raise ParameterError("need two distinct vertices")
    sampler = ForestSampler(g, q)
    hits = _run_replicas(sampler, replicas, seed, lambda f: f.root_of(x) != f.root_of(y))
    return SampleStats.from_counts(hits, replicas, seed)


def mc_event(
    g: WeightedDigraph,
    q: float,
    predicate: Callable[[RootedForest], bool],
    replicas: int,
    seed: int,
) -> SampleStats:
    """Probability of an arbitrary forest event, by sampling."""
    sampler = ForestSampler(g, q)
    hits = _run_replicas(sampler, replicas, seed, predicate)
    return SampleStats.from_counts(hits, replicas, seed)


# -- root-count law ----------------------------------------------------------


def poisson_binomial_pmf(ps: Iterable[float]) -> np.ndarray:
    """Distribution of a sum of independent Bernoulli(p_i) variables."""
    pmf = np.array([1.0])
    for p in ps:
        nxt = np.zeros(len(pmf) + 1)
        nxt[: len(pmf)] += pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


@dataclass(frozen=True)
class RootCountFit:
    """Histogram of sampled root counts against the spectral Bernoulli-sum law."""

    counts: np.ndarray  # counts[r] = number of samples with r roots, r = 0..n
    expected: np.ndarray  # model pmf over 0..n
    chi_square: float
    dof: int
    p_value: float
    replicas: int
    seed: int

    @property
    def mean(self) -> float:
        r = np.arange(len(self.counts))
        return float((self.counts * r).sum() / self.counts.sum())


def mc_root_count(g: WeightedDigraph, q: float, replicas: int, seed: int) -> RootCountFit:
    """Sample root counts and chi-square them against q/(q + lambda_i) Bernoullis."""
    if not g.is_symmetric:
        raise ParameterError("the root-count law is only asserted for undirected graphs")
    if replicas < 1:
        raise ParameterError(f"need at least one replica, got {replicas}")
    sampler = ForestSampler(g, q)
    counts = np.zeros(g.n + 1, dtype=np.int64)
    for r in range(replicas):
        forest = sampler.sample(Random(split_seed(seed, r)))
        counts[forest.root_count] += 1
    lam = laplacian_spectrum(g)
    expected = poisson_binomial_pmf(q / (q + lam))
    chi_sq, dof = _chi_square_merged(counts, expected * replicas)
    p_value = float(chi2.sf(chi_sq, dof)) if dof > 0 else 1.0
    return RootCountFit(
        counts=counts,
        expected=expected,
        chi_square=chi_sq,
        dof=dof,
        p_value=p_value,
        replicas=replicas,
        seed=seed,
    )


def _chi_square_merged(observed: np.ndarray, expected: np.ndarray, min_expected: float = 5.0):
    """Pearson statistic with sparse cells merged into their neighbors."""
    obs_bins: list[float] = []
    exp_bins: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if exp_bins:
            obs_bins[-1] += acc_o
            exp_bins[-1] += acc_e
        else:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
    obs = np.array(obs_bins)
    exp = np.array(exp_bins)
    # renormalize the model mass to the sample size to kill truncation residue
    exp *= obs.sum() / exp.sum()
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat, len(obs) - 1


# -- sweeps -----------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationQuery:
    """Ask for P(x and y in different blocks)."""

    tag: str
    x: int
    y: int


@dataclass(frozen=True)
class RootQuery:
    """Ask for P(all listed vertices are roots)."""

    tag: str
    vertices: tuple[int, ...]


Query = CorrelationQuery | RootQuery


@dataclass(frozen=True)
class SweepRow:
    q: float
    tag: str
    exact: float | None
    estimate: float | None
    stderr: float | None
    replicas: int
    seed: int


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    CSV_HEADER = "q,tag,exact,estimate,stderr,R,seed"

    def to_csv(self) -> str:
        def fmt(v) -> str:
            return "" if v is None else f"{v:.17g}"

        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.q:.17g},{r.tag},{fmt(r.exact)},{fmt(r.estimate)},{fmt(r.stderr)},{r.replicas},{r.seed}"
            )
        return "\n".join(lines) + "\n"


def exact_correlation(
    g: WeightedDigraph, x: int, y: int, q: float, family: FamilySpec | None = None
) -> float | None:
    """Strongest exact method available for one pair, or None.

    Dispatch order: exhaustive enumeration (n <= 8), tree-exact, then family
    closed forms.
    """
    check_vertices(g, (x, y))
    if g.n <= MAX_ENUM_VERTICES:
        return brute_correlation(enumerate_forests(g), q, x, y)
    if is_tree(g):
        return TreePairCorrelation(g, x, y).at(q)
    return closed_form_correlation(family, x, y, q)


def closed_form_correlation(family: FamilySpec | None, x: int, y: int, q: float) -> float | None:
    if isinstance(family, Path):
        lo, hi = min(x, y), max(x, y)
        return path_correlation(family.n, lo + 1, hi + 1, q)
    if isinstance(family, Star):
        sq = star_quantities(family.n, family.w, q)
        return sq.center_leaf if 0 in (x, y) else sq.leaf_leaf
    if isinstance(family, CommunityStar):
        cs = community_star_quantities(family.n, family.k, family.w, q)
        in_v1 = lambda v: 1 <= v <= family.k
        if 0 in (x, y):
            other = y if x == 0 else x
            return cs.center_v1 if in_v1(other) else cs.center_vw
        kinds = sorted((in_v1(x), in_v1(y)), reverse=True)
        if kinds == [True, True]:
            return cs.v1_v1
        if kinds == [True, False]:
            return cs.v1_vw
        return cs.vw_vw
    if isinstance(family, Bottleneck):
        if {x, y} == {0, family.n}:
            return bottleneck_quantities(family.n, family.m, family.w, q).bridge
        return None
    return None


def sweep(
    target: WeightedDigraph | FamilySpec,
    q_grid: Sequence[float],
    queries: Sequence[Query],
    replicas: int,
    seed: int,
) -> SweepTable:
    """Exact values (where a method exists) and MC estimates over a q-grid.

    ``replicas == 0`` skips sampling and fills only the exact column. Each
    (q, query) row draws its own replica streams, derived from ``seed`` and
    the row index.
    """
    family: FamilySpec | None
    if isinstance(target, WeightedDigraph):
        g, family = target, None
    else:
        family, g = target, make_family(target)
    qs = [float(q) for q in q_grid]
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ParameterError("q grid must be strictly ascending")
    for q in qs:
        check_q(q)
    if replicas < 0:
        raise ParameterError(f"replica count must be nonnegative, got {replicas}")
    for query in queries:
        check_vertices(g, (query.x, query.y) if isinstance(query, CorrelationQuery) else query.vertices)
    rows: list[SweepRow] = []
    ensemble = enumerate_forests(g) if g.n <= MAX_ENUM_VERTICES else None
    pairs: dict[tuple[int, int], TreePairCorrelation] = {}
    tree = ensemble is None and is_tree(g)
    for row_index, (q, query) in enumerate((q, query) for q in qs for query in queries):
        if isinstance(query, CorrelationQuery):
            if ensemble is not None:
                exact = brute_correlation(ensemble, q, query.x, query.y)
            elif tree:
                key = (query.x, query.y)
                if key not in pairs:
                    pairs[key] = TreePairCorrelation(g, query.x, query.y)
                exact = pairs[key].at(q)
            else:
                exact = closed_form_correlation(family, query.x, query.y, q)
            hit = lambda f, qq=query: f.root_of(qq.x) != f.root_of(qq.y)
        else:
            exact = roots_marginal(green_kernel(g, q), query.vertices)
            hit = lambda f, qq=query: all(f.parent[v] == ROOT for v in qq.vertices)
        estimate = stderr = None
        row_seed = split_seed(seed, row_index)
        if replicas > 0:
            sampler = ForestSampler(g, q)
            successes = _run_replicas(sampler, replicas, row_seed, hit)
            stats = SampleStats.from_counts(successes, replicas, row_seed)
            estimate, stderr = stats.estimate, stats.stderr
        rows.append(
            SweepRow(
                q=q,
                tag=query.tag,
                exact=exact,
                estimate=estimate,
                stderr=stderr,
                replicas=replicas,
                seed=row_seed,
            )
        )
    return SweepTable(tuple(rows))


# -- hierarchical layer detection ---------------------------------------------


@dataclass(frozen=True)
class LayerCrossing:
    """Half-crossing of the parent-child separation at one tree generation.

    ``threshold`` is d^{-k} w(e) with k the child's distance to the leaves;
    the detection dichotomy says the separation probability flips from 0 to
    1 as q crosses that order of magnitude.
    """

    generation: int
    child: int
    parent: int
    distance_to_leaves: int
    threshold: float
    q_half: float | None  # None when the grid never reaches 1/2


def detect_layers_experiment(
    d: int,
    h: int,
    weights: Sequence[float],
    q_grid: Sequence[float],
    replicas: int,
    seed: int,
) -> tuple[SweepTable, list[LayerCrossing]]:
    """Exact parent-child separation per generation of a regular hierarchical tree.

    Rows are tagged ``gen<i>``; each generation's half-crossing q* (located
    by bisection on the exact tree formula once the grid brackets 1/2) is
    compared against its threshold d^{-k} w_i.
    """
    spec = HierarchicalTree(d=d, h=h, weights=tuple(float(w) for w in weights))
    g = make_family(spec)
    queries = []
    crossing_inputs = []
    offset = 1  # first vertex of generation 1 (0 is the ancestor)
    parent_offset = 0
    for gen in range(1, h + 1):
        child = offset
        parent = parent_offset
        queries.append(CorrelationQuery(tag=f"gen{gen}", x=parent, y=child))
        crossing_inputs.append((gen, parent, child))
        parent_offset = offset
        offset += d**gen
    table = sweep(g, q_grid, queries, replicas, seed)
    crossings = []
    for gen, parent, child in crossing_inputs:
        k = h - gen
        threshold = float(weights[gen - 1]) / d**k
        pair = TreePairCorrelation(g, parent, child)
        q_half = _bisect_half(pair, [float(q) for q in q_grid])
        crossings.append(
            LayerCrossing(
                generation=gen,
                child=child,
                parent=parent,
                distance_to_leaves=k,
                threshold=threshold,
                q_half=q_half,
            )
        )
    return table, crossings


def _bisect_half(pair: TreePairCorrelation, qs: list[float]) -> float | None:
    values = [pair.at(q) for q in qs]
    bracket = None
    for (qa, ua), (qb, ub) in zip(zip(qs, values), zip(qs[1:], values[1:])):
        if ua <= 0.5 <= ub:
            bracket = (qa, qb)
            break
    if bracket is None:
        return None
    lo, hi = bracket
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if pair.at(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)
