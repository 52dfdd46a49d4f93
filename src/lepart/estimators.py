"""Monte Carlo estimation, q-sweeps, and layer-detection experiments.

Every estimator is a deterministic function of (graph, q, replicas, seed):
replica r's forest depends only on (seed, r), so runs are reproducible,
parallelizable, and replica counts can be extended without reusing indices.
On a tree, replica r reads the counter-based uniforms U[r, i] of
:func:`~lepart.wilson.tree_uniforms`; elsewhere, Wilson's walks read a
``random.Random`` seeded by ``split_seed(seed, r)``. Each estimator works
through the replicas in blocks (:func:`_blocks`). A separation asks the
sampler for its count of separated replicas in the block
(``separations``), which the tree sampler draws from the pair's ancestors
alone. The others reduce next-pointer rows, one array per block
(:func:`_run_replicas`): root events and root counts read the ROOT
entries, and :func:`mc_event` applies its row predicate once per block, to
the rows and their roots. Uncertainty is reported as the exact Bernoulli
standard error sqrt(p(1-p)/R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random  # noqa: F401  (perfbench/tracing.py wraps each layer's Random)
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .closed_forms import (
    bottleneck_quantities,
    community_star_quantities,
    path_correlation,
    star_quantities,
    z_complete,
    z_cycle,
    z_path,
)
from .enumeration import MAX_ENUM_VERTICES, ForestEnsemble, RowPredicate, _event_mask, enumerate_forests, separation_mask
from .errors import ParameterError, check_q
from .graphs import (
    Bottleneck,
    CommunityStar,
    Complete,
    Cycle,
    FamilySpec,
    HierarchicalTree,
    Path,
    Star,
    WeightedDigraph,
    check_vertices,
    is_tree,
    make_family,
)
from .logvalue import LogValue
from .spectral import TreePairCorrelation, laplacian_spectrum, roots_marginal
from .wilson import BLOCK_ENTRIES, ROOT, ForestSampler, TreeSampler, _roots, check_seed, forest_sampler, split_seed

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
    "ExactRoute",
    "exact_route",
    "closed_form_correlation",
    "closed_form_z",
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


T = TypeVar("T")


def _blocks(sampler: ForestSampler | TreeSampler, replicas: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of replicas 0..R-1, at most :data:`BLOCK_ENTRIES` next-pointer entries each."""
    if replicas < 1:
        raise ParameterError(f"need at least one replica, got {replicas}")
    step = max(1, BLOCK_ENTRIES // sampler.graph.n)
    return [(start, min(start + step, replicas)) for start in range(0, replicas, step)]


def _run_replicas(
    sampler: ForestSampler | TreeSampler, replicas: int, seed: int, reduce: Callable[[np.ndarray], T]
) -> T:
    """The sum of ``reduce`` over blocks of the next-pointer rows of replicas 0..R-1.

    Each block is a (B, n) array from ``sampler.draw`` whose row k is the
    forest of one replica, :data:`ROOT` marking a root.
    """
    return sum(reduce(sampler.draw(seed, start, stop)) for start, stop in _blocks(sampler, replicas))


def _separations(sampler: ForestSampler | TreeSampler, replicas: int, seed: int, x: int, y: int) -> int:
    """The number of replicas 0..R-1 in which x and y have different roots, as the sampler counts them."""
    return sum(sampler.separations(seed, start, stop, x, y) for start, stop in _blocks(sampler, replicas))


def _all_roots(sampler: ForestSampler | TreeSampler, replicas: int, seed: int, vertices: Sequence[int]) -> int:
    """The number of replicas 0..R-1 in which every listed vertex is a root."""
    columns = list(vertices)
    return _run_replicas(sampler, replicas, seed, lambda nxt: int(np.count_nonzero((nxt[:, columns] == ROOT).all(1))))


def mc_correlation(
    g: WeightedDigraph, q: float, x: int, y: int, replicas: int, seed: int
) -> SampleStats:
    """Fraction of sampled forests in which x and y land in different trees."""
    check_vertices(g.n, (x, y))
    if x == y:
        raise ParameterError("need two distinct vertices")
    hits = _separations(forest_sampler(g, q), replicas, seed, x, y)
    return SampleStats.from_counts(hits, replicas, seed)


def mc_event(g: WeightedDigraph, q: float, predicate: RowPredicate, replicas: int, seed: int) -> SampleStats:
    """Probability of an arbitrary forest event, by sampling.

    The row predicate (:data:`~lepart.enumeration.RowPredicate`) is applied
    once per drawn block, to its next-pointer rows and their roots.
    """
    def count(nxt: np.ndarray) -> int:
        return int(np.count_nonzero(_event_mask(predicate, nxt, _roots(nxt))))

    hits = _run_replicas(forest_sampler(g, q), replicas, seed, count)
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
    counts = _run_replicas(
        forest_sampler(g, q), replicas, seed, lambda nxt: np.bincount((nxt == ROOT).sum(1), minlength=g.n + 1)
    )
    lam = laplacian_spectrum(g)
    expected = poisson_binomial_pmf(q / (q + lam))
    chi_sq, dof = _chi_square_merged(counts, expected * replicas)
    from scipy.special import chdtrc
    p_value = float(chdtrc(dof, chi_sq)) if dof > 0 else 1.0
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


# -- exact dispatch ----------------------------------------------------------


@dataclass(frozen=True)
class ExactRoute:
    """The exact separation probability of one pair, resolved once, evaluated per q.

    ``method`` names the route: ``"enum"`` (exhaustive enumeration),
    ``"tree"`` (tree-exact elimination) or ``"closed"`` (family closed form).
    """

    method: str
    at: Callable[[float], float]


#: Values of ``method`` in :func:`exact_route` (and of ``lepart corr --method``).
CORRELATION_METHODS = ("enum", "tree", "closed", "mc", "auto")


def exact_route(
    g: WeightedDigraph,
    x: int,
    y: int,
    family: FamilySpec | None = None,
    method: str = "auto",
    ensemble: ForestEnsemble | None = None,
) -> ExactRoute | None:
    """The one exact-method dispatch for P(x and y in different blocks).

    ``auto`` takes the first route that applies: enumeration (n <= 8), then
    tree-exact (g is a tree), then the family closed form; it returns None
    when none does. ``enum``, ``tree`` and ``closed`` force that route and
    raise when it does not apply. ``mc`` asks for no exact route (None). The
    enumeration ensemble (unless g's is passed in as ``ensemble``) or the
    tree elimination is built here once, so ``at`` costs one evaluation per q.
    """
    if method not in CORRELATION_METHODS:
        raise ParameterError(f"unknown method {method!r}; known: {CORRELATION_METHODS}")
    check_vertices(g.n, (x, y))
    if x == y:
        raise ParameterError("need two distinct vertices")
    if method == "mc":
        return None
    if method == "enum" or (method == "auto" and g.n <= MAX_ENUM_VERTICES):
        ensemble = enumerate_forests(g) if ensemble is None else ensemble
        # the separation mask does not depend on q: classify each forest once
        hit = separation_mask(ensemble, x, y)
        return ExactRoute("enum", lambda q: ensemble.probability(q, hit))
    if method == "tree" or (method == "auto" and is_tree(g)):
        return ExactRoute("tree", TreePairCorrelation(g, x, y).at)
    closed = _closed_form_pair(family, x, y)
    if closed is None:
        if method == "closed":
            raise ParameterError("method 'closed' needs a family pair with a closed form")
        return None
    return ExactRoute("closed", closed)


# -- family closed forms --------------------------------------------------------


def _closed_form_pair(family: FamilySpec | None, x: int, y: int) -> Callable[[float], float] | None:
    """The family closed form for one pair as a function of q, or None."""
    if isinstance(family, Bottleneck):
        check_vertices(family.n + family.m, (x, y))
    elif isinstance(family, (Path, Star, CommunityStar)):
        check_vertices(family.n, (x, y))
    if x == y:
        raise ParameterError("need two distinct vertices")
    if isinstance(family, Path):
        lo, hi = min(x, y) + 1, max(x, y) + 1
        return lambda q: path_correlation(family.n, lo, hi, q)
    if isinstance(family, Star):
        kind = "center_leaf" if 0 in (x, y) else "leaf_leaf"
        return lambda q: getattr(star_quantities(family.n, family.w, q), kind)
    if isinstance(family, CommunityStar):
        in_v1 = lambda v: 1 <= v <= family.k
        if 0 in (x, y):
            kind = "center_v1" if in_v1(y if x == 0 else x) else "center_vw"
        else:
            kind = ("vw_vw", "v1_vw", "v1_v1")[in_v1(x) + in_v1(y)]
        return lambda q: getattr(community_star_quantities(family.n, family.k, family.w, q), kind)
    if isinstance(family, Bottleneck) and {x, y} == {0, family.n}:
        return lambda q: bottleneck_quantities(family.n, family.m, family.w, q).bridge
    return None


def closed_form_correlation(family: FamilySpec | None, x: int, y: int, q: float) -> float | None:
    """Family closed form for one pair, or None when the family has none."""
    closed = _closed_form_pair(family, x, y)
    return None if closed is None else closed(q)


def closed_form_z(family: FamilySpec | None, q: float) -> LogValue | None:
    """Family closed form for the partition function det(qI - L), or None."""
    if isinstance(family, Path):
        return z_path(family.n, q)
    if isinstance(family, Cycle):
        return z_cycle(family.n, q)
    if isinstance(family, Complete):
        return z_complete(family.n, q)
    if isinstance(family, Star) and family.n >= 3:
        return star_quantities(family.n, family.w, q).z
    if isinstance(family, CommunityStar) and family.n >= 3:
        return community_star_quantities(family.n, family.k, family.w, q).z
    if isinstance(family, Bottleneck) and min(family.n, family.m) >= 2:
        return bottleneck_quantities(family.n, family.m, family.w, q).z
    return None


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


def sweep(
    target: WeightedDigraph | FamilySpec,
    q_grid: Sequence[float],
    queries: Sequence[Query],
    replicas: int,
    seed: int,
    family: FamilySpec | None = None,
) -> SweepTable:
    """Exact values (where a method exists) and MC estimates over a q-grid.

    ``target`` is a graph or a family spec, which is built here; ``family``
    names the spec a graph target was built from, so its closed forms apply
    without a second build.

    The exact column of a correlation query comes from :func:`exact_route`,
    resolved once per distinct pair before any row is computed (None where no
    route applies), all pairs sharing one enumerated ensemble when n <= 8;
    root queries solve against one factorization of qI - L per row
    (:func:`roots_marginal`). ``replicas == 0`` skips sampling and fills
    only the exact column. Each (q, query) row draws its own replica
    streams, derived from ``seed`` and the row index, from one sampler per q.
    """
    seed = check_seed(seed)
    if isinstance(target, WeightedDigraph):
        g = target
    elif family is not None:
        raise ParameterError("give the family spec as the target or as family=, not both")
    else:
        family, g = target, make_family(target)
    qs = [float(q) for q in q_grid]
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ParameterError("q grid must be strictly ascending")
    for q in qs:
        check_q(q)
    if replicas < 0:
        raise ParameterError(f"replica count must be nonnegative, got {replicas}")
    routes: dict[tuple[int, int], ExactRoute | None] = {}
    ensemble = None
    for query in queries:
        if isinstance(query, RootQuery):
            check_vertices(g.n, query.vertices)
        elif (query.x, query.y) not in routes:
            check_vertices(g.n, (query.x, query.y))
            if ensemble is None and g.n <= MAX_ENUM_VERTICES:
                ensemble = enumerate_forests(g)
            routes[query.x, query.y] = exact_route(g, query.x, query.y, family, ensemble=ensemble)
    rows: list[SweepRow] = []
    for q in qs:
        sampler = forest_sampler(g, q) if replicas > 0 else None
        for query in queries:
            if isinstance(query, CorrelationQuery):
                route = routes[query.x, query.y]
                exact = None if route is None else route.at(q)
                count, asked = _separations, (query.x, query.y)
            else:
                exact = roots_marginal(g, q, query.vertices)
                count, asked = _all_roots, (query.vertices,)
            estimate = stderr = None
            row_seed = split_seed(seed, len(rows))
            if sampler is not None:
                stats = SampleStats.from_counts(count(sampler, replicas, row_seed, *asked), replicas, row_seed)
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
