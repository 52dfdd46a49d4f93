"""Exhaustive enumeration of spanning rooted forests of tiny graphs.

The ensemble holds every forest as one row of a next-pointer array
(``parents``, :data:`~lepart.wilson.ROOT` marking a root), the same form
the samplers hand to estimators, together with its weight and root count.
So arbitrary event probabilities under the q-tilted measure, conditional
root-count expectations, and the derivative identity relating them can all
be evaluated exactly. Every forest's roots are found once, by the pointer
jumping that reduces sampled rows, so separation is a column comparison.
An event is a row predicate (:data:`RowPredicate`), applied once to the
whole ensemble as :func:`~lepart.estimators.mc_event` applies it to each
sampled block. Counts grow super-exponentially, hence the hard cap.

:func:`enumerate_forests` fills the array one vertex at a time, in numpy:
each partial row is repeated once per choice of the next vertex that closes
no cycle, in the order ROOT, then its out-neighbours in increasing order.
That is the order of a depth-first search over the same choices, which
``tests/oracles.py`` keeps as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ParameterError, SizeError, UndefinedConditionalError, check_q
from .graphs import WeightedDigraph
from .wilson import BLOCK_ENTRIES, ROOT, _roots

__all__ = [
    "MAX_ENUM_VERTICES",
    "ForestEnsemble",
    "enumerate_forests",
    "separation_mask",
    "brute_z",
    "brute_event",
    "brute_correlation",
    "russo_check",
]

MAX_ENUM_VERTICES = 8

#: An event on forests: (next-pointer rows (B, n), their roots (B, n)) -> bool array of shape (B,),
#: e.g. ``lambda nxt, roots: roots[:, 0] == roots[:, 2]``.
RowPredicate = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ForestEnsemble:
    """All spanning rooted forests of a graph, with weights and root counts.

    Row k of ``parents`` (int8, shape (F, n)) is forest k; ``weights[k]`` is
    the product of its edge weights and ``root_counts[k]`` (int8) its root count.
    The arrays, and ``roots``, are read-only.
    """

    graph: WeightedDigraph
    parents: np.ndarray
    weights: np.ndarray
    root_counts: np.ndarray
    #: (q, masses, their total) of the last q that :meth:`probability` was asked about
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.weights)

    @cached_property
    def roots(self) -> np.ndarray:
        """Every forest's root of every vertex (int8, read-only), by one :func:`_roots` pass in blocks."""
        step = max(1, BLOCK_ENTRIES // self.parents.shape[1])
        roots = np.empty_like(self.parents)
        for start in range(0, len(roots), step):
            roots[start : start + step] = _roots(self.parents[start : start + step])
        roots.flags.writeable = False
        return roots

    def masses(self, q: float) -> np.ndarray:
        """Unnormalized masses q^{#roots} * weight, one per forest."""
        check_q(q)
        return self.weights * q ** self.root_counts.astype(float)

    def probability(self, q: float, hit: np.ndarray) -> float:
        """Probability of the forests selected by the boolean mask ``hit``.

        The masses and their total are kept for the last q asked about, so
        the pairs of a sweep share one mass vector per q.
        """
        last = self._last
        if last is None or last[0] != q:
            masses = self.masses(q)
            last = (q, masses, masses.sum())
            object.__setattr__(self, "_last", last)  # frozen: the one cache slot
        _, masses, total = last
        return float(masses[hit].sum() / total)


def enumerate_forests(g: WeightedDigraph) -> ForestEnsemble:
    """Every spanning rooted forest of g, filled into a next-pointer array one vertex at a time.

    ``ends[k, u]`` is where the pointers already assigned in row k lead
    from u: ROOT, or the first vertex not yet assigned. Pointing v at p
    closes a cycle exactly when ``ends[k, p] == v``; once v is assigned,
    every chain that ended at v ends where v's new pointer leads. Weights
    are multiplied in vertex order, as the depth-first search does, so each
    row's weight is the same float. The chain ends are dropped before the
    rows are gathered, and not updated after the last vertex, so the peak
    stays near the size of the arrays returned.
    """
    if g.n > MAX_ENUM_VERTICES:
        raise SizeError(f"enumeration capped at n={MAX_ENUM_VERTICES}, got n={g.n}")
    n = g.n
    parents = np.full((1, n), ROOT, dtype=np.int8)
    # column ROOT is the sentinel slot n, so ends[:, ROOT] reads ROOT
    ends = np.append(np.arange(n), ROOT).astype(np.int8)[None, :]
    weights = np.ones(1)
    root_counts = np.zeros(1, dtype=np.int8)
    for v in range(n):
        lo, hi = g.indptr[v], g.indptr[v + 1]
        # choice 0 is ROOT, choice c >= 1 points v at its c-th out-neighbour
        ptr = np.append(ROOT, g.indices[lo:hi]).astype(np.int8)
        factor = np.append(1.0, g.weights[lo:hi])
        end = ends[:, ptr]
        keep = np.flatnonzero(end != v)  # row-major: each row's choices stay together, in order
        rows, choice = np.divmod(keep, len(ptr))
        if v < n - 1:  # no chain is followed after the last vertex
            ends = ends[rows]
            np.copyto(ends, end.ravel()[keep][:, None], where=ends == v)
        del keep, end
        parents = parents[rows]
        parents[:, v] = ptr[choice]
        weights = weights[rows]
        weights *= factor[choice]
        root_counts = root_counts[rows]
        root_counts += choice == 0
    for a in (parents, weights, root_counts):
        a.flags.writeable = False
    return ForestEnsemble(g, parents, weights, root_counts)


def separation_mask(ensemble: ForestEnsemble, x: int, y: int) -> np.ndarray:
    """Boolean mask of the forests in which x and y have different roots."""
    roots = ensemble.roots
    return roots[:, x] != roots[:, y]


def _event_mask(predicate: RowPredicate, nxt: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The predicate on rows ``nxt`` with roots ``roots``; :class:`ParameterError` unless one bool per row."""
    hit = predicate(nxt, roots)
    if not (isinstance(hit, np.ndarray) and hit.dtype == bool and hit.shape == nxt.shape[:1]):
        got = f"{hit.dtype} array of shape {hit.shape}" if isinstance(hit, np.ndarray) else type(hit).__name__
        raise ParameterError(f"an event predicate must return a bool array of shape ({len(nxt)},), got {got}")
    return hit


def brute_z(ensemble: ForestEnsemble, q: float) -> float:
    """Partition function by direct summation over the ensemble."""
    return float(np.sum(ensemble.masses(q)))


def brute_event(ensemble: ForestEnsemble, q: float, predicate: RowPredicate) -> float:
    """Probability of {predicate holds} under the q-tilted measure; the predicate sees every row at once."""
    return ensemble.probability(q, _event_mask(predicate, ensemble.parents, ensemble.roots))


def brute_correlation(ensemble: ForestEnsemble, q: float, x: int, y: int) -> float:
    """Probability that x and y land in different trees."""
    return ensemble.probability(q, separation_mask(ensemble, x, y))


def russo_check(
    ensemble: ForestEnsemble, q: float, predicate: RowPredicate
) -> tuple[float, float]:
    """Both sides of the root-count derivative identity for an event H.

    Returns (lhs, rhs) with lhs the central finite difference of
    q -> P(H) at step q*1e-6 (the probability is a rational function of q,
    so truncation error is negligible) and rhs the exact
    (1/q) P(H) (E[#roots | H] - E[#roots]) from the ensemble. This is a
    verification device, not a numerical-differentiation feature. The row
    predicate is applied once, to ``ensemble.parents`` and ``ensemble.roots``.
    """
    masses = ensemble.masses(q)
    hit = _event_mask(predicate, ensemble.parents, ensemble.roots)
    mass_hit = masses[hit].sum()
    if mass_hit == 0.0:
        raise UndefinedConditionalError("conditional root count undefined: P(event) = 0")
    total = masses.sum()
    prob = mass_hit / total
    mean_roots = float((masses * ensemble.root_counts).sum() / total)
    mean_roots_hit = float((masses[hit] * ensemble.root_counts[hit]).sum() / mass_hit)
    rhs = prob * (mean_roots_hit - mean_roots) / q

    h = q * 1e-6
    lhs = (ensemble.probability(q + h, hit) - ensemble.probability(q - h, hit)) / (2 * h)
    return lhs, rhs
