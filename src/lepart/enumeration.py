"""Exhaustive enumeration of spanning rooted forests of tiny graphs.

The ensemble carries every forest together with its weight and root count,
so arbitrary event probabilities under the q-tilted measure, conditional
root-count expectations, and the derivative identity relating them can all
be evaluated exactly. Counts grow super-exponentially, hence the hard cap on
the vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SizeError, UndefinedConditionalError, check_q
from .graphs import WeightedDigraph
from .wilson import ROOT, RootedForest

__all__ = [
    "MAX_ENUM_VERTICES",
    "ForestEnsemble",
    "enumerate_forests",
    "brute_z",
    "brute_event",
    "brute_correlation",
    "russo_check",
]

MAX_ENUM_VERTICES = 8

ForestPredicate = Callable[[RootedForest], bool]


@dataclass(frozen=True)
class ForestEnsemble:
    """All spanning rooted forests of a graph, with weights and root counts."""

    graph: WeightedDigraph
    forests: tuple[RootedForest, ...]
    weights: np.ndarray
    root_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.forests)

    def masses(self, q: float) -> np.ndarray:
        """Unnormalized masses q^{#roots} * weight, one per forest."""
        check_q(q)
        return self.weights * q ** self.root_counts.astype(float)


def enumerate_forests(g: WeightedDigraph) -> ForestEnsemble:
    """Depth-first assignment of parent pointers with incremental cycle checks."""
    if g.n > MAX_ENUM_VERTICES:
        raise SizeError(f"enumeration capped at n={MAX_ENUM_VERTICES}, got n={g.n}")
    n = g.n
    choices = [[(ROOT, 1.0)] + sorted(g.out[v].items()) for v in range(n)]
    parent = [ROOT] * n
    forests: list[RootedForest] = []
    weights: list[float] = []
    roots: list[int] = []

    def creates_cycle(v: int, p: int, depth: int) -> bool:
        # follow already-assigned pointers from p; vertices >= depth are unset
        u = p
        while u != ROOT and u < depth:
            u = parent[u]
        return u == v

    def assign(v: int, weight: float, nroots: int) -> None:
        if v == n:
            forests.append(RootedForest(tuple(parent)))
            weights.append(weight)
            roots.append(nroots)
            return
        for p, w in choices[v]:
            if p == ROOT:
                parent[v] = ROOT
                assign(v + 1, weight, nroots + 1)
            elif not creates_cycle(v, p, v):
                parent[v] = p
                assign(v + 1, weight * w, nroots)
        parent[v] = ROOT

    assign(0, 1.0, 0)
    return ForestEnsemble(g, tuple(forests), np.array(weights), np.array(roots))


def brute_z(ensemble: ForestEnsemble, q: float) -> float:
    """Partition function by direct summation over the ensemble."""
    return float(np.sum(ensemble.masses(q)))


def brute_event(ensemble: ForestEnsemble, q: float, predicate: ForestPredicate) -> float:
    """Probability of {predicate holds} under the q-tilted forest measure."""
    masses = ensemble.masses(q)
    hit = np.fromiter((predicate(f) for f in ensemble.forests), dtype=bool, count=len(ensemble))
    return float(masses[hit].sum() / masses.sum())


def brute_correlation(ensemble: ForestEnsemble, q: float, x: int, y: int) -> float:
    """Probability that x and y land in different trees."""
    return brute_event(ensemble, q, lambda f: f.root_of(x) != f.root_of(y))


def russo_check(
    ensemble: ForestEnsemble, q: float, predicate: ForestPredicate
) -> tuple[float, float]:
    """Both sides of the root-count derivative identity for an event H.

    Returns (lhs, rhs) with lhs the central finite difference of
    q -> P(H) at step q*1e-6 (the probability is a rational function of q,
    so truncation error is negligible) and rhs the exact
    (1/q) P(H) (E[#roots | H] - E[#roots]) from the ensemble. This is a
    verification device, not a numerical-differentiation feature.
    """
    masses = ensemble.masses(q)
    hit = np.fromiter((predicate(f) for f in ensemble.forests), dtype=bool, count=len(ensemble))
    mass_hit = masses[hit].sum()
    if mass_hit == 0.0:
        raise UndefinedConditionalError("conditional root count undefined: P(event) = 0")
    total = masses.sum()
    prob = mass_hit / total
    mean_roots = float((masses * ensemble.root_counts).sum() / total)
    mean_roots_hit = float((masses[hit] * ensemble.root_counts[hit]).sum() / mass_hit)
    rhs = prob * (mean_roots_hit - mean_roots) / q

    h = q * 1e-6
    lhs = (
        brute_event(ensemble, q + h, predicate) - brute_event(ensemble, q - h, predicate)
    ) / (2 * h)
    return lhs, rhs
