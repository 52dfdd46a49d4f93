"""Exact observables of the rooted-forest measure via dense linear algebra.

The measure on spanning rooted forests of a weighted digraph G with killing
rate q > 0 puts mass q^{#roots} * prod(edge weights) on each forest; its
normalizing constant is det(qI - L) with L the graph Laplacian. Roots form a
determinantal process with kernel q(qI - L)^{-1}, and on a tree the
probability that two vertices share a block is a sum of positive products of
subtree determinants, which one leaf-to-path elimination evaluates in O(n).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, StructureError, check_q
from .graphs import WeightedDigraph, is_tree, laplacian, tree_path, undirected_adjacency
from .logvalue import LogValue

__all__ = [
    "partition_function",
    "GreenKernel",
    "green_kernel",
    "roots_marginal",
    "laplacian_spectrum",
    "expected_root_count",
    "hitting_prob",
    "tree_correlation_adjacent",
    "tree_correlation",
    "tree_correlation_profile",
    "TreePairCorrelation",
]


def _logdet_shifted(L: np.ndarray, q: float) -> LogValue:
    """det(qI - L) as a LogValue, via LU with partial pivoting."""
    sign, logabs = np.linalg.slogdet(q * np.eye(L.shape[0]) - L)
    if sign == 0:
        raise NumericError(f"singular matrix qI - L at q={q}")
    return LogValue.from_log(float(logabs), int(sign))


def partition_function(g: WeightedDigraph, q: float) -> LogValue:
    """Normalizing constant det(qI - L) of the forest measure, in log space."""
    check_q(q)
    value = _logdet_shifted(laplacian(g), q)
    if value.sign <= 0:
        raise NumericError(f"partition function came out nonpositive at q={q}")
    return value


@dataclass(frozen=True)
class GreenKernel:
    """The matrix q(qI - L)^{-1} at killing rate q.

    Row v is the distribution of the killed walk's death position started at
    v, so rows sum to 1 and entries lie in [0, 1]. Principal minors give the
    probability that a vertex set is contained in the root set.
    """

    matrix: np.ndarray
    q: float


def green_kernel(g: WeightedDigraph, q: float) -> GreenKernel:
    check_q(q)
    M = q * np.eye(g.n) - laplacian(g)
    try:
        K = np.linalg.solve(M, q * np.eye(g.n))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"failed to invert qI - L at q={q}: {exc}") from exc
    return GreenKernel(K, q)


def roots_marginal(kernel: GreenKernel, vertices) -> float:
    """Probability that every vertex of the set is a root: det of the minor."""
    idx = sorted(set(int(v) for v in vertices))
    if not idx:
        raise ParameterError("need a nonempty vertex set")
    sub = kernel.matrix[np.ix_(idx, idx)]
    return float(np.linalg.det(sub))


def laplacian_spectrum(g: WeightedDigraph) -> np.ndarray:
    """Eigenvalues of -L sorted ascending (real parts when non-symmetric)."""
    L = laplacian(g)
    if g.is_symmetric:
        vals = np.linalg.eigvalsh(-L)
    else:
        vals = np.real(np.linalg.eigvals(-L))
    return np.sort(vals)


def expected_root_count(g: WeightedDigraph, q: float) -> float:
    """Mean number of roots: sum of q/(q + lambda_i) over the spectrum of -L."""
    check_q(q)
    lam = laplacian_spectrum(g)
    return float(np.sum(q / (q + lam)))


def hitting_prob(g: WeightedDigraph, x: int, y: int, q: float) -> float:
    """P_x(walk hits y before an independent exponential killing time of rate q).

    Solves, over vertices v != y,
    ``(q + W(v)) h(v) = sum_{z != y} w(v, z) h(z) + w(v, y)``
    with W(v) the total out-weight, and returns h(x).
    """
    check_q(q)
    if x == y:
        raise ParameterError("need two distinct vertices")
    others = [v for v in range(g.n) if v != y]
    pos = {v: i for i, v in enumerate(others)}
    A = np.zeros((len(others), len(others)))
    b = np.zeros(len(others))
    for i, v in enumerate(others):
        A[i, i] = q + g.out_weight[v]
        for z, w in g.out[v].items():
            if z == y:
                b[i] += w
            else:
                A[i, pos[z]] -= w
    h = np.linalg.solve(A, b)
    return float(h[pos[x]])


def _require_tree(g: WeightedDigraph) -> None:
    if not is_tree(g):
        raise StructureError("operation requires a tree (as an undirected graph)")


def tree_correlation_adjacent(g: WeightedDigraph, x: int, y: int, q: float) -> float:
    """P(x and y fall in different trees), for adjacent vertices of a tree.

    Computed from the two killed-walk hitting probabilities p = P_x(hit y
    first) and r = P_y(hit x first) as (1 - p - r + pr) / (1 - pr).
    """
    check_q(q)
    _require_tree(g)
    if g.weight(x, y) == 0.0 and g.weight(y, x) == 0.0:
        raise ParameterError(f"vertices {x} and {y} are not adjacent")
    p = hitting_prob(g, x, y, q)
    r = hitting_prob(g, y, x, q)
    return (1.0 - p - r + p * r) / (1.0 - p * r)


class TreePairCorrelation:
    """Exact two-point separation probability on a tree, reusable across q.

    x and y share a tree exactly when all d path edges z_0 - ... - z_d are in
    the forest; then one path vertex z_k points off the path (or is a root),
    those before it point forward and those after it point back. Cutting the
    path edges leaves one subtree (piece) per path vertex, so by the
    matrix-forest theorem

        P(same) = sum_k s_k prod_{j<k} w(z_j, z_{j+1}) prod_{j>k} w(z_j, z_{j-1}) / det T,

    where s_j is z_j's pivot after eliminating its piece leaf to root and T
    is the tridiagonal Schur complement of qI - L on the path. Pivots follow
    the positive recurrence s_v = q + sum_c w(v, c) s_c / (s_c + w(c, v)).
    ``at`` runs it over the pieces, then along the path with the sum carried
    as a ratio to the pivots. Every quantity stays below q + W(v) and every
    update adds positive terms, so a call costs O(n) without cancellation or
    overflow, and a tiny separation probability keeps its relative precision.
    """

    def __init__(self, g: WeightedDigraph, x: int, y: int):
        _require_tree(g)
        path = tree_path(g, x, y)
        self.path = path
        self.d = len(path) - 1
        self._n = g.n
        self._steps = [(b, g.weight(a, b), g.weight(b, a)) for a, b in zip(path, path[1:])]
        # Breadth-first from the whole path: path vertices are seen from the
        # start, so no path edge is crossed and every reached vertex hangs off
        # its parent inside one piece. Reversed, the list runs leaves first.
        adj, seen, queue = undirected_adjacency(g), set(path), list(path)
        self._elim: list[tuple[int, int, float, float]] = []
        for p in queue:  # the queue grows while it is read
            for v in adj[p]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
                    self._elim.append((v, p, g.weight(v, p), g.weight(p, v)))
        self._elim.reverse()

    def at(self, q: float) -> float:
        """Separation probability at killing rate q."""
        check_q(q)
        s = [q] * self._n
        for v, p, w_vp, w_pv in self._elim:
            s[p] += w_pv * s[v] / (s[v] + w_vp)
        # Over the prefix z_0..z_m with the edge to z_{m+1} cut: sigma is the
        # last pivot of T, sep is sigma * P(z_0, z_m in different trees), and
        # cut is 1 - prod_{j<m} w(z_j, z_{j+1}) / pivot_j.
        sigma, sep, cut = s[self.path[0]], 0.0, 0.0
        for z, fwd, back in self._steps:
            pivot = sigma + fwd
            cut = (sigma + fwd * cut) / pivot
            sep = s[z] * cut + back * sep / pivot
            sigma = s[z] + back * sigma / pivot
        u = sep / sigma
        if not -1e-8 <= u <= 1 + 1e-8:
            warnings.warn(
                f"tree correlation {u!r} left [0,1] beyond roundoff at q={q}",
                RuntimeWarning,
                stacklevel=2,
            )
        return min(1.0, max(0.0, u))


def tree_correlation(g: WeightedDigraph, x: int, y: int, q: float) -> float:
    """P(x and y fall in different trees) for any two vertices of a tree."""
    return TreePairCorrelation(g, x, y).at(q)


def tree_correlation_profile(g: WeightedDigraph, x: int, y: int, qs) -> np.ndarray:
    """Vectorized :func:`tree_correlation` over a grid of killing rates."""
    pair = TreePairCorrelation(g, x, y)
    return np.array([pair.at(float(q)) for q in qs])
