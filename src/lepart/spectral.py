"""Exact observables of the rooted-forest measure.

The measure on spanning rooted forests of a weighted digraph G with killing
rate q > 0 puts mass q^{#roots} * prod(edge weights) on each forest; its
normalizing constant is det(qI - L) with L the graph Laplacian, and the roots
form a determinantal process with kernel q(qI - L)^{-1}. qI - L is a sparse
nonsingular M-matrix, factored in one place (``_factor``: SuperLU without row
pivoting). The partition function is the product of its pivots; hitting
probabilities and root marginals are solves against it. The dense kernel
(:func:`green_kernel`) is only an oracle. On a tree the probability that two
vertices share a block is a sum of positive products of subtree determinants,
which one leaf-to-path elimination evaluates in O(n).
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import NumericError, ParameterError, StructureError, check_q
from .graphs import WeightedDigraph, check_vertices, is_tree, laplacian, leaf_first, tree_path
from .logvalue import LogValue

__all__ = [
    "partition_function",
    "green_kernel",
    "roots_marginal",
    "laplacian_spectrum",
    "expected_root_count",
    "hitting_prob",
    "tree_correlation",
    "TreePairCorrelation",
]


def _factor(g: WeightedDigraph, q: float):
    """SuperLU factors P M P^T = L U of M = qI - L, the one factorization here.

    M is a nonsingular M-matrix, so it needs no row pivoting: with the
    threshold at 0 and a symmetric fill-reducing order, every pivot is the
    diagonal entry and positive, the row and column permutations coincide,
    and log det M is the sum of log U_ii. A pivot that is not positive (or a
    permutation pair that differs) means the factorization broke down.
    """
    check_q(q)
    adjacency = sparse.csr_array((g.weights, g.indices, g.indptr), shape=(g.n, g.n))
    M = (sparse.diags_array(q + g.out_weight, format="csr") - adjacency).tocsc()
    try:
        lu = splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise NumericError(f"sparse LU of qI - L failed at q={q}: {exc}") from exc
    if not (np.all(lu.U.diagonal() > 0) and np.array_equal(lu.perm_r, lu.perm_c)):
        raise NumericError(f"sparse LU of qI - L lost its positive diagonal pivots at q={q}")
    return lu


def partition_function(g: WeightedDigraph, q: float) -> LogValue:
    """Normalizing constant det(qI - L) of the forest measure, in log space."""
    return LogValue.from_log(float(np.sum(np.log(_factor(g, q).U.diagonal()))))


def green_kernel(g: WeightedDigraph, q: float) -> np.ndarray:
    """The dense matrix q(qI - L)^{-1}, by a dense solve.

    Row v is the distribution of the killed walk's death position started at
    v, so rows sum to 1 and entries lie in [0, 1]. Only the tests and the
    cross-checks call it, as an oracle for the sparse routes below.
    """
    check_q(q)
    M = q * np.eye(g.n) - laplacian(g)
    try:
        return np.linalg.solve(M, q * np.eye(g.n))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"failed to invert qI - L at q={q}: {exc}") from exc


def roots_marginal(g: WeightedDigraph, q: float, vertices) -> float:
    """Probability that every vertex of the set A is a root: det of q(qI - L)^{-1}_AA.

    The |A| columns of the kernel come from |A| solves against one factorization.
    """
    vertices = tuple(vertices)
    check_vertices(g.n, vertices)
    idx = sorted(set(int(v) for v in vertices))
    if not idx:
        raise ParameterError("need a nonempty vertex set")
    rhs = np.zeros((g.n, len(idx)))
    rhs[idx, range(len(idx))] = q
    return float(np.linalg.det(_factor(g, q).solve(rhs)[idx]))


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

    With G = (qI - L)^{-1}, the strong Markov property at the hitting time of
    y gives G_xy = P_x(hit y) G_yy, so one solve against e_y answers it.
    """
    check_vertices(g.n, (x, y))
    if x == y:
        raise ParameterError("need two distinct vertices")
    rhs = np.zeros(g.n)
    rhs[y] = 1.0
    column = _factor(g, q).solve(rhs)
    return float(column[x] / column[y])


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
        if not is_tree(g):
            raise StructureError("operation requires a tree (as an undirected graph)")
        path = tree_path(g, x, y)
        self.path = path
        self.d = len(path) - 1
        self._n = g.n
        # Hung from x, every vertex off the path points toward the path, so
        # the elimination list, leaves first, is the reversed breadth-first
        # order without the path vertices.
        order, parent, up, down = leaf_first(g, x)
        self._steps = list(zip(path[1:], down[path[1:]].tolist(), up[path[1:]].tolist()))
        off_path = np.ones(g.n, dtype=bool)
        off_path[path] = False
        v = order[off_path[order]][::-1]
        self._elim = list(zip(v.tolist(), parent[v].tolist(), up[v].tolist(), down[v].tolist()))

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
        return min(max(u, 0.0), 1.0)  # clamped; a nan stays nan


def tree_correlation(g: WeightedDigraph, x: int, y: int, q: float) -> float:
    """P(x and y fall in different trees) for any two vertices of a tree."""
    return TreePairCorrelation(g, x, y).at(q)
