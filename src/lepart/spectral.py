"""Exact observables of the rooted-forest measure.

The measure on spanning rooted forests of a weighted digraph G with killing
rate q > 0 puts mass q^{#roots} * prod(edge weights) on each forest; its
normalizing constant is det(qI - L) with L the graph Laplacian. qI - L is a
sparse nonsingular M-matrix, so the partition function and the killed-walk
hitting probabilities come from one sparse LU factorization (SuperLU, via
``scipy.sparse.linalg.splu``). Roots form a determinantal process with dense
kernel q(qI - L)^{-1}, and on a tree the probability that two vertices share
a block is a sum of positive products of subtree determinants, which one
leaf-to-path elimination evaluates in O(n).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import NumericError, ParameterError, StructureError, check_q
from .graphs import WeightedDigraph, check_vertices, is_tree, laplacian, leaf_first, tree_path
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
    "TreePairCorrelation",
]


def _shifted(g: WeightedDigraph, q: float) -> sparse.csr_array:
    """qI - L in CSR form, with every diagonal entry stored."""
    adjacency = sparse.csr_array((g.weights, g.indices, g.indptr), shape=(g.n, g.n))
    return sparse.diags_array(q + g.out_weight, format="csr") - adjacency


def _lu(M: sparse.csr_array):
    """Sparse LU factors Pr M Pc = L U of M, with L unit lower triangular."""
    try:
        return splu(M.tocsc())
    except RuntimeError as exc:
        raise NumericError(f"sparse LU of qI - L failed: {exc}") from exc


def _parity(perm: np.ndarray) -> int:
    """Sign of a permutation, (-1)^(n - number of cycles).

    Pointer doubling: after k rounds, low[i] is the least index among the
    first 2^k images of i, so after ceil(log2 n) rounds it is the least index
    of i's cycle, and each cycle has exactly one i with low[i] == i.
    """
    n = len(perm)
    ids = np.arange(n)
    low, step = ids, perm
    for _ in range((n - 1).bit_length()):
        low = np.minimum(low, low[step])
        step = step[step]
    return -1 if (n - np.count_nonzero(low == ids)) % 2 else 1


def partition_function(g: WeightedDigraph, q: float) -> LogValue:
    """Normalizing constant det(qI - L) of the forest measure, in log space.

    From the sparse LU factors: log|det| is the sum of log|U_ii|, and the
    sign is that of U's diagonal times the parities of both permutations.
    """
    check_q(q)
    lu = _lu(_shifted(g, q))
    u = lu.U.diagonal()
    sign = (-1) ** int(np.count_nonzero(u < 0)) * _parity(lu.perm_r) * _parity(lu.perm_c)
    if sign <= 0:
        raise NumericError(f"partition function came out nonpositive at q={q}")
    return LogValue.from_log(float(np.sum(np.log(np.abs(u)))))


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
    check_vertices(len(kernel.matrix), idx)
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

    Solves ``(q + W(v)) h(v) = sum_z w(v, z) h(z)`` for v != y with
    h(y) = 1, W(v) the total out-weight: the system qI - L with row y
    replaced by the unit row, factored sparse. Returns h(x).
    """
    check_q(q)
    check_vertices(g.n, (x, y))
    if x == y:
        raise ParameterError("need two distinct vertices")
    M = _shifted(g, q)
    row = slice(M.indptr[y], M.indptr[y + 1])
    M.data[row] = M.indices[row] == y
    rhs = np.zeros(g.n)
    rhs[y] = 1.0
    return float(_lu(M).solve(rhs)[x])


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
    check_vertices(g.n, (x, y))
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
        return min(1.0, max(0.0, u))


def tree_correlation(g: WeightedDigraph, x: int, y: int, q: float) -> float:
    """P(x and y fall in different trees) for any two vertices of a tree."""
    return TreePairCorrelation(g, x, y).at(q)
