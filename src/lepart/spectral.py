"""Exact observables of the rooted-forest measure.

The measure on spanning rooted forests of a weighted digraph G with killing
rate q > 0 puts mass q^{#roots} * prod(edge weights) on each forest; its
normalizing constant is det(qI - L) with L the graph Laplacian, and the roots
form a determinantal process with kernel q(qI - L)^{-1}. qI - L is a
nonsingular M-matrix, and ``_factor`` factors its transpose without row
pivoting by one of two routes, chosen by the share of nonzeros: LAPACK's
dense LU on dense graphs, where SuperLU's fill costs more than the dense
work, with qI - L written by one scatter of -w at the graph's CSR keys and
q + W(v) on the diagonal of a zeroed buffer, and SuperLU on sparse ones,
where it reads the graph's own CSR arrays, with q + W(v) inserted into each
row, as compressed columns. When q is lost to rounding in every q + W(v),
the stored matrix would be -L, which is singular, and both routes raise
:class:`~lepart.errors.NumericError` before they factor. The transpose is
harmless: the determinant is the same, and a solve against qI - L asks
for the transposed system. On an undirected graph the transpose is qI - L
itself, entry for entry. The partition function is the product of the
pivots; hitting probabilities and root marginals are solves against them.
The dense kernel (:func:`green_kernel`) is only an oracle. On a tree,
eliminating every vertex into its parent, leaves first, forms each pivot as
a sum of positive terms (:func:`_tree_pivots`), which gives the partition
function without a factorization, and the probability that two vertices
share a block is a sum of positive products of subtree determinants, which
one leaf-to-path elimination evaluates in O(n).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NumericError, ParameterError, StructureError, check_q
from .graphs import WeightedDigraph, _dense, check_vertices, is_tree, laplacian, leaf_first
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


def _transposed(g: WeightedDigraph, q: float):
    """(qI - L)^T in CSC form: row v of qI - L is the graph's CSR row v, negated, with q + W(v) inserted at v."""
    from scipy import sparse
    n = g.n
    # the CSR keys v * n + u increase, so v's diagonal key v * (n + 1) finds its slot in row v
    at = np.searchsorted(g._keys, np.arange(n) * (n + 1))
    data = np.insert(-g.weights, at, q + g.out_weight)
    indices = np.insert(g.indices, at, np.arange(n))
    return sparse.csc_array((data, indices, g.indptr + np.arange(n + 1)), shape=(n, n))


#: Share of nonzeros of qI - L, (nnz + n) / n^2, from which :func:`_factor` takes the dense
#: route. Timed against SuperLU on random graphs and on the families (CHANGES.md), dense LU
#: won from shares of 1-2% on graphs with fill, and from about 2.5% on trees, which have none.
DENSE_SHARE = 1 / 40


def _factor(g: WeightedDigraph, q: float):
    """The pivots of M^T = (qI - L)^T without row pivoting, and ``solve(rhs)``, which returns M^{-1} rhs.

    M^T is a nonsingular M-matrix and strictly diagonally dominant by
    columns, so its LU needs no row pivoting: every pivot is positive, and
    log det M is the sum of their logs. A pivot that is not positive, or a
    row swap, means the factorization broke down to rounding. When every
    q + W(v) rounds to W(v), the stored M is exactly -L, which is singular:
    that raises before either route factors.

    Dense graphs, with (nnz + n) / n^2 >= :data:`DENSE_SHARE`: M = qI - L
    is written into a zeroed n x n buffer by one scatter of -w at the CSR
    keys and q + W(v) on the diagonal (:func:`~lepart.graphs._dense`), so
    its entries equal :func:`_transposed`'s and its zeros are +0.0.
    LAPACK's dgetrf factors M^T, the F-ordered view of that buffer, and
    dgetrs solves against M by the transposed solve. LAPACK is called
    directly: SciPy's ``lu_factor`` would only warn on a zero pivot. Sparse
    graphs: SuperLU factors
    P M^T P^T = L U of :func:`_transposed`; with the threshold at 0 and a
    symmetric fill-reducing order, the row and column permutations
    coincide unless a row was swapped. A solve asks it for the transposed
    system, or for the plain one on a symmetric graph, where the factored
    matrix is M itself and the transposed solve would round differently.
    """
    check_q(q)
    n = g.n
    diagonal = q + g.out_weight
    if np.array_equal(diagonal, g.out_weight):
        raise NumericError(f"q={q} is lost to rounding in every q + W(v): qI - L is stored as -L, which is singular")
    if len(g.indices) + n >= DENSE_SHARE * n * n:
        from scipy.linalg.lapack import dgetrf, dgetrs
        lu, piv, info = dgetrf(_dense(g, -g.weights, diagonal).T, overwrite_a=True)
        pivots = lu.diagonal()
        if info != 0 or not (np.all(pivots > 0) and np.array_equal(piv, np.arange(n))):
            raise NumericError(f"dense LU of qI - L lost its positive diagonal pivots at q={q}")
        return pivots, lambda rhs: dgetrs(lu, piv, rhs, trans=1)[0]
    from scipy.sparse.linalg import splu
    try:
        lu = splu(_transposed(g, q), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise NumericError(f"sparse LU of qI - L failed at q={q}: {exc}") from exc
    pivots = lu.U.diagonal()
    if not (np.all(pivots > 0) and np.array_equal(lu.perm_r, lu.perm_c)):
        raise NumericError(f"sparse LU of qI - L lost its positive diagonal pivots at q={q}")
    return pivots, lambda rhs: lu.solve(rhs, trans="N" if g.is_symmetric else "T")


def partition_function(g: WeightedDigraph, q: float) -> LogValue:
    """Normalizing constant det(qI - L) of the forest measure, in log space.

    On a tree, eliminating each vertex into its parent, leaves first, leaves
    the pivot s_v + w(v, parent) at v and s_0 at vertex 0, where s_v are the
    positive pivots of :func:`_tree_pivots`, so log Z is the sum of their
    logs: no factorization, no SciPy, and no subtraction, so no digits are
    lost at small q. Other graphs take :func:`_factor`'s pivots.
    """
    if is_tree(g):
        check_q(q)
        _, _, up, s = _tree_pivots(g, q)
        return LogValue(float(np.sum(np.log(np.add(s, up)))))
    return LogValue(float(np.sum(np.log(_factor(g, q)[0]))))


def green_kernel(g: WeightedDigraph, q: float) -> np.ndarray:
    """The dense matrix q(qI - L)^{-1}, by a dense solve.

    Row v is the distribution of the killed walk's death position started at
    v, so rows sum to 1 and entries lie in [0, 1]. Only the tests and the
    cross-checks call it, as an oracle for the sparse routes below.
    """
    check_q(q)
    try:
        return np.linalg.solve(_dense(g, -g.weights, q + g.out_weight), q * np.eye(g.n))
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
    return float(np.linalg.det(_factor(g, q)[1](rhs)[idx]))


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
    column = _factor(g, q)[1](rhs)
    return float(column[x] / column[y])


def _pivots(q: float, n: int, steps, bound: list[float] | None = None) -> list[float]:
    """Pivots s_v = q + sum_c w(v, c) s_c / (s_c + w(c, v)) by vertex.

    Step j, (c, v, w(c, v), w(v, c)), adds child c's term to v; every vertex
    comes after its descendants. Given a list ``bound``, step j appends v's
    pivot after it: the partial sums that only the tree sampler reads.
    """
    s = [q] * n
    if bound is None:
        for c, v, w_cv, w_vc in steps:
            s_c = s[c]
            s[v] += w_vc * s_c / (s_c + w_cv)
        return s
    append = bound.append
    for c, v, w_cv, w_vc in steps:
        s_c = s[c]
        s[v] = s_v = s[v] + w_vc * s_c / (s_c + w_cv)
        append(s_v)
    return s


def _tree_pivots(g: WeightedDigraph, q: float, bound: list[float] | None = None):
    """``(order, parent, up, s)``: :func:`~lepart.graphs.leaf_first` and the :func:`_pivots` of the tree g
    with every vertex eliminated into its parent, in reversed breadth-first order."""
    order, parent, up, down = leaf_first(g)
    v = order[:0:-1]
    steps = zip(v.tolist(), parent[v].tolist(), up[v].tolist(), down[v].tolist())
    return order, parent, up, _pivots(q, g.n, steps, bound)


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
    ``at`` runs it over the pieces, then along the path, carrying the
    separation probability itself, a weighted mean of positive terms, and
    not its product with the pivot, which is about q^2. Every quantity stays
    below q + W(v) and every update adds positive terms, so a call costs
    O(n) without cancellation, overflow or underflow, and a tiny separation
    probability keeps its relative precision (the tests go down to q = 1e-300).
    ``path`` is the tree path z_0 = x, ..., z_d = y.

    The pieces come from the tree hung from vertex 0 (:func:`leaf_first`),
    so no search is made from x: x and y climb to their lowest common
    ancestor, and its ancestors are eliminated from 0 downward with their
    pointers reversed, each into its child toward the path. Every pivot adds
    its pieces' terms in decreasing id order, as when the tree is hung from
    x, so the values do not depend on where it is hung.
    """

    def __init__(self, g: WeightedDigraph, x: int, y: int):
        if not is_tree(g):
            raise StructureError("operation requires a tree (as an undirected graph)")
        check_vertices(g.n, (x, y))
        if x == y:
            raise ParameterError("need two distinct vertices")
        order, parent, up, down = leaf_first(g)
        above = parent.tolist()
        rise = [x]  # x and its ancestors
        while rise[-1]:
            rise.append(above[rise[-1]])
        height = {v: i for i, v in enumerate(rise)}
        fall = [y]  # y and its ancestors, up to the lowest common one, rise[k]
        while fall[-1] not in height:
            fall.append(above[fall[-1]])
        k = height[fall[-1]]
        # the path climbs rise to the lowest common ancestor and descends fall; chain runs from 0
        # down to that ancestor, and each vertex of it but the last is eliminated into the next
        chain, rise, fall = np.array(rise[k:][::-1]), rise[:k], fall[-2::-1]
        self.path = path = [*rise, int(chain[-1]), *fall]
        self.d = len(path) - 1
        self._n = g.n
        fwd, back = np.concatenate((up[rise], down[fall])), np.concatenate((down[rise], up[fall]))
        self._steps = list(zip(path[1:], fwd.tolist(), back.tolist()))
        off = np.ones(g.n, dtype=bool)
        off[path] = off[chain] = False
        v = order[off[order]][::-1]  # the other vertices, each into its parent, leaves first
        into = chain[1:]
        c, p = np.concatenate((v, chain[:-1])), np.concatenate((parent[v], into))
        w_cp, w_pc = np.concatenate((up[v], down[into])), np.concatenate((down[v], up[into]))
        # A chain vertex takes its predecessor's term in id order among its children's, as when
        # hung from x: the steps into the chain, predecessors included, go last, by chain position
        # and then by decreasing id. Where ids increase away from 0 that is the order they came in.
        rank = np.full(g.n, -1)
        rank[chain] = np.arange(len(chain))
        slot = rank[p]
        last = np.flatnonzero(slot >= 0)
        steps = np.concatenate((np.flatnonzero(slot < 0), last[np.lexsort((-c[last], slot[last]))]))
        self._elim = list(zip(c[steps].tolist(), p[steps].tolist(), w_cp[steps].tolist(), w_pc[steps].tolist()))

    def at(self, q: float) -> float:
        """Separation probability at killing rate q."""
        check_q(q)
        s = _pivots(q, self._n, self._elim)
        # Over the prefix z_0..z_m with the edge to z_{m+1} cut: sigma is the
        # last pivot of T, u is P(z_0, z_m in different trees), and cut is
        # 1 - prod_{j<m} w(z_j, z_{j+1}) / pivot_j. sigma * u, about q^2 at
        # small q, would underflow; u is a weighted mean of cut and itself.
        sigma, u, cut = s[self.path[0]], 0.0, 0.0
        for z, fwd, back in self._steps:
            pivot = sigma + fwd
            cut = (sigma + fwd * cut) / pivot
            carried = back * sigma / pivot
            sigma = s[z] + carried
            u = cut * (s[z] / sigma) + u * (carried / sigma)
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
