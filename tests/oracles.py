"""Independent oracles for the path and cycle partition functions.

The library keeps one O(1) closed form each, :func:`lepart.z_path` and
:func:`lepart.z_cycle`. The other routes to the same numbers live here, so
the tests can hold the closed forms against them.

Path, ``z_path_oracle(n, q, method)``:

* ``combinatorial``: sum_k C(n+k-1, 2k-1) q^k via log-gamma terms and
  log-sum-exp (all terms positive);
* ``spectral``: product of (q + 2 - 2 cos(pi j / n)) over the Laplacian
  spectrum, capped at n <= 10^4;
* ``recurrence``: iterate Z_k = (q+2) Z_{k-1} - Z_{k-2} from Z_0 = 0,
  Z_1 = q with periodic rescaling, O(n);
* ``chebyshev``: q U_{n-1}(q/2 + 1) through the hyperbolic-sine form of
  the second-kind Chebyshev polynomial;
* ``closed``: the library's surd form.

Cycle, ``z_cycle_oracle(n, q, method)``:

* ``path``: Z_n + (2/q)(Z_n - Z_{n-1}) - 2 from path partition functions,
  with the subtractions done in log space (it cancels at small q);
* ``combinatorial``: the positive sum [C(n+k, 2k) + C(n+k-1, 2k)] q^k.

Each of these returns a :class:`lepart.LogValue`.

Adjacent tree vertices, ``adjacent_separation(g, x, y, q)``: the
probability that x and y fall in different trees, from the two killed-walk
hitting probabilities across the edge xy.

Wilson's walk cost, ``wilson_steps(g, q, root)``: the expected number of
walk steps per forest when the walks are rooted at ``root`` (the cemetery,
``ROOT``, or a vertex of an undirected graph), from one dense inverse.

Leaf-first pivots on a tree, ``tree_pivots(g, q, root, path)``: the
plain elimination loop s[p] += w(p, v) s[v] / (s[v] + w(v, p)), which
``TreeSampler`` and ``TreePairCorrelation`` must reproduce bit for bit, and
``tree_pair_separation(g, x, y, q)``, the two-point separation built on it.
The hypothesis strategy ``asymmetric_trees()`` draws small trees with
independent weights per direction, some edges one-way, so some of a
vertex's pick intervals have zero width.

Forest enumeration, ``enumerate_forests_dfs(g)``: the recursive
depth-first search that :func:`lepart.enumerate_forests` replaced, one
parent tuple per forest; the array enumeration must reproduce its rows,
weights and root counts exactly.

The factored matrix, ``reference_system(g, q)``: qI - L assembled by
SciPy sparse algebra (diagonal minus adjacency, converted to CSC), as
``spectral._factor`` once built it, and ``reference_factor(g, q)``, its
SuperLU factors with the library's options. On an undirected graph the
library's CSR-read-as-CSC matrix must equal it entry for entry, and its
values must equal this route's by ``==``.

Per-forest events: :class:`OracleForest` is a :class:`lepart.RootedForest`
with the per-forest root queries ``root_of`` (a chain walk) and
``root_count``, which the library left behind when events became row
predicates. ``oracle_forests(ensemble)`` gives one per ensemble row, and
``per_forest(pred)`` turns a predicate on such values into the row
predicate that ``brute_event``, ``russo_check`` and ``mc_event`` take, so
the tests can hold column expressions against it.
"""

import math

import numpy as np
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from lepart import (
    ROOT,
    ForestEnsemble,
    LogValue,
    ParameterError,
    RootedForest,
    StructureError,
    WeightedDigraph,
    hitting_prob,
    laplacian,
    z_path,
)
from lepart.graphs import leaf_first, tree_path

#: Spectral product evaluation is skipped above this size (cost and trig error).
MAX_SPECTRAL_N = 10_000

Z_PATH_METHODS = ("combinatorial", "spectral", "recurrence", "chebyshev", "closed")


def _log_binom(n, k):
    """log C(n, k), elementwise; -inf outside the triangle."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    out = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    return np.where((k < 0) | (k > n), -np.inf, out)


def _log_sinh(t):
    """log(sinh(t)) for t > 0 without overflow, and without cancellation at small t."""
    return t + math.log(-math.expm1(-2 * t)) - math.log(2.0)


def _log_sub(a, b):
    """log(e^a - e^b) for a > b."""
    return a + math.log1p(-math.exp(b - a))


def z_path_oracle(n, q, method):
    """Partition function of the n-vertex unit-weight path by ``method``."""
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
        return z_path(n, q)
    raise ParameterError(f"unknown z_path method {method!r}; known: {Z_PATH_METHODS}")


def _z_path_recurrence(n, q):
    prev, cur = 0.0, q  # Z_0, Z_1
    shift = 0.0
    for _ in range(n - 1):
        prev, cur = cur, (q + 2) * cur - prev
        if cur > 1e280:
            prev *= 1e-280
            cur *= 1e-280
            shift += 280 * math.log(10.0)
    return LogValue.from_log(math.log(cur) + shift)


def z_cycle_oracle(n, q, method):
    """Partition function of the n-vertex unit-weight cycle by ``method``."""
    if method == "path":
        log_zn, log_zn1 = z_path(n, q).log(), z_path(n - 1, q).log()
        log_sum = np.logaddexp(log_zn, math.log(2.0 / q) + _log_sub(log_zn, log_zn1))
        return LogValue.from_log(_log_sub(float(log_sum), math.log(2.0)))
    if method == "combinatorial":
        k = np.arange(1, n + 1)
        terms = np.logaddexp(_log_binom(n + k, 2 * k), _log_binom(n + k - 1, 2 * k)) + k * math.log(q)
        return LogValue.from_log(float(logsumexp(terms)))
    raise ParameterError(f"unknown z_cycle method {method!r}; known: path, combinatorial")


def adjacent_separation(g, x, y, q):
    """P(x and y in different trees) for adjacent vertices x, y of a tree.

    x and y share a tree exactly when one walk reaches the other across the
    edge before dying, so with p = P_x(hit y) and r = P_y(hit x) the answer
    is (1 - p - r + pr) / (1 - pr). It cancels when p and r are near 1.
    """
    p, r = hitting_prob(g, x, y, q), hitting_prob(g, y, x, q)
    return (1.0 - p - r + p * r) / (1.0 - p * r)


def tree_pivots(g, q, root, path=()):
    """Pivots of the tree g hung from ``root``, by vertex, and their partial sums.

    Every vertex but ``root`` and the ``path`` vertices is eliminated into
    its parent, leaves first (reversed breadth-first order), and ``bound``
    records the parent's pivot after each step.
    """
    order, parent = leaf_first(g, root)[:2]
    kept = {root, *path}
    s = [q] * g.n
    bound = []
    for v in order[::-1].tolist():
        if v not in kept:
            p = int(parent[v])
            s[p] += g.weight(p, v) * s[v] / (s[v] + g.weight(v, p))
            bound.append(s[p])
    return s, bound


@st.composite
def asymmetric_trees(draw):
    """A random tree with independent weights per direction, some edges one-way."""
    n = draw(st.integers(2, 9))
    weight = st.floats(0.1, 10.0)
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        for a, b in draw(st.sampled_from([((u, v), (v, u)), ((u, v),), ((v, u),)])):
            edges.append((a, b, draw(weight)))
    return WeightedDigraph(n, edges)


def tree_pair_separation(g, x, y, q):
    """P(x and y in different trees) on a tree: the path recurrence on :func:`tree_pivots`, clamped to [0, 1]."""
    path = tree_path(g, x, y)
    s, _ = tree_pivots(g, q, x, path)
    sigma, sep, cut = s[x], 0.0, 0.0
    for a, z in zip(path, path[1:]):
        fwd, back = g.weight(a, z), g.weight(z, a)
        pivot = sigma + fwd
        cut = (sigma + fwd * cut) / pivot
        sep = s[z] * cut + back * sep / pivot
        sigma = s[z] + back * sigma / pivot
    return min(max(sep / sigma, 0.0), 1.0)


def enumerate_forests_dfs(g):
    """Depth-first assignment of parent pointers with incremental cycle checks."""
    n = g.n
    choices = [[(ROOT, 1.0)] + sorted(g.out[v].items()) for v in range(n)]
    parent = [ROOT] * n
    forests, weights, roots = [], [], []

    def creates_cycle(v, p, depth):
        # follow already-assigned pointers from p; vertices >= depth are unset
        u = p
        while u != ROOT and u < depth:
            u = parent[u]
        return u == v

    def assign(v, weight, nroots):
        if v == n:
            forests.append(tuple(parent))
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
    parents = np.array(forests, dtype=np.int8).reshape(len(forests), n)
    return ForestEnsemble(g, parents, np.array(weights), np.array(roots))


class OracleForest(RootedForest):
    """A rooted forest with per-forest root queries."""

    @property
    def root_count(self):
        return len(self.roots)

    def root_of(self, v):
        """The root of the tree containing v, by following parent pointers."""
        parent = self.parent
        n = len(parent)
        steps = 0
        while parent[v] != ROOT:
            v = parent[v]
            steps += 1
            if steps > n:
                raise StructureError("parent pointers contain a cycle")
        return v


def oracle_forests(ensemble):
    """The ensemble's rows as :class:`OracleForest` values, in row order."""
    return [OracleForest(tuple(row)) for row in ensemble.parents.tolist()]


def per_forest(pred):
    """The row predicate that calls ``pred`` on the :class:`OracleForest` of each row."""
    def rows(nxt, roots):
        hits = (bool(pred(OracleForest(tuple(row)))) for row in nxt.tolist())
        return np.fromiter(hits, dtype=bool, count=len(nxt))
    return rows


def reference_system(g, q):
    """qI - L in CSC form, by SciPy sparse algebra from the graph's adjacency."""
    from scipy import sparse
    adjacency = sparse.csr_array((g.weights, g.indices, g.indptr), shape=(g.n, g.n))
    return (sparse.diags_array(q + g.out_weight, format="csr") - adjacency).tocsc()


def reference_factor(g, q):
    """SuperLU factors of :func:`reference_system`, with ``spectral._factor``'s options."""
    from scipy.sparse.linalg import splu
    return splu(reference_system(g, q), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def wilson_steps(g, q, root):
    """Expected walk steps per forest, sum_v c(v) R_eff(v, root) over the vertices and the cemetery.

    c(v) = q + W(v) and the cemetery's c is nq. With G = (qI - L)^-1,
    R_eff(v, cemetery) = G_vv and R_eff(v, h) = G_vv + G_hh - 2 G_vh.
    """
    G = np.linalg.inv(q * np.eye(g.n) - laplacian(g))
    c = q + g.out_weight
    if root == ROOT:
        return float(c @ np.diag(G))
    h = root
    return float(c @ (np.diag(G) + G[h, h] - 2 * G[:, h]) + g.n * q * G[h, h])
