import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lepart import (
    Bottleneck,
    CommunityStar,
    Complete,
    Cycle,
    HierarchicalTree,
    ParameterError,
    Path,
    ROOT,
    SizeError,
    Star,
    UndefinedConditionalError,
    WeightedDigraph,
    brute_correlation,
    brute_event,
    brute_z,
    complete_rooting_measure,
    enumerate_forests,
    make_family,
    mc_event,
    partition_function,
    russo_check,
    tree_correlation,
    z_complete,
)
from lepart.estimators import exact_route
from lepart.graphs import contract_edge
from oracles import OracleForest, enumerate_forests_dfs, oracle_forests, per_forest


def test_forest_counts():
    assert len(enumerate_forests(WeightedDigraph(1, ()))) == 1
    ens = enumerate_forests(make_family(Path(2)))
    assert {f.parent for f in oracle_forests(ens)} == {(ROOT, ROOT), (1, ROOT), (ROOT, 0)}
    assert len(enumerate_forests(make_family(Path(3)))) == 8
    assert brute_z(enumerate_forests(make_family(Cycle(3))), 1.0) == pytest.approx(16.0)


def test_forests_are_distinct_and_valid():
    g = make_family(Star(4, 2.0))
    ens = enumerate_forests(g)
    assert len({f.parent for f in oracle_forests(ens)}) == len(ens)
    for f in oracle_forests(ens):
        f.validate(g)


def test_size_cap():
    with pytest.raises(SizeError):
        enumerate_forests(make_family(Path(9)))


@pytest.mark.parametrize("fam", [Path(4), Cycle(4), Star(4, 2.0), Complete(4), Bottleneck(3, 3, 0.5)], ids=str)
def test_ensemble_matches_determinant(fam):
    g = make_family(fam)
    ens = enumerate_forests(g)
    for q in (0.5, 1.0, 2.0):
        assert brute_z(ens, q) == pytest.approx(partition_function(g, q).to_float(), rel=1e-9)


def test_brute_z_examples():
    assert brute_z(enumerate_forests(make_family(Path(2))), 1.0) == pytest.approx(3.0)
    # star partition: q(q+w)^{n-2}(q+nw) at n=4, w=2, q=1 -> 81
    assert brute_z(enumerate_forests(make_family(Star(4, 2.0))), 1.0) == pytest.approx(81.0)


def test_brute_event_examples():
    ens = enumerate_forests(make_family(Path(2)))
    assert brute_event(ens, 1.0, per_forest(lambda f: True)) == pytest.approx(1.0)
    assert brute_event(ens, 2.0, per_forest(lambda f: f.parent[0] == ROOT)) == pytest.approx(0.75)
    g3 = make_family(Path(3))
    ens3 = enumerate_forests(g3)
    same = brute_event(ens3, 1.0, per_forest(lambda f: f.root_of(0) == f.root_of(2)))
    assert same == pytest.approx(1.0 - tree_correlation(g3, 0, 2, 1.0), abs=1e-12)


def test_russo_examples():
    ens = enumerate_forests(make_family(Path(2)))
    for q in (0.3, 1.0, 3.0):
        lhs, rhs = russo_check(ens, q, per_forest(lambda f: f.parent[0] == ROOT))
        assert rhs == pytest.approx(1.0 / (q + 2) ** 2, rel=1e-12)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))
    lhs, rhs = russo_check(ens, 1.0, per_forest(lambda f: True))
    assert lhs == 0.0 and rhs == 0.0
    ens3 = enumerate_forests(make_family(Cycle(3)))
    lhs, rhs = russo_check(ens3, 1.0, per_forest(lambda f: f.root_count == 2))
    assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))
    with pytest.raises(UndefinedConditionalError):
        russo_check(ens, 1.0, per_forest(lambda f: False))


def _forest_image_under_contraction(f: OracleForest, x: int, y: int, mapping) -> tuple:
    new_parent = [None] * (f.n - 1)
    for v in range(f.n):
        if v == x:
            continue
        p = f.parent[v]
        if p == ROOT:
            new_parent[mapping[v]] = ROOT
        else:
            new_parent[mapping[v]] = mapping[y] if p == x else mapping[p]
    return tuple(new_parent)


@pytest.mark.parametrize("fam", [Path(3), Cycle(3), Star(4, 2.0), Complete(4)], ids=str)
@pytest.mark.parametrize("q", (0.5, 2.0))
def test_spatial_markov_property(fam, q):
    """Conditioning on an edge equals the forest measure of the contraction.

    Parallel edges merge under contraction, so forests of the original graph
    are grouped by their contracted image before comparing masses.
    """
    g = make_family(fam)
    ens = enumerate_forests(g)
    masses = ens.masses(q)
    for x, y, _ in g.edges:
        gc, mapping = contract_edge(g, x, y)
        ensc = enumerate_forests(gc)
        masses_c = ensc.masses(q)
        grouped: dict[tuple, float] = {}
        mass_e = 0.0
        for f, m in zip(oracle_forests(ens), masses):
            if f.parent[x] != y:
                continue
            mass_e += m
            img = _forest_image_under_contraction(f, x, y, mapping)
            grouped[img] = grouped.get(img, 0.0) + m
        for fc, mc in zip(oracle_forests(ensc), masses_c):
            lhs = grouped.get(fc.parent, 0.0) / mass_e
            rhs = mc / masses_c.sum()
            assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("fam,x", [(Star(4), 0), (Star(4), 2), (Cycle(4), 1)], ids=str)
@pytest.mark.parametrize("q", (0.5, 2.0))
def test_graph_extension_single_vertex(fam, x, q):
    """Removing one vertex factorizes the unnormalized measure as stated."""
    g = make_family(fam)
    ens = enumerate_forests(g)
    masses = ens.masses(q)
    keep = [v for v in range(g.n) if v != x]
    idx = {v: i for i, v in enumerate(keep)}
    h = WeightedDigraph(len(keep), [(idx[a], idx[b], w) for a, b, w in g.edges if x not in (a, b)])
    ensh = enumerate_forests(h)
    acc_root: dict[tuple, float] = {}
    acc_noroot: dict[tuple, float] = {}
    for f, m in zip(oracle_forests(ens), masses):
        rest = [ROOT] * h.n
        for v in keep:
            p = f.parent[v]
            if p != ROOT and p != x:
                rest[idx[v]] = idx[p]
        key = tuple(rest)
        if f.parent[x] == ROOT:
            acc_root[key] = acc_root.get(key, 0.0) + m
        else:
            acc_noroot[key] = acc_noroot.get(key, 0.0) + m
    for fh, mh in zip(oracle_forests(ensh), ensh.masses(q)):
        roots_h = [keep[v] for v in fh.roots]
        rooted = q * mh * math.prod(1 + g.weight(r, x) / q for r in roots_h)
        assert acc_root.get(fh.parent, 0.0) == pytest.approx(rooted, rel=1e-10, abs=1e-12)
        unrooted = 0.0
        for yv in keep:
            w_xy = g.weight(x, yv)
            if w_xy == 0.0:
                continue
            r_y = keep[fh.root_of(idx[yv])]
            unrooted += w_xy * math.prod(1 + g.weight(r, x) / q for r in roots_h if r != r_y)
        assert acc_noroot.get(fh.parent, 0.0) == pytest.approx(mh * unrooted, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("q", (0.5, 2.0))
def test_complete_graph_rooting(n, q):
    g = make_family(Complete(n))
    ens = enumerate_forests(g)
    masses = ens.masses(q)
    assert masses.sum() == pytest.approx(z_complete(n, q).to_float(), rel=1e-10)
    for r in (1, 2):
        U = tuple(range(r))
        emp = sum(m for f, m in zip(oracle_forests(ens), masses) if all(f.parent[v] == ROOT for v in U))
        assert emp == pytest.approx(complete_rooting_measure(n, r, q).to_float(), rel=1e-10)


#: Root, block and edge events, each as a per-forest predicate and as the same event on rows.
EVENTS = [
    ("root-0", lambda f: f.parent[0] == ROOT, lambda nxt, roots: nxt[:, 0] == ROOT),
    (
        "roots-01",
        lambda f: f.parent[0] == ROOT and f.parent[1] == ROOT,
        lambda nxt, roots: (nxt[:, 0] == ROOT) & (nxt[:, 1] == ROOT),
    ),
    ("single-root", lambda f: f.root_count == 1, lambda nxt, roots: (nxt == ROOT).sum(1) == 1),
    ("many-roots", lambda f: f.root_count >= 2, lambda nxt, roots: (nxt == ROOT).sum(1) >= 2),
    ("even-roots", lambda f: f.root_count % 2 == 0, lambda nxt, roots: (nxt == ROOT).sum(1) % 2 == 0),
    ("not-root-0", lambda f: f.parent[0] != ROOT, lambda nxt, roots: nxt[:, 0] != ROOT),
    ("same-block-01", lambda f: f.root_of(0) == f.root_of(1), lambda nxt, roots: roots[:, 0] == roots[:, 1]),
    ("diff-block-01", lambda f: f.root_of(0) != f.root_of(1), lambda nxt, roots: roots[:, 0] != roots[:, 1]),
    (
        "singleton-0",
        lambda f: all(f.root_of(v) != 0 for v in range(1, f.n)) and f.parent[0] == ROOT,
        lambda nxt, roots: (roots == 0).sum(1) == 1,
    ),
    ("all-blocks-singletons", lambda f: f.root_count == f.n, lambda nxt, roots: (nxt == ROOT).all(1)),
    ("edge-01", lambda f: f.parent[0] == 1, lambda nxt, roots: nxt[:, 0] == 1),
    ("edge-10", lambda f: f.parent[1] == 0, lambda nxt, roots: nxt[:, 1] == 0),
]

EVENT_GRAPHS = [Path(3), Star(4), Cycle(3), Complete(4)]


def test_russo_predicate_library():
    """Derivative identity across root, block, and edge events on tiny graphs."""
    for fam in EVENT_GRAPHS:
        ens = enumerate_forests(make_family(fam))
        for q in (0.3, 1.0, 3.0):
            for name, pred, _ in EVENTS:
                lhs, rhs = russo_check(ens, q, per_forest(pred))
                assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs)), (fam, q, name)


@pytest.mark.parametrize("fam", EVENT_GRAPHS, ids=str)
def test_row_predicates_equal_the_per_forest_adapter(fam):
    """Each row form selects the adapter's forests, so both give the same floats."""
    ens = enumerate_forests(make_family(fam))
    for name, pred, row in EVENTS:
        assert (row(ens.parents, ens.roots) == per_forest(pred)(ens.parents, ens.roots)).all(), name
        for q in (0.3, 1.0, 3.0):
            assert brute_event(ens, q, row) == brute_event(ens, q, per_forest(pred)), (name, q)
            assert russo_check(ens, q, row) == russo_check(ens, q, per_forest(pred)), (name, q)


@pytest.mark.parametrize(
    "bad",
    [
        lambda nxt, roots: nxt[:, 0],  # not bool
        lambda nxt, roots: nxt == ROOT,  # one bool per entry
        lambda nxt, roots: (nxt[:, 0] == ROOT)[1:],  # one row short
        lambda nxt, roots: (nxt[:, 0] == ROOT).tolist(),  # not an array
        lambda nxt, roots: True,
    ],
    ids=["int", "2d", "short", "list", "scalar"],
)
def test_event_predicates_must_give_one_bool_per_row(bad):
    g = make_family(Cycle(3))
    ens = enumerate_forests(g)
    with pytest.raises(ParameterError, match="bool array of shape"):
        brute_event(ens, 1.0, bad)
    with pytest.raises(ParameterError, match="bool array of shape"):
        russo_check(ens, 1.0, bad)
    with pytest.raises(ParameterError, match="bool array of shape"):
        mc_event(g, 1.0, bad, 10, 1)


# -- the array enumeration against the depth-first search it replaced ------------

#: Every family, at sizes up to 8 vertices (Complete(8) is checked on its own below).
SMALL_FAMILIES = [
    *(Path(n) for n in (1, 2, 5, 8)),
    *(Cycle(n) for n in (3, 5, 8)),
    Star(2), Star(6, 0.3), Star(8, 2.5),
    *(Complete(n) for n in (2, 4, 6, 7)),
    CommunityStar(5, 2, 0.5), CommunityStar(8, 3, 2.0),
    HierarchicalTree(2, 2, (1.0, 4.0)), HierarchicalTree(3, 1, (0.7,)),
    Bottleneck(2, 2, 1.0), Bottleneck(4, 3, 0.5), Bottleneck(5, 3, 1.0), Bottleneck(4, 4, 3.0),
]


def assert_same_as_dfs(g: WeightedDigraph, pairs, qs) -> None:
    """Rows, weights, root counts and exact separation probabilities equal the DFS's."""
    ens, ref = enumerate_forests(g), enumerate_forests_dfs(g)
    assert ens.parents.dtype == np.int8 and ens.parents.shape == (len(ref), g.n)
    assert (ens.parents == ref.parents).all()
    assert (ens.weights == ref.weights).all()
    assert (ens.root_counts == ref.root_counts).all()
    for x, y in pairs:
        hit = np.array([f.root_of(x) != f.root_of(y) for f in oracle_forests(ref)], dtype=bool)
        route = exact_route(g, x, y, method="enum")
        for q in qs:
            want = ref.probability(q, hit)
            assert route.at(q) == want
            assert brute_correlation(ens, q, x, y) == want


@pytest.mark.parametrize("fam", SMALL_FAMILIES, ids=str)
def test_array_enumeration_matches_dfs(fam):
    g = make_family(fam)
    n = g.n
    pairs = sorted({(0, n - 1), (0, 1), (n // 2, n - 1)} & {(x, y) for x in range(n) for y in range(x + 1, n)})
    assert_same_as_dfs(g, pairs, (0.05, 1.0, 7.5))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_array_enumeration_matches_dfs_on_random_digraphs(n, data):
    """Digraphs with one-way edges and unequal weights in the two directions."""
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(["one", "both"]))
    weights = st.floats(0.05, 20.0)
    edges = []
    for u, v, kind in data.draw(st.lists(cells, max_size=3 * n, unique_by=lambda c: (min(c[0], c[1]), max(c[0], c[1])))):
        if u != v:
            edges.append((u, v, data.draw(weights)))
            if kind == "both":
                edges.append((v, u, data.draw(weights)))
    g = WeightedDigraph(n, edges)
    pairs = [(0, n - 1)] if n > 1 else []
    assert_same_as_dfs(g, pairs, (data.draw(st.floats(1e-3, 1e3)),))


def test_complete_8():
    ens = enumerate_forests(make_family(Complete(8)))
    assert len(ens) == 9**7
    assert brute_z(ens, 0.5) == pytest.approx(z_complete(8, 0.5).to_float(), rel=1e-12)


def test_enumeration_peak_memory_stays_near_the_ensemble():
    """The tracemalloc peak of one call is at most 3x the parents and weights it returns."""
    import tracemalloc

    g = make_family(Complete(7))
    tracemalloc.start()
    try:
        ens = enumerate_forests(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.root_counts.dtype == np.int8
    assert peak <= 3 * (ens.parents.nbytes + ens.weights.nbytes)


def test_ensemble_arrays_are_read_only():
    ens = enumerate_forests(make_family(Path(3)))
    for a in (ens.parents, ens.weights, ens.root_counts, ens.roots):
        with pytest.raises(ValueError):
            a[0] = 0


def test_ensemble_roots_are_found_once_block_by_block(monkeypatch):
    from lepart import enumeration

    g = make_family(Bottleneck(3, 3, 0.5))
    ens = enumerate_forests(g)
    monkeypatch.setattr(enumeration, "BLOCK_ENTRIES", 7 * g.n)  # blocks of 7 forests
    want = [[f.root_of(v) for v in range(g.n)] for f in oracle_forests(ens)]
    assert ens.roots.dtype == np.int8 and ens.roots.tolist() == want
    assert ens.roots is ens.roots


def test_russo_check_evaluates_the_predicate_once_per_forest():
    ens = enumerate_forests(make_family(Cycle(4)))
    calls = []

    def pred(f):
        calls.append(f)
        return f.root_of(0) == f.root_of(2)

    q = 0.8
    lhs, rhs = russo_check(ens, q, per_forest(pred))
    assert len(calls) == len(ens)
    h = q * 1e-6
    assert lhs == (brute_event(ens, q + h, per_forest(pred)) - brute_event(ens, q - h, per_forest(pred))) / (2 * h)
