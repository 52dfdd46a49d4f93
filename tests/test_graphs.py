import hashlib
import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lepart import (
    Bottleneck,
    CommunityStar,
    Complete,
    Cycle,
    FormatError,
    HierarchicalTree,
    ParameterError,
    Path,
    Star,
    WeightedDigraph,
    laplacian,
    load_edge_list,
    make_family,
    parse_family,
    save_edge_list,
    undirected,
)
from lepart import graphs
from lepart.graphs import (
    contract_edge,
    delete_edge,
    is_tree,
    leaf_first,
)
from lepart.spectral import TreePairCorrelation
from lepart.wilson import ForestSampler
from oracles import contract_edge_per_edge, delete_edge_per_edge, family_to_string, plain_search, tree_path

ALL_FAMILIES = [
    Path(5),
    Cycle(6),
    Star(5, 0.5),
    CommunityStar(6, 2, 0.25),
    HierarchicalTree(2, 3, (1.0, 2.0, 4.0)),
    Bottleneck(4, 3, 2.0),
    Complete(5),
]


def test_validation_errors():
    bad = [
        (FormatError, ((0, 0, 1.0),)),
        (FormatError, ((0, 1, 1.0), (0, 1, 2.0))),
        (FormatError, ((0, 1, 0.0),)),
        (FormatError, ((0, 1, math.inf), (1, 0, math.inf))),
        (FormatError, ((0, 1, math.nan),)),
        (FormatError, ((0, 1, -math.inf),)),
        (ParameterError, ((0, 5, 1.0),)),
        (ParameterError, ((-1, 0, 1.0),)),
        (ParameterError, ((0, 2**70, 1.0),)),
        # float ids are rejected, not truncated, as check_vertices rejects them in queries
        (ParameterError, ((0.7, 1, 1.0),)),
        (ParameterError, ((1, 0.5, 1.0),)),
        (ParameterError, ((0, 1.0, 1.0),)),
    ]
    for error, edges in bad:
        with pytest.raises(error):
            WeightedDigraph(2, edges)
        if max(max(x, y) for x, y, _ in edges) < 2**63:
            with pytest.raises(error):
                WeightedDigraph.from_arrays(2, *zip(*edges))
    with pytest.raises(ParameterError, match="vertex ids must be integers"):
        WeightedDigraph(3, [(0.7, 1, 1.0), (1, 2.9, 1.0)])
    with pytest.raises(ParameterError, match="vertex ids must be integers"):
        WeightedDigraph.from_arrays(3, np.array([0.5]), [1], [1.0])
    # the message names the first offending edge
    with pytest.raises(ParameterError, match=r"edge \(3,0\) of weight 2.0 is out of range for n=2"):
        WeightedDigraph(2, ((0, 1, 1.0), (3, 0, 2.0), (0, 7, 1.0)))


def test_edge_counts():
    assert len(make_family(Path(7)).edges) == 2 * 6
    assert len(make_family(Cycle(7)).edges) == 2 * 7
    assert len(make_family(Star(7, 2.0)).edges) == 2 * 6
    n, m = 5, 3
    assert len(make_family(Bottleneck(n, m, 0.5)).edges) == n * (n - 1) + m * (m - 1) + 2


def test_smallest_path():
    g = make_family(Path(2))
    assert g.edges == ((0, 1, 1.0), (1, 0, 1.0))


def test_star3_isomorphic_to_path3():
    # star center 0 <-> path middle vertex 1
    star = make_family(Star(3))
    path = make_family(Path(3))
    relabel = {0: 1, 1: 0, 2: 2}
    mapped = {(relabel[x], relabel[y], w) for x, y, w in star.edges}
    assert mapped == set(path.edges)


def test_bottleneck22_isomorphic_to_path4():
    # cliques {0,1} and {2,3}, bridge (0,2): line order 1-0-2-3
    bg = make_family(Bottleneck(2, 2, 1.0))
    relabel = {1: 0, 0: 1, 2: 2, 3: 3}
    mapped = {(relabel[x], relabel[y], w) for x, y, w in bg.edges}
    assert mapped == set(make_family(Path(4)).edges)
    # degree/weight multisets agree too
    bw = sorted(sorted(w for x, _, w in bg.edges if x == v) for v in range(4))
    pw = sorted(sorted(w for x, _, w in make_family(Path(4)).edges if x == v) for v in range(4))
    assert bw == pw


def test_laplacian_examples():
    assert np.array_equal(laplacian(make_family(Path(2))), np.array([[-1.0, 1.0], [1.0, -1.0]]))
    w = 0.7
    L = laplacian(make_family(Star(3, w)))
    assert np.allclose(np.diag(L), [-2 * w, -w, -w])
    assert L[0, 1] == L[1, 0] == w
    assert np.array_equal(laplacian(WeightedDigraph(3, ())), np.zeros((3, 3)))


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_laplacian_rows_sum_to_zero_and_symmetry(fam):
    g = make_family(fam)
    L = laplacian(g)
    scale = np.abs(L).max()
    assert np.abs(L.sum(axis=1)).max() <= 1e-12 * max(scale, 1.0)
    assert np.array_equal(L, L.T)


def test_hierarchical_tree_structure():
    g = make_family(HierarchicalTree(3, 2, (1.0, 5.0)))
    assert g.n == 1 + 3 + 9
    assert is_tree(g)
    # generation-1 edges carry the smaller weight
    assert g.weight(0, 1) == 1.0
    assert g.weight(1, 4) == 5.0
    with pytest.raises(ParameterError):
        make_family(HierarchicalTree(2, 2, (5.0, 1.0)))  # decreasing toward leaves
    with pytest.raises(ParameterError):
        make_family(HierarchicalTree(2, 2, (1.0,)))


def test_family_parameter_errors():
    with pytest.raises(ParameterError):
        make_family(Cycle(2))
    for w in (-1.0, math.inf, math.nan):
        for spec in (Star(4, w), CommunityStar(4, 1, w), Bottleneck(2, 2, w), HierarchicalTree(2, 2, (1.0, w))):
            with pytest.raises(ParameterError):
                make_family(spec)
    with pytest.raises(ParameterError):
        make_family(CommunityStar(4, 4, 1.0))


def test_parse_family_round_trip():
    for text in ("path:n=10", "bottleneck:n=100,m=10,w=0.5", "hier:d=3,h=3,weights=1+10+100", "commstar:n=8,k=2,w=0.25"):
        spec = parse_family(text)
        assert parse_family(family_to_string(spec)) == spec
    # every digit of a weight survives the trip
    for spec in (Star(5, 0.123456789), CommunityStar(5, 2, 2.0000001), HierarchicalTree(2, 2, (1e300, 1e-300))):
        assert parse_family(family_to_string(spec)) == spec
    assert parse_family("path:n=2") == Path(2)
    with pytest.raises(ParameterError):
        parse_family("torus:n=3")
    with pytest.raises(ParameterError):
        parse_family("path:m=3")
    with pytest.raises(ParameterError, match="repeated"):
        parse_family("path:n=5,n=6")


positive_weights = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(
    st.one_of(
        st.builds(Star, st.integers(3, 50), positive_weights),
        st.builds(CommunityStar, st.integers(3, 50), st.integers(0, 2), positive_weights),
        st.builds(Bottleneck, st.integers(2, 50), st.integers(2, 50), positive_weights),
        st.integers(1, 4).flatmap(
            lambda h: st.builds(HierarchicalTree, st.integers(1, 3), st.just(h), st.tuples(*[positive_weights] * h))
        ),
    )
)
def test_family_to_string_round_trips_every_positive_weight(spec):
    assert parse_family(family_to_string(spec)) == spec


def test_edge_list_round_trip():
    text = "# n=2\n0\t1\t1\n1\t0\t1"
    assert load_edge_list(text) == make_family(Path(2))
    for fam in ALL_FAMILIES + [Bottleneck(3, 2, 0.5)]:
        g = make_family(fam)
        assert load_edge_list(save_edge_list(g)) == g
    # save(load(t)) canonicalizes
    shuffled = "# n=3\n2\t1\t0.1\n0\t1\t1\n1\t0\t1\n1\t2\t0.1"
    canon = save_edge_list(load_edge_list(shuffled))
    assert canon.splitlines()[1:] == ["0\t1\t1", "1\t0\t1", "1\t2\t0.10000000000000001", "2\t1\t0.10000000000000001"]


def test_edge_list_errors():
    with pytest.raises(FormatError):
        load_edge_list("0\t0\t1")
    with pytest.raises(FormatError):
        load_edge_list("# n=2\n0\t1\t1\n0\t1\t2")
    with pytest.raises(FormatError):
        load_edge_list("# n=2\n0\t1\t-3")
    with pytest.raises(FormatError):
        load_edge_list("# n=2\n0 1 1")
    with pytest.raises(FormatError):
        load_edge_list("# n=2\n0\t1\tinf\n1\t0\tinf")


def test_delete_and_contract():
    g = make_family(Cycle(3))
    gd = delete_edge(g, 0, 1)
    assert len(gd.edges) == len(g.edges) - 1
    with pytest.raises(ParameterError):
        delete_edge(gd, 0, 1)
    gu = delete_edge(gd, 1, 0)  # both orientations gone
    assert len(gu.edges) == len(g.edges) - 2
    assert gu.weight(0, 1) == gu.weight(1, 0) == 0.0
    gc, mapping = contract_edge(g, 0, 1)
    # merged vertex keeps id of 1 shifted down; parallel in-edges merge
    assert gc.n == 2
    assert mapping[0] == mapping[1]
    merged = mapping[0]
    other = mapping[2]
    assert gc.weight(other, merged) == 2.0  # 2->0 and 2->1 merged
    assert gc.weight(merged, other) == 1.0  # only 1->2 survives (0's out-edges dropped)
    with pytest.raises(ParameterError):
        contract_edge(g, 0, 0)


def test_tree_predicates():
    assert is_tree(make_family(Path(6)))
    assert is_tree(make_family(HierarchicalTree(2, 2, (1.0, 1.0))))
    assert not is_tree(make_family(Cycle(4)))
    assert not is_tree(WeightedDigraph(3, ((0, 1, 1.0), (1, 0, 1.0))))  # disconnected
    path5, star = make_family(Path(5)), make_family(Star(5))
    assert TreePairCorrelation(path5, 1, 4).path == tree_path(path5, 1, 4) == [1, 2, 3, 4]
    assert TreePairCorrelation(star, 1, 2).path == tree_path(star, 1, 2) == [1, 0, 2]


@settings(max_examples=50)
@given(st.integers(2, 10), st.data())
def test_random_tree_paths_are_paths(n, data):
    pairs = []
    for v in range(1, n):
        u = data.draw(st.integers(0, v - 1))
        pairs.append((u, v, 1.0))
    g = undirected(n, pairs)
    assert is_tree(g)
    x = data.draw(st.integers(0, n - 2))
    y = data.draw(st.integers(x + 1, n - 1))
    p = TreePairCorrelation(g, x, y).path
    assert p == tree_path(g, x, y)
    assert p[0] == x and p[-1] == y
    assert all(g.weight(a, b) > 0 for a, b in zip(p, p[1:]))
    assert len(set(p)) == len(p)


@st.composite
def digraphs(draw, max_n=12):
    """Digraphs of at most ``max_n`` vertices whose pairs are joined one way, the other or both, with
    unequal weights each way; half of them grow from a random spanning tree, so trees come often,
    and the others are often disconnected."""
    n = draw(st.integers(1, max_n))
    pairs = set()
    if draw(st.booleans()):
        label = draw(st.permutations(range(n)))
        pairs |= {frozenset((label[v], label[draw(st.integers(0, v - 1))])) for v in range(1, n)}
    if n >= 2:
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda c: c[0] != c[1])
        pairs |= {frozenset(c) for c in draw(st.lists(cells, max_size=draw(st.sampled_from([0, 1, n]))))}
    edges = []
    for a, b in sorted(sorted(p) for p in pairs):
        way = draw(st.sampled_from(["forward", "back", "both"]))
        if way != "back":
            edges.append((a, b, draw(st.floats(0.1, 10.0))))
        if way != "forward":
            edges.append((b, a, draw(st.floats(0.1, 10.0))))
    return WeightedDigraph(n, edges)


def union_find_is_tree(g: WeightedDigraph) -> bool:
    """n - 1 undirected pairs that union-find joins without closing a cycle."""
    pairs = {(min(x, y), max(x, y)) for x, y, _ in g.edges}
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        root[ra] = rb
    return len(pairs) == g.n - 1


def plain_leaf_first(g: WeightedDigraph):
    """``leaf_first`` of a tree from :func:`oracles.plain_search` from 0 and the edge weights."""
    w = {(x, y): wt for x, y, wt in g.edges}
    order, parent = plain_search(g, 0)
    parent = [parent[v] for v in range(g.n)]
    up = [w.get((v, p), 0.0) if p >= 0 else 0.0 for v, p in enumerate(parent)]
    down = [w.get((p, v), 0.0) if p >= 0 else 0.0 for v, p in enumerate(parent)]
    return order, parent, up, down


@settings(max_examples=200)
@given(digraphs())
def test_tree_test_and_leaf_first_match_union_find_and_a_plain_search(g):
    """``is_tree`` against union-find, and ``leaf_first`` (the search ``is_tree`` keeps) against a
    plain search from 0, on one-way, two-way, unequal and disconnected digraphs."""
    assert is_tree(g) is union_find_is_tree(g)
    if not is_tree(g):
        return
    for a, b in zip(leaf_first(g), plain_leaf_first(g)):
        assert a.tolist() == b


@st.composite
def breadth_first_labelled_trees(draw, max_n=12):
    """Trees whose labels are a breadth-first order from 0: each v >= 1 hangs from a smaller id,
    nondecreasing in v, by an edge one way, the other or both, with unequal weights each way."""
    n = draw(st.integers(1, max_n))
    parent = [0] * n
    for v in range(2, n):
        parent[v] = draw(st.integers(parent[v - 1], v - 1))
    edges = []
    for v in range(1, n):
        for a, b in draw(st.sampled_from([((parent[v], v),), ((v, parent[v]),), ((parent[v], v), (v, parent[v]))])):
            edges.append((a, b, draw(st.floats(0.1, 10.0))))
    return WeightedDigraph(n, edges)


def csgraph_search(g: WeightedDigraph):
    from scipy.sparse.csgraph import breadth_first_order
    return breadth_first_order(g._undirected, 0, directed=True, return_predecessors=True)


@settings(max_examples=200)
@given(breadth_first_labelled_trees())
def test_search_read_off_breadth_first_labels_is_csgraphs(g):
    """On trees labelled in breadth-first order, one-way edges and unequal weights included, the
    search read off the labels is csgraph's: the same order and predecessors, both int32."""
    got = graphs._labelled_breadth_first(g)
    assert got is not None and is_tree(g)
    for a, b in zip(got, csgraph_search(g)):
        assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b)


@settings(max_examples=200)
@given(digraphs())
def test_search_read_off_the_labels_answers_only_for_breadth_first_labels(g):
    """On any digraph, a search read off the labels is csgraph's, and where the labels are not a
    breadth-first order from 0 it gives way to csgraph's."""
    order, parent = csgraph_search(g)
    got = graphs._labelled_breadth_first(g)
    if got is None:
        assert not (len(order) == g.n and np.array_equal(order, np.arange(g.n)) and is_tree(g))
    else:
        assert np.array_equal(got[0], order) and np.array_equal(got[1], parent) and is_tree(g)


def test_search_falls_back_to_csgraph_on_other_labellings(monkeypatch):
    """Family trees are searched without csgraph; a tree labelled otherwise, and a graph that is not
    a tree but has the edge count of one, take csgraph's search."""
    searches = []
    search = graphs._breadth_first
    monkeypatch.setattr(graphs, "_breadth_first", lambda g: searches.append(g) or search(g))
    for fam in (Path(1), Path(7), Star(6, 0.5), CommunityStar(9, 3, 2.0), HierarchicalTree(3, 3, (1.0, 2.0, 4.0))):
        assert is_tree(make_family(fam)) and searches == []
    others = [
        undirected(3, [(0, 2, 1.0), (2, 1, 1.0)]),  # 1 has no smaller neighbour
        undirected(5, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (0, 4, 1.0)]),  # parents 0, 0, 1, 0
        undirected(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]),  # 2 has two smaller neighbours
    ]
    for g, tree in zip(others, (True, True, False)):
        assert graphs._labelled_breadth_first(g) is None
        assert is_tree(g) is tree and searches[-1] is g
        if tree:
            for a, b in zip(leaf_first(g), plain_leaf_first(g)):
                assert a.tolist() == b


@settings(max_examples=100)
@given(digraphs())
def test_weight_is_the_edge_weight_or_0(g):
    w = {(x, y): wt for x, y, wt in g.edges}
    for x in range(g.n):
        for y in range(g.n):
            got = g.weight(x, y)
            assert type(got) is float and got == w.get((x, y), 0.0)
            assert g.weight(np.int64(x), np.int32(y)) == got
    for x, y in ((-1, 0), (0, -1), (g.n, 0), (0, g.n), (-1, g.n)):
        with pytest.raises(ParameterError, match="out of range"):
            g.weight(x, y)


def test_edge_ids_out_of_range_raise():
    g = make_family(Cycle(3))
    for call in (g.weight, lambda x, y: delete_edge(g, x, y), lambda x, y: contract_edge(g, x, y)):
        for x, y in ((-1, 0), (5, 0), (0, 3)):
            with pytest.raises(ParameterError, match="out of range"):
                call(x, y)
        for x, y in ((0.5, 1), (1, 2.0)):
            with pytest.raises(ParameterError, match="not an integer"):
                call(x, y)


def assert_same_graph(got: WeightedDigraph, want: WeightedDigraph) -> None:
    assert got.n == want.n
    for a, b in zip((got.indptr, got.indices, got.weights, got.out_weight, got._keys),
                    (want.indptr, want.indices, want.weights, want.out_weight, want._keys)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=150)
@given(digraphs(), st.data())
def test_edge_surgery_matches_the_per_edge_loops(g, data):
    """``delete_edge`` and ``contract_edge`` give the graphs of the per-edge loops they replaced,
    byte for byte, merged parallel edges included, and the same vertex map."""
    if not g.edges:
        return
    x, y, _ = data.draw(st.sampled_from(g.edges))
    assert_same_graph(delete_edge(g, x, y), delete_edge_per_edge(g, x, y))
    (got, mapping), (want, want_mapping) = contract_edge(g, x, y), contract_edge_per_edge(g, x, y)
    assert_same_graph(got, want)
    assert mapping == want_mapping and all(type(v) is int for v in mapping)


def test_contraction_merges_parallel_edges_as_a_per_edge_sum():
    """Contracting 0 -> 1 of a weighted K5 merges every z -> 0 with z -> 1, summing in edge order."""
    g = WeightedDigraph(5, [(u, v, 0.1 * (1 + u + 3 * v)) for u in range(5) for v in range(5) if u != v])
    got, mapping = contract_edge(g, 0, 1)
    want, _ = contract_edge_per_edge(g, 0, 1)
    assert_same_graph(got, want)
    assert mapping == [0, 0, 1, 2, 3]
    for z in (2, 3, 4):
        assert got.weight(mapping[z], 0) == 0.0 + g.weight(z, 0) + g.weight(z, 1)
    assert [got.weight(0, mapping[z]) for z in (2, 3, 4)] == [g.weight(1, z) for z in (2, 3, 4)]


# -- CSR core against the per-edge tuple builder it replaced ---------------------


def _reference_pairs(spec):
    """Vertex count and undirected (x, y, w) pairs, one tuple at a time."""
    if isinstance(spec, Path):
        return spec.n, [(i, i + 1, 1.0) for i in range(spec.n - 1)]
    if isinstance(spec, Cycle):
        return spec.n, [(i, (i + 1) % spec.n, 1.0) for i in range(spec.n)]
    if isinstance(spec, Star):
        return spec.n, [(0, i, spec.w) for i in range(1, spec.n)]
    if isinstance(spec, CommunityStar):
        pairs = [(0, i, 1.0) for i in range(1, spec.k + 1)]
        return spec.n, pairs + [(0, i, spec.w) for i in range(spec.k + 1, spec.n)]
    if isinstance(spec, HierarchicalTree):
        offsets = [0]
        for g in range(spec.h + 1):
            offsets.append(offsets[-1] + spec.d**g)
        pairs = []
        for g in range(1, spec.h + 1):
            for j in range(spec.d**g):
                pairs.append((offsets[g - 1] + j // spec.d, offsets[g] + j, spec.weights[g - 1]))
        return offsets[-1], pairs
    if isinstance(spec, Bottleneck):
        n, m = spec.n, spec.m
        pairs = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
        pairs += [(n + i, n + j, 1.0) for i in range(m) for j in range(i + 1, m)]
        return n + m, pairs + [(0, n, spec.w)]
    if isinstance(spec, Complete):
        return spec.n, [(i, j, 1.0) for i in range(spec.n) for j in range(i + 1, spec.n)]
    raise AssertionError(spec)


def reference_graph(spec):
    """Sorted edges, out maps, out-weights and Laplacian from per-edge loops."""
    n, pairs = _reference_pairs(spec)
    edges = []
    for x, y, w in pairs:
        edges += [(x, y, float(w)), (y, x, float(w))]
    edges = tuple(sorted(edges))
    out = tuple({} for _ in range(n))
    total = np.zeros(n)
    L = np.zeros((n, n))
    for x, y, w in edges:
        out[x][y] = w
        total[x] += w
        L[x, y] = w
        L[x, x] -= w
    return n, edges, out, total, L


EQUIVALENCE_FAMILIES = [
    Path(1), Path(2), Path(9), Path(60),
    Cycle(3), Cycle(4), Cycle(41),
    Star(1), Star(2, 0.3), Star(17, 0.1),
    CommunityStar(1, 0, 0.5), CommunityStar(6, 2, 0.25), CommunityStar(30, 7, 0.3), CommunityStar(9, 8, 3.0),
    HierarchicalTree(1, 1, (2.0,)), HierarchicalTree(2, 3, (0.1, 0.2, 0.7)), HierarchicalTree(3, 3, (0.1, 1.0, 10.0)),
    Bottleneck(1, 1, 0.5), Bottleneck(4, 3, 2.0), Bottleneck(13, 6, 0.01),
    Complete(1), Complete(2), Complete(5), Complete(23),
    # the benchmark's dense sizes
    Complete(230), Bottleneck(200, 10, 0.2), Bottleneck(180, 40, 1.0),
]  # fmt: skip


def lexsort_is_symmetric(g: WeightedDigraph) -> bool:
    """Whether every edge's reverse is an edge of the same weight, by one lexsort of the reversed edges."""
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    order = np.lexsort((rows, g.indices))
    return bool(
        np.array_equal(g.indices[order], rows)
        and np.array_equal(rows[order], g.indices)
        and np.array_equal(g.weights[order], g.weights)
    )


@pytest.mark.parametrize("fam", EQUIVALENCE_FAMILIES, ids=str)
def test_csr_family_matches_tuple_builder(fam):
    n, edges, out, total, L = reference_graph(fam)
    g = make_family(fam)
    assert g.n == n
    assert g.edges == edges
    assert tuple(dict((y, w) for _, y, w in g.edges[a:b]) for a, b in zip(g.indptr, g.indptr[1:])) == out
    assert g.out_weight.dtype == np.float64 and g.out_weight.tobytes() == total.tobytes()
    assert laplacian(g).tobytes() == L.tobytes()
    assert WeightedDigraph(n, reversed(edges)) == g
    rows = np.array([e[0] for e in edges], dtype=np.int64)
    assert g._rows.dtype == np.int64 and g._rows.tobytes() == rows.tobytes()
    assert g._keys.tobytes() == (rows * n + g.indices).tobytes()
    assert g.is_symmetric is lexsort_is_symmetric(g) is True
    # identical jump tables, hence identical forests for a fixed stream
    q = 0.7
    sampler = ForestSampler(g, q)
    assert sampler._nbrs == [sorted(o) for o in out]
    assert sampler._cum == [list(accumulate(w for _, w in sorted(o.items()))) for o in out]
    assert sampler._total == [q + t for t in total]


@settings(max_examples=200)
@given(st.integers(1, 10), st.data())
def test_csr_ordered_input_builds_the_same_graph(n, data):
    """CSR-ordered edges skip the sort; any other order, and duplicates, take it."""
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda c: c[0] != c[1])
    pairs = sorted(data.draw(st.lists(cells, max_size=n * (n - 1), unique=True)))
    weights = data.draw(st.lists(st.floats(0.01, 100.0), min_size=len(pairs), max_size=len(pairs)))
    edges = [(x, y, w) for (x, y), w in zip(pairs, weights)]
    shuffled = data.draw(st.permutations(edges))

    def arrays(es):
        return (np.array([e[0] for e in es], dtype=np.int64), np.array([e[1] for e in es], dtype=np.int64),
                np.array([e[2] for e in es], dtype=float))

    want = WeightedDigraph(n, edges)
    for es in (edges, shuffled):
        src, dst, w = arrays(es)
        g = WeightedDigraph.from_arrays(n, src, dst, w)
        for a, b in zip((g.indptr, g.indices, g.weights, g.out_weight), (want.indptr, want.indices, want.weights, want.out_weight)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # the caller's arrays are copied, not frozen or shared
        for a in (src, dst, w):
            assert a.flags.writeable
            a[:] = 0
        assert g == want
    if edges:
        k = data.draw(st.integers(0, len(edges) - 1))
        twin = (edges[k][0], edges[k][1], 2.0)
        messages = set()
        for es in (edges[: k + 1] + [twin] + edges[k + 1 :], shuffled + [twin]):
            with pytest.raises(FormatError, match="duplicate edge") as err:
                WeightedDigraph.from_arrays(n, *arrays(es))
            messages.add(str(err.value))
        assert messages == {f"duplicate edge ({twin[0]},{twin[1]})"}


#: SHA-256 over ``indptr``, ``indices``, ``weights`` and ``out_weight`` of the dense families, which
#: are built already in CSR order; pinned from the builder that sorted both orientations of each pair.
CSR_DIGESTS = {
    Complete(1): "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
    Complete(2): "d60fb6c6fcc1c496e4b2f0fbffc5742976704365068844c25c0446f0c632c30b",
    Complete(7): "69ac28cc51707af5c4895a01f3781481a9053d7d988fe16c0b5f0e041e9309c8",
    Bottleneck(1, 1, 0.5): "f27e06e7e027a977591314dc251aabe368af5032cea1fafd27c2cb79131b1ed6",
    Bottleneck(5, 3, 0.2): "aef7e3f6075768653220d598ff7dfe6b69b287ccd98dba8f0c1e46b903f74860",
    Bottleneck(20, 4, 2.0): "260f324c06eb62eb920e508dad34806eccdc724ceb6b206a0a297a271d5e1a19",
    # the benchmark's sizes, pinned from the builder that passed a boolean mask's nonzeros through _build
    Complete(230): "aace3255a86cbedad6a77ae28d0fdf1a2c786da0ef2f7dd4674d9bef8a5231f5",
    Bottleneck(200, 10, 0.2): "b347dc7bcda650b4b14cc6403d50e8394b956a4ff4f78742394d88276bdca2f7",
    Bottleneck(180, 40, 1.0): "0b6208311a96ab4a2f7d51f6da192fa439caf2ae85cf56c97937d760b99a5740",
}


@pytest.mark.parametrize("fam", CSR_DIGESTS, ids=str)
def test_dense_family_arrays_are_pinned(fam):
    g = make_family(fam)
    digest = hashlib.sha256()
    for a in (g.indptr, g.indices, g.weights, g.out_weight):
        digest.update(a.tobytes())
    assert digest.hexdigest() == CSR_DIGESTS[fam]


@settings(max_examples=150)
@given(st.integers(1, 12), st.data())
def test_weight_matrix_builds_the_edge_list_graph(n, data):
    """``_from_weights`` gives the arrays, keys and symmetry that ``from_arrays`` gives for the same
    edges, bit for bit, on one-way edges and unequal weights each way too; its diagonal is ignored."""
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.sampled_from([0.1, 0.2, 0.3]))
    cells = data.draw(st.lists(weight, min_size=n * n, max_size=n * n))
    W = np.array(cells).reshape(n, n)
    if data.draw(st.booleans()):
        W = np.triu(W) + np.triu(W, 1).T  # symmetric
    src, dst = np.nonzero(W * ~np.eye(n, dtype=bool))
    want = WeightedDigraph.from_arrays(n, src, dst, W[src, dst])
    g = graphs._from_weights(W.copy())
    for a, b in zip((g.indptr, g.indices, g.weights, g.out_weight, g._keys, g._rows),
                    (want.indptr, want.indices, want.weights, want.out_weight, want._keys, want._rows)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert g.is_symmetric is lexsort_is_symmetric(want) is want.is_symmetric
    assert laplacian(g).tobytes() == laplacian(want).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_weight_matrix_rejects_a_bad_entry(bad):
    W = np.ones((4, 4))
    W[2, 1] = bad
    with pytest.raises(FormatError, match=r"edge \(2,1\)"):
        graphs._from_weights(W)
    W = np.ones((4, 4))
    W[3, 3] = bad  # the diagonal is no edge
    assert graphs._from_weights(W) == make_family(Complete(4))


def test_graph_arrays_are_read_only():
    g = make_family(Path(4))
    for a in (g.indptr, g.indices, g.weights, g.out_weight):
        with pytest.raises(ValueError):
            a[0] = 1
