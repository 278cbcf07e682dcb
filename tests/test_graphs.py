import glob
import itertools
import os
import pickle
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from cmgraphs.census import enumerate_class, member_from_mask, optional_edges
from cmgraphs.errors import InputFormatError
from cmgraphs.graphs import (
    SIZE_COUNT_ABOVE,
    Graph,
    _bron_kerbosch,
    add_edges,
    adjacency,
    classify,
    height,
    induced_subgraph,
    is_unmixed_bruteforce,
    isolated_vertices,
    iter_perfect_matchings,
    lex_min_matching,
    maximal_independent_sets,
    memoized,
    minimal_vertex_covers,
    pairs_graph,
    remove_edges,
)
from cmgraphs.graphio import parse_graph, parse_graph_file
from cmgraphs.pairing import find_star_labeling, make_labeling, unique_perfect_matching
from cmgraphs.transform import index_subsets, o_set, restricted_o_full
from conftest import FIXTURES, count_builds, golden_path, perfbench_module, std_pairs
from oracles import (
    brute_height,
    brute_is_unmixed,
    brute_maximal_independents,
    brute_minimal_covers,
    brute_perfect_matchings,
    iter_perfect_matchings_def,
    lex_min_matching_def,
    maximal_independent_sets_def,
)


def test_build_normalizes_and_rejects_loops():
    g = Graph.build(vertices=["c"], edges=[("b", "a"), ("a", "b")])
    assert g.vertices == ("a", "b", "c")
    assert g.edge_list() == [("a", "b")]
    with pytest.raises(InputFormatError):
        Graph.build(edges=[("a", "a")])


def test_has_edge_reads_the_masks():
    g = Graph.build(vertices=["c"], edges=[("b", "a")])
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c") and not g.has_edge("a", "a")
    assert not g.has_edge("a", "z") and not g.has_edge("z", "z")


def test_induced_subgraph_empty_restriction(ex31):
    empty = induced_subgraph(ex31, set())
    assert empty.vertices == () and not empty.edges


def test_induced_subgraph_on_cover_side_is_edgeless(ex31):
    sub = induced_subgraph(ex31, {"x1", "x2", "x3"})
    assert sub.vertices == ("x1", "x2", "x3")
    assert sub.edge_list() == []


def test_induced_subgraph_of_graft_cover_side(graft_spec):
    from cmgraphs.transform import b_graft

    g, _ = b_graft(graft_spec)
    sub = induced_subgraph(g, {"x1", "x2", "x3", "x4"})
    assert sub.edge_list() == [
        ("x1", "x2"),
        ("x1", "x3"),
        ("x1", "x4"),
        ("x2", "x4"),
        ("x3", "x4"),
    ]


def test_induced_subgraph_unknown_vertex_errors(ex31):
    with pytest.raises(InputFormatError):
        induced_subgraph(ex31, {"x1", "zz"})


def test_vertex_and_edge_surgery():
    g = Graph.build(edges=[("a", "b"), ("b", "c"), ("c", "d")])
    assert induced_subgraph(g, {"b", "c", "d"}).edge_list() == [("b", "c"), ("c", "d")]
    assert remove_edges(g, [("b", "c")]).edge_list() == [("a", "b"), ("c", "d")]
    assert remove_edges(g, [("b", "c")]).vertices == g.vertices
    assert add_edges(g, [("a", "d")]).edge_list() == [
        ("a", "b"),
        ("a", "d"),
        ("b", "c"),
        ("c", "d"),
    ]
    with pytest.raises(InputFormatError):
        add_edges(g, [("a", "zz")])


def test_minimal_covers_triangle():
    g = Graph.build(edges=[("a", "b"), ("a", "c"), ("b", "c")])
    assert [sorted(c) for c in minimal_vertex_covers(g)] == [
        ["a", "b"],
        ["a", "c"],
        ["b", "c"],
    ]


def test_minimal_covers_four_cycle(c4):
    assert [sorted(c) for c in minimal_vertex_covers(c4)] == [
        ["x1", "x2"],
        ["y1", "y2"],
    ]
    # oracle agreement over all 16 subsets
    assert list(minimal_vertex_covers(c4)) == brute_minimal_covers(
        c4.vertices, c4.edge_list()
    )


def test_minimal_covers_ex31_shape(ex31):
    covers = minimal_vertex_covers(ex31)
    assert list(covers) == brute_minimal_covers(ex31.vertices, ex31.edge_list())
    assert len(covers) == 4
    for cover in covers:
        assert len(cover) == 3
        for i in (1, 2, 3):
            assert len({f"x{i}", f"y{i}"} & cover) == 1


def test_classify_examples(ex31, graft_spec):
    from cmgraphs.transform import b_graft

    edgeless = Graph.build(vertices=["a", "b"])
    m = classify(edgeless)
    assert (m.height, m.has_isolated, m.in_class) == (0, True, False)

    m = classify(ex31)
    assert (m.vertex_count, m.height, m.in_class) == (6, 3, True)

    g, _ = b_graft(graft_spec)
    m = classify(g)
    assert (m.vertex_count, m.height, m.in_class) == (8, 4, True)


def test_unmixed_bruteforce_path_and_cycles(c4, ex31):
    path = Graph.build(edges=[("a", "b"), ("b", "c")])
    verdict = is_unmixed_bruteforce(path)
    assert verdict.value is False
    assert verdict.certificate["witness_small"] == ["b"]
    assert verdict.certificate["witness_large"] == ["a", "c"]
    assert is_unmixed_bruteforce(c4).value is True
    assert is_unmixed_bruteforce(ex31).value is True
    # edgeless graphs are unmixed by convention (sole minimal cover is empty)
    assert is_unmixed_bruteforce(Graph.build(vertices=["a"])).value is True


def test_perfect_matchings(c4, ex31):
    single = Graph.build(edges=[("a", "b")])
    assert tuple(iter_perfect_matchings(single)) == ((("a", "b"),),)
    assert tuple(iter_perfect_matchings(ex31)) == (
        (("x1", "y1"), ("x2", "y2"), ("x3", "y3")),
    )
    assert len(tuple(iter_perfect_matchings(c4))) == 2
    assert tuple(iter_perfect_matchings(c4)) == tuple(
        brute_perfect_matchings(c4.vertices, c4.edge_list())
    )


def _random_graph(rng, k):
    vertices = [f"v{i}" for i in range(k)]
    edges = [
        (a, b)
        for a, b in itertools.combinations(vertices, 2)
        if rng.random() < 0.4
    ]
    return Graph.build(vertices=vertices, edges=edges)


def _all_graphs(max_vertices):
    for k in range(max_vertices + 1):
        vertices = [f"v{i}" for i in range(k)]
        candidates = list(itertools.combinations(vertices, 2))
        for mask in range(1 << len(candidates)):
            edges = [candidates[b] for b in range(len(candidates)) if mask >> b & 1]
            yield Graph.build(vertices=vertices, edges=edges)


def test_cover_independent_duality_exhaustive_small():
    # every graph on up to 4 labeled vertices, against the subset oracle
    for g in _all_graphs(4):
        covers = minimal_vertex_covers(g)
        assert list(covers) == brute_minimal_covers(g.vertices, g.edge_list())
        assert list(maximal_independent_sets(g)) == brute_maximal_independents(
            g.vertices, g.edge_list()
        )
        verts = frozenset(g.vertices)
        assert {verts - c for c in covers} == set(maximal_independent_sets(g))


def test_cover_independent_duality_sampled_to_ten_vertices():
    rng = random.Random(7)
    for k in range(5, 11):
        for _ in range(20):
            g = _random_graph(rng, k)
            verts = frozenset(g.vertices)
            covers = set(minimal_vertex_covers(g))
            assert covers == {verts - m for m in maximal_independent_sets(g)}


def test_height_equals_vertices_minus_max_independent():
    rng = random.Random(11)
    graphs = list(_all_graphs(4)) + [_random_graph(rng, k) for k in (6, 8, 10)]
    for g in graphs:
        if not g.vertices:
            continue
        best = max(len(m) for m in maximal_independent_sets(g))
        assert height(g) == len(g.vertices) - best


def test_unmixed_lower_bound_exhaustive_six_vertices():
    # unmixed without isolated vertices forces cover size >= half the vertices
    checked = 0
    for g in _all_graphs(6):
        if not g.vertices or classify(g).has_isolated:
            continue
        if is_unmixed_bruteforce(g).value:
            checked += 1
            assert 2 * height(g) >= len(g.vertices)
    assert checked > 100


def test_unmixed_lower_bound_sampled_at_ten():
    rng = random.Random(3)
    for _ in range(120):
        g = _random_graph(rng, 10)
        if classify(g).has_isolated:
            continue
        if is_unmixed_bruteforce(g).value:
            assert 2 * height(g) >= len(g.vertices)


def test_unmixedness_agrees_with_oracle_sampled():
    rng = random.Random(5)
    for _ in range(60):
        g = _random_graph(rng, 7)
        assert is_unmixed_bruteforce(g).value == brute_is_unmixed(
            g.vertices, g.edge_list()
        )


def test_pairs_graph():
    g = pairs_graph(3)
    assert g.edge_list() == [("x1", "y1"), ("x2", "y2"), ("x3", "y3")]
    assert classify(g).in_class
    with pytest.raises(InputFormatError):
        pairs_graph(0)


def _facts(g):
    return adjacency(g), maximal_independent_sets(g), minimal_vertex_covers(g)


def test_derived_graphs_get_their_own_facts(ex31_pl):
    g = Graph.build(edges=[("a", "b"), ("b", "c"), ("c", "d")])
    _facts(g)
    derived = [
        remove_edges(g, [("b", "c")]),
        add_edges(g, [("a", "d")]),
    ]
    _facts(ex31_pl.graph)
    derived.append(o_set(ex31_pl, {2, 3}))
    for h in derived:
        fresh = Graph.build(h.vertices, h.edges)
        assert _facts(h) == _facts(fresh)
        assert set(maximal_independent_sets(h)) == {
            frozenset(s)
            for s in brute_maximal_independents(h.vertices, h.edge_list())
        }
    assert maximal_independent_sets(derived[0]) != maximal_independent_sets(g)
    assert maximal_independent_sets(derived[2]) != maximal_independent_sets(
        ex31_pl.graph
    )


def test_memoized_graph_keeps_identity_semantics(ex31):
    g = Graph.build(ex31.vertices, ex31.edges)
    fresh = Graph.build(ex31.vertices, ex31.edges)
    classify(g)
    _facts(g)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert pickle.dumps(g) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(g))
    assert restored == g and _facts(restored) == _facts(g)


def test_memoized_adjacency_is_read_only(c4):
    with pytest.raises(TypeError):
        adjacency(c4)["x1"] = frozenset()


def test_iterative_perfect_matchings_match_the_recursive_reference():
    rng = random.Random(1977)
    graphs = _named_random_graphs(rng, 200, largest=10)
    graphs += [g for g in _class_population(3)]
    for g in graphs:
        assert list(iter_perfect_matchings(g)) == list(iter_perfect_matchings_def(g))


def test_mask_matchings_ignore_the_declared_vertex_order():
    # vertices declared in shuffled order, names x1..x12 (x10 sorts
    # before x2): the graph keeps them sorted and bits follow that order,
    # whatever the declared order
    rng = random.Random(41)
    names = [f"x{i}" for i in range(1, 13)]
    for _ in range(150):
        vs = rng.sample(names, rng.choice([2, 4, 6, 8, 10, 12, 5, 7]))
        p = rng.choice([0.3, 0.5, 0.8])
        edges = [e for e in itertools.combinations(vs, 2) if rng.random() < p]
        g = Graph.build(vs, edges)
        assert g.vertices == tuple(sorted(vs))
        assert list(iter_perfect_matchings(g)) == list(iter_perfect_matchings_def(g))
    full = Graph.build(reversed(names), itertools.combinations(names, 2))
    found = list(iter_perfect_matchings(full))
    assert len(found) == 10395  # 11!!
    assert found == list(iter_perfect_matchings_def(full))
    assert found[0][:2] == (("x1", "x10"), ("x11", "x12"))


def test_uniqueness_of_a_long_matching_needs_no_recursion():
    pl = make_labeling(pairs_graph(1200), std_pairs(1200))
    assert unique_perfect_matching(pl).value is True


def test_lex_min_matching_follows_a_long_augmenting_path():
    # z, matched last, displaces every l_i onto r_{i+1}: the augmenting
    # path is longer than the default recursion limit
    k = 1500
    lefts = [f"l{i:05d}" for i in range(1, k + 1)]
    right = {f"r{j:05d}" for j in range(1, k + 2)}
    edges = [(l, f"r{j:05d}") for i, l in enumerate(lefts, 1) for j in (i, i + 1)]
    g = Graph.build(edges=edges + [("z", "r00001")])
    matching, deficiency = lex_min_matching(g, lefts + ["z"], right)
    assert deficiency is None
    assert matching == {
        **{l: f"r{i + 1:05d}" for i, l in enumerate(lefts, 1)},
        "z": "r00001",
    }
    g = Graph.build(edges=edges + [("w", "r00001"), ("z", "r00001")])
    assert lex_min_matching(g, lefts + ["w", "z"], right) == (
        None,
        (["w", "z"], ["r00001"]),
    )


def test_lex_min_matching_matches_a_permutation_search():
    # every injective choice of partners in sorted-left order, first
    # valid one wins; Hall's condition fails exactly when none exists,
    # and the recursive matcher finds the same matching or deficient set
    rng = random.Random(11)
    for _ in range(400):
        k, extra = rng.randint(1, 4), rng.randint(0, 2)
        left = [f"a{i}" for i in range(k)]
        right = [f"b{i}" for i in range(k + extra)]
        outside = ["c0"]
        edges = [
            (l, r) for l in left for r in right + outside if rng.random() < 0.45
        ]
        g = Graph.build(vertices=left + right + outside, edges=edges)
        adj = adjacency(g)
        expected = next(
            (
                dict(zip(left, perm))
                for perm in itertools.permutations(right, k)
                if all(r in adj[l] for l, r in zip(left, perm))
            ),
            None,
        )
        matching, deficiency = lex_min_matching(g, reversed(left), set(right))
        assert matching == expected
        assert (matching, deficiency) == lex_min_matching_def(g, left, right)
        if expected is None:
            s, ns = deficiency
            assert s == sorted(s) and ns == sorted(ns) and len(ns) < len(s)
            assert set(ns) == {r for l in s for r in adj[l] if r in right}
        else:
            assert deficiency is None


def _named_random_graphs(rng, count, largest=9):
    """Seeded graphs on up to `largest` vertices whose names sort
    differently as strings and as numbers (x10 before x2), isolated
    vertices included, after the empty graph and a few edgeless ones."""
    graphs = [Graph.build(), Graph.build(vertices=["a"])]
    graphs += [Graph.build(vertices=[f"x{i}" for i in range(k)]) for k in (2, 11)]
    names = [f"x{i}" for i in range(1, max(12, largest) + 1)]
    for _ in range(count):
        vs = rng.sample(names, rng.randint(1, largest))
        p = rng.choice([0.15, 0.3, 0.5, 0.8])
        edges = [e for e in itertools.combinations(vs, 2) if rng.random() < p]
        graphs.append(Graph.build(vertices=vs, edges=edges))
    return graphs


def test_bitset_enumerator_matches_the_frozenset_reference():
    rng = random.Random(20091023)
    graphs = _named_random_graphs(rng, 320)
    assert any(isolated_vertices(g) and g.edges for g in graphs)
    assert any(g.vertices.index("x10") < g.vertices.index("x2")
               for g in graphs if {"x10", "x2"} <= set(g.vertices))
    for g in graphs:
        expected = maximal_independent_sets_def(g)
        assert maximal_independent_sets(g) == expected
        assert list(expected) == brute_maximal_independents(
            g.vertices, g.edge_list()
        )


def _covers_as_first_defined(g):
    """The minimal covers as the package first computed them: the
    complements of the maximal independent sets, sorted by sorted names."""
    verts = frozenset(g.vertices)
    covers = (verts - s for s in maximal_independent_sets_def(g))
    return tuple(sorted(covers, key=lambda c: tuple(sorted(c))))


def _disjoint_union(parts):
    """The graphs side by side, the k-th one's names suffixed with the
    k-th letter, so that the components' bits interleave."""
    vertices, edges = [], []
    for k, g in enumerate(parts):
        tag = "abcdefgh"[k]
        vertices += [v + tag for v in g.vertices]
        edges += [(a + tag, b + tag) for a, b in g.edge_list()]
    return Graph.build(vertices=vertices, edges=edges)


def _disconnected_cases(rng):
    """The empty graph, edgeless graphs, isolated vertices beside edges
    and disjoint unions of two to four seeded random graphs."""
    graphs = [Graph.build()]
    graphs += [Graph.build(vertices=[f"v{i}" for i in range(k)]) for k in (1, 2, 7)]
    graphs += [
        Graph.build(vertices=["a", "m", "z"], edges=[("b", "c")]),
        Graph.build(vertices=["c"], edges=[("a", "b"), ("b", "d"), ("e", "f")]),
    ]
    for _ in range(60):
        k = rng.randint(2, 4)
        graphs.append(_disjoint_union(_named_random_graphs(rng, k, largest=5)[-k:]))
    return graphs


def _order_cases():
    """Seeded graphs on up to 14 vertices named x1 .. x14 (x10 sorts
    before x2), the empty, edgeless and isolated-vertex cases, disjoint
    unions, seeded class members, and the fixtures and families of the
    check benchmark."""
    rng = random.Random(20091024)
    graphs = _named_random_graphs(rng, 300, largest=14)
    assert any(len(g.vertices) == 14 for g in graphs)
    graphs += _disconnected_cases(rng)
    graphs += [pl.graph for pl in enumerate_class(4, mode="sample", seed=5, count=40)]
    paths = sorted(glob.glob(os.path.join(FIXTURES, "*.graph")))
    paths.append(golden_path("example5_1_graft.graph"))
    graphs += [parse_graph_file(path).graph for path in paths]
    graphs += [pairs_graph(n) for n in range(1, 12)]
    graphs += [_whiskered_path(n) for n in range(1, 16)]
    graphs += [_chain(n) for n in range(2, 35, 4)]
    return graphs


def test_enumeration_comes_out_in_sorted_name_order():
    # the sets and the covers are ordered without a sort on names, so
    # both must still equal the references element by element
    for g in _order_cases():
        masks = _bron_kerbosch(g)
        assert len(set(masks)) == len(masks)
        sets, covers = maximal_independent_sets(g), minimal_vertex_covers(g)
        assert len(sets) == len(masks)
        assert sets == maximal_independent_sets_def(g)
        assert covers == _covers_as_first_defined(g)
        if len(g.vertices) <= 9:
            assert list(covers) == brute_minimal_covers(g.vertices, g.edge_list())


def test_unmixedness_witnesses_are_the_extreme_covers_by_name():
    # the witnesses are read off the covers' order: the first of the
    # smallest size and the last of the largest
    def by_size_then_names(c):
        return len(c), sorted(c)

    mixed = 0
    for g in _order_cases():
        covers = _covers_as_first_defined(g)
        sizes = sorted(len(c) for c in covers)
        certificate = {"cover_sizes": sizes}
        if sizes[0] != sizes[-1]:
            mixed += 1
            certificate["witness_small"] = sorted(min(covers, key=by_size_then_names))
            certificate["witness_large"] = sorted(max(covers, key=by_size_then_names))
        verdict = is_unmixed_bruteforce(g)
        assert (verdict.value, verdict.route) == (sizes[0] == sizes[-1], "cover-sizes")
        assert verdict.certificate == certificate
    assert mixed > 100


def test_unmixedness_and_the_labeling_read_sizes_without_naming_covers():
    # brute-force unmixedness names only its two witnesses, and the
    # labeling only X, the first cover of size n, so the named covers
    # are never built
    rng = random.Random(20091025)
    members = list(_class_population(3)) + [pairs_graph(11), _whiskered_path(9)]
    for g in _named_random_graphs(rng, 100) + _disconnected_cases(rng) + members:
        is_unmixed_bruteforce(g)
        assert "_minimal_vertex_covers" not in vars(g)
    for g in members:
        pl = find_star_labeling(g)
        first = next(c for c in _covers_as_first_defined(g) if len(c) == pl.n)
        assert set(pl.x_names) == first
        assert "_minimal_vertex_covers" not in vars(g)


def test_an_unmixed_graph_has_no_maximal_independent_set_named():
    # at or below the threshold the cover sizes are popcounts of the
    # Bron-Kerbosch masks, and only a mixed graph names its sets, to take
    # the two witnesses; above it an unmixed graph's sets are counted by
    # size, and none is listed
    assert SIZE_COUNT_ABOVE == 10
    members = [g for g in _class_population(3) if classify(g).in_class]
    unmixed = mixed = 0
    for g in members:
        verdict = is_unmixed_bruteforce(g)
        named = "_maximal_independent_sets" in vars(g)
        assert named == (not verdict.value)
        assert "_independent_masks" in vars(g)
        assert "_set_size_counts" not in vars(g)
        unmixed += verdict.value
        mixed += not verdict.value
    assert unmixed > 0 and mixed > 0
    for g in (pairs_graph(11), _whiskered_path(15), _chain(34)):
        assert is_unmixed_bruteforce(g).value is True
        assert "_set_size_counts" in vars(g)
        assert "_independent_masks" not in vars(g)
        assert "_maximal_independent_sets" not in vars(g)
    # a mixed graph above the threshold lists and names its sets for the
    # witnesses, as at or below it
    mixed_path = Graph.build(edges=[(f"v{i:02d}", f"v{i + 1:02d}") for i in range(11)])
    verdict = is_unmixed_bruteforce(mixed_path)
    assert verdict.value is False and "witness_small" in verdict.certificate
    assert "_maximal_independent_sets" in vars(mixed_path)
    # sets listed already are read, not counted
    listed = _whiskered_path(6)
    maximal_independent_sets(listed)
    assert is_unmixed_bruteforce(listed).certificate == {"cover_sizes": [6] * 21}
    assert "_set_size_counts" not in vars(listed)


def _size_histogram(g):
    """The oracle's maximal independent sets counted by size, as (size,
    count) pairs by ascending size."""
    return tuple(sorted(Counter(map(len, maximal_independent_sets_def(g))).items()))


def test_set_size_counts_match_the_oracle(monkeypatch):
    rng = random.Random(27)
    cases = _named_random_graphs(rng, 150, largest=16) + _disconnected_cases(rng)
    cases += [_whiskered_path(n) for n in range(1, 16)]
    cases += [_chain(n) for n in range(1, 35)]
    cases += [pairs_graph(n) for n in range(1, 13)]
    perfbench_module("checks", monkeypatch)
    inputs = perfbench_module("inputs", monkeypatch)
    blocks = [
        inputs.read_block(Path(FIXTURES, f"example5_1.b{i}.graph")) for i in (1, 2, 3)
    ]
    cases += [parse_graph(inputs.graft_text(blocks, c)).graph for c in range(1, 5)]
    for g in cases:
        assert g._set_size_counts == _size_histogram(g)
    assert Graph.build()._set_size_counts == ((0, 1),)
    # the sets of a disjoint union are the products of its parts' sets, so
    # n pairs have the oracle's two singletons of one pair to the n-th
    # power; pairs 20 has 2**20 sets of one size on 40 vertices, where a
    # digit that carried into the next would show
    assert _size_histogram(pairs_graph(1)) == ((1, 2),)
    for n in range(13, 21):
        assert pairs_graph(n)._set_size_counts == ((n, 2**n),)


def test_counting_a_long_chain_and_a_long_whiskered_path_is_fast():
    # one component of 1,200 vertices, and 317,811 sets, whose listing
    # takes about two seconds; counted, each takes under one
    start = time.perf_counter()
    chain, whiskered = _chain(600), _whiskered_path(26)
    assert chain._set_size_counts == ((600, 601),)
    assert whiskered._set_size_counts == ((26, 317_811),)
    verdict = is_unmixed_bruteforce(whiskered)
    assert verdict.certificate == {"cover_sizes": [26] * 317_811}
    assert time.perf_counter() - start < 5
    assert "_independent_masks" not in vars(chain)
    assert "_independent_masks" not in vars(whiskered)


def test_cover_sizes_are_the_complements_of_the_named_sets():
    rng = random.Random(20091026)
    graphs = _named_random_graphs(rng, 200) + _disconnected_cases(rng)
    for g in graphs:
        k = len(g.vertices)
        sizes = is_unmixed_bruteforce(g).certificate["cover_sizes"]
        assert sizes == sorted(k - len(s) for s in maximal_independent_sets(g))
    assert is_unmixed_bruteforce(Graph.build()).certificate == {"cover_sizes": [0]}


def test_the_600_pair_chain_enumerates_its_601_sets():
    # the pivot scan stops at a vertex that leaves one branch; without
    # that, every node of this search scans all 1200 vertices
    g = _chain(600)
    sets = maximal_independent_sets(g)
    assert len(set(sets)) == len(sets) == 601
    names, position, neighbours = g.vertices, g.position, g.neighbours
    full = (1 << len(names)) - 1
    for s in sets:
        bits = [position[v] for v in s]
        mask = sum(1 << i for i in bits)
        reach = mask
        for i in bits:
            assert not neighbours[i] & mask
            reach |= neighbours[i]
        assert reach == full


def _class_population(max_pairs):
    for n in range(1, max_pairs + 1):
        for mask in range(1 << len(optional_edges(n))):
            yield member_from_mask(n, mask).graph


def test_classify_from_masks_matches_brute_force():
    rng = random.Random(4368)
    graphs = list(_class_population(3)) + _named_random_graphs(rng, 200)
    assert len(graphs) > 700
    for g in graphs:
        edges = g.edge_list()
        isolated = tuple(v for v in g.vertices if not any(v in e for e in edges))
        h = brute_height(g.vertices, edges)
        k = len(g.vertices)
        assert isolated_vertices(g) == isolated
        assert classify(g).to_dict() == {
            "vertex_count": k,
            "height": h,
            "has_isolated": bool(isolated),
            "in_class": k > 0 and k == 2 * h and not isolated,
        }


def test_graph_identity_ignores_the_mask_memo(ex31):
    g = Graph.build(ex31.vertices, ex31.edges)
    fresh = Graph.build(ex31.vertices, ex31.edges)
    classify(g)
    maximal_independent_sets(g)
    assert g.has_edge("x1", "y1") and g.edges
    memo = {
        "position",
        "edges",
        "_independence_number",
        "_membership",
        "_independent_masks",
    }
    assert memo <= set(vars(g))
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert pickle.dumps(g) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(g))
    assert restored == g and not set(vars(restored)) - {"vertices", "neighbours"}
    assert classify(restored) == classify(g)


def _random_mask_graphs(rng, count):
    """Seeded graphs built straight from symmetric neighbour masks over
    sorted names, up to 12 vertices (x10 sorts before x2)."""
    graphs = []
    for _ in range(count):
        names = tuple(sorted(f"x{i}" for i in range(1, rng.randint(0, 12) + 1)))
        masks = [0] * len(names)
        p = rng.random()
        for i, j in itertools.combinations(range(len(names)), 2):
            if rng.random() < p:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        graphs.append(Graph(names, tuple(masks)))
    return graphs


def test_a_graph_built_from_masks_is_the_graph_of_its_edges():
    # every census draw with n <= 3, each of its deformations and its
    # restricted deformation, and seeded graphs built from masks: named
    # edges rebuild the same graph, with the same hash and pickle bytes
    graphs = _random_mask_graphs(random.Random(23), 300)
    for n in (1, 2, 3):
        for mask in range(1 << len(optional_edges(n))):
            pl = member_from_mask(n, mask)
            graphs += [o_set(pl, t) for t in index_subsets(n)]
            graphs.append(restricted_o_full(pl))
    assert len(graphs) > 4000
    for g in graphs:
        named = Graph.build(g.vertices, g.edges)
        assert named == g and hash(named) == hash(g) and repr(named) == repr(g)
        assert pickle.dumps(named) == pickle.dumps(g)
        assert g.vertices == tuple(sorted(g.vertices))


class _Counted:
    """A memo whose function counts its calls and raises on request."""

    def __init__(self, fail=0):
        self.calls, self.fail = 0, fail

    @memoized
    def value(self):
        self.calls += 1
        if self.calls <= self.fail:
            raise ValueError("not yet")
        return object()


def test_a_memo_is_computed_once_and_kept_on_the_instance():
    obj = _Counted()
    assert "value" not in vars(obj)
    first = obj.value
    assert vars(obj)["value"] is first and obj.value is first
    assert obj.calls == 1
    assert _Counted.value.func.__name__ == _Counted.value.name == "value"


def test_a_memo_whose_function_raises_stores_nothing():
    obj = _Counted(fail=1)
    with pytest.raises(ValueError, match="not yet"):
        obj.value
    assert "value" not in vars(obj)
    value = obj.value
    assert vars(obj)["value"] is value and obj.calls == 2


def test_counting_the_builds_of_a_memo_goes_through_its_function(monkeypatch):
    built = count_builds(monkeypatch, Graph, "_independence_number")
    g = pairs_graph(3)
    classify(g)
    classify(g)
    maximal_independent_sets(g)
    assert built == [g] and vars(g)["_independence_number"] == 3


def test_classify_enumerates_no_independent_set(ex31):
    for g in (Graph.build(ex31.vertices, ex31.edges), Graph.build(), pairs_graph(3)):
        classify(g)
        assert "_independence_number" in vars(g)
        assert "_independent_masks" not in vars(g)
        assert "_maximal_independent_sets" not in vars(g)


def test_height_search_matches_both_references():
    # every member with n <= 3, seeded graphs on up to 14 vertices, and
    # the 16 deformations of each draw of a seeded n = 4 sample
    rng = random.Random(19770601)
    graphs = list(_class_population(3)) + _named_random_graphs(rng, 320, largest=14)
    assert len(graphs) == 521 + 324
    assert any(len(g.vertices) == 14 for g in graphs)
    members = list(enumerate_class(4, mode="sample", seed=2010, count=40))
    assert len(members) == 40
    graphs += [o_set(pl, t) for pl in members for t in index_subsets(pl.n)]
    for g in graphs:
        expected = brute_height(g.vertices, g.edge_list())
        assert classify(g).height == expected
        assert len(g.vertices) - max(map(int.bit_count, g._independent_masks)) == expected


def _chain(n):
    """The upward chain on n pairs: the matching plus every x_i y_j, i < j."""
    edges = [(f"x{i}", f"y{j}") for i in range(1, n + 1) for j in range(i, n + 1)]
    return Graph.build(edges=edges)


def _whiskered_path(n):
    """The path x1 .. xn with a whisker y_i on every x_i."""
    edges = [(f"x{i}", f"y{i}") for i in range(1, n + 1)]
    return Graph.build(edges=edges + [(f"x{i}", f"x{i + 1}") for i in range(1, n)])


def test_height_of_large_families_needs_no_enumeration():
    star = Graph.build(edges=[("c", f"l{i:04d}") for i in range(1100)])
    cases = (
        (pairs_graph(1200), 1200, True),
        (_chain(600), 600, True),
        (_whiskered_path(40), 40, True),
        (star, 1, False),
    )
    for g, h, in_class in cases:
        membership = classify(g)
        assert (membership.height, membership.in_class) == (h, in_class)
        assert "_independent_masks" not in vars(g)


def test_enumerating_a_large_star_needs_no_recursion():
    # K_{1,1100}: the search is deeper than the default recursion limit
    leaves = [f"l{i:04d}" for i in range(1100)]
    g = Graph.build(edges=[("c", leaf) for leaf in leaves])
    assert maximal_independent_sets(g) == (frozenset(["c"]), frozenset(leaves))
    membership = classify(g)
    assert (membership.height, membership.has_isolated) == (1, False)
