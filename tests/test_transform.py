import itertools
import os
import pickle
import re

import pytest

from cmgraphs.census import enumerate_class, member_from_mask
from cmgraphs.errors import CmGraphsError, InputFormatError, StructureError
from cmgraphs.graphio import parse_graph_file
from cmgraphs.graphs import Graph, add_edges, classify, pairs_graph
from cmgraphs.pairing import find_star_labeling, make_labeling, validate_labeling
from cmgraphs.transform import (
    BGraftSpec,
    BipartiteBlock,
    b_graft,
    deformations,
    index_subsets,
    o_set,
    restricted_o_full,
    rewire,
)
from conftest import FIXTURES, fixture_path, std_pairs
from oracles import o_set_def


def test_o_operator_examples(ex31_pl):
    ex31 = ex31_pl.graph
    assert o_set(ex31_pl, (1,)) == ex31  # no cross edges into y1

    g2 = o_set(ex31_pl, (2,))
    assert not g2.has_edge("x1", "y2") and g2.has_edge("x1", "x2")

    g3 = o_set(ex31_pl, (3,))
    assert g3.edge_list() == [
        ("x1", "x3"),
        ("x1", "y1"),
        ("x1", "y2"),
        ("x2", "x3"),
        ("x2", "y2"),
        ("x3", "y3"),
    ]
    message = r"pair indices \[4\] out of range 1\.\.3"
    with pytest.raises(InputFormatError, match=message):
        o_set(ex31_pl, (4,))


def test_index_subsets_by_size_then_lexicographic():
    assert list(index_subsets(0)) == [()]
    assert list(index_subsets(3)) == [
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)
    ]
    subsets = list(index_subsets(5))
    assert len(subsets) == len(set(subsets)) == 32
    assert subsets == sorted(subsets, key=lambda t: (len(t), t))


def test_o_set_reproduces_deformed_figure(ex31_pl):
    assert o_set(ex31_pl, {2, 3}).edge_list() == [
        ("x1", "x2"),
        ("x1", "x3"),
        ("x1", "y1"),
        ("x2", "x3"),
        ("x2", "y2"),
        ("x3", "y3"),
    ]


def test_o_set_empty_is_identity(ex31_pl, c4_pl):
    assert o_set(ex31_pl, set()) == ex31_pl.graph
    assert o_set(c4_pl, set()) == c4_pl.graph
    # an empty subset, or one whose pairs have no links (pair 1 of
    # Example 3.1), returns the graph itself
    assert ex31_pl.relations.links[1] == 0
    for t in ((), set(), [1], [1, 1], (i for i in [1])):
        assert o_set(ex31_pl, t) is ex31_pl.graph
    assert o_set(c4_pl, iter(())) is c4_pl.graph
    bare = make_labeling(pairs_graph(3), std_pairs(3))
    assert o_set(bare, [1, 2, 3]) is bare.graph


def test_o_set_reads_any_iterable_of_indices(ex31_pl):
    member = member_from_mask(4, 0b101101001011)
    for pl in (ex31_pl, member):
        expected = o_set(pl, {1, 3})
        assert expected == o_set_def(pl, {1, 3}) != pl.graph
        assert o_set(pl, [3, 1, 3]) == expected
        assert o_set(pl, (i for i in (3, 1))) == expected
        message = re.escape(f"pair indices [0, 9] out of range 1..{pl.n}")
        with pytest.raises(InputFormatError, match=message):
            o_set(pl, [3, 0, 9, 0])


def test_o_set_on_four_cycle_deduplicates(c4_pl):
    assert o_set(c4_pl, {1, 2}).edge_list() == [
        ("x1", "x2"),
        ("x1", "y1"),
        ("x2", "y2"),
    ]


def test_o_set_order_independence(ex31_pl, c4_pl):
    for pl in (ex31_pl, c4_pl):
        n = pl.n
        for t in (set(range(1, n + 1)), {1, n}):
            expected = o_set(pl, t)
            for perm in itertools.permutations(sorted(t)):
                acc = pl
                for i in perm:
                    acc = acc.with_graph(o_set(acc, (i,)))
                assert acc.graph == expected


def test_o_operator_idempotent(ex31_pl):
    for i in (1, 2, 3):
        once = ex31_pl.with_graph(o_set(ex31_pl, (i,)))
        assert o_set(once, (i,)) == once.graph


def test_o_preserves_class_and_labeling_exhaustive_small():
    for n in (1, 2, 3):
        for pl in enumerate_class(n):
            for t in index_subsets(n):
                deformed = pl.with_graph(o_set(pl, t))
                assert classify(deformed.graph).in_class
                assert validate_labeling(deformed) == []


def _linked_both_ways():
    # x1 x2 is already a cover edge and both links y1 x2 and y2 x1 exist,
    # so every subset either keeps that edge or makes it a second time
    both_ways = make_labeling(
        add_edges(pairs_graph(2), [("x1", "x2"), ("x1", "y2"), ("x2", "y1")]),
        std_pairs(2),
    )
    assert both_ways.relations.links == (0, 0b100, 0b10)
    return both_ways


def test_the_deformation_lattice_is_o_set_on_every_subset(ex31_pl):
    # each subset in order, with the neighbours of o_set and of the
    # definition; subsets with the same linked pairs share one object,
    # built at the first of them, which is those pairs themselves
    members = [pl for n in (1, 2, 3) for pl in enumerate_class(n)]
    members += enumerate_class(4, mode="sample", seed=14, count=300)
    members += enumerate_class(5, mode="sample", seed=15, count=40)
    members += [_linked_both_ways(), ex31_pl]
    shared = 0
    for pl in members:
        links = pl.relations.links
        walked = list(deformations(pl))
        assert [t for t, _, _ in walked] == list(index_subsets(pl.n))
        first = {}
        for t, g, built in walked:
            assert g.vertices == pl.graph.vertices
            assert g.neighbours == o_set(pl, t).neighbours
            assert g.neighbours == o_set_def(pl, t).neighbours
            key = tuple(i for i in t if links[i])
            if key in first:
                assert g is first[key] and not built
                shared += 1
            else:
                assert key == t and built is (t != ())
                first[key] = g
        assert first[()] is pl.graph
        assert len({g.neighbours for g in first.values()}) == len(first)
    assert shared > 2500
    # pair 1 of Example 3.1 has no link
    walked = {t: g for t, g, _ in deformations(ex31_pl)}
    assert walked[(1,)] is ex31_pl.graph
    assert walked[(1, 2)] is walked[(2,)] and walked[(1, 2, 3)] is walked[(2, 3)]


def test_rewiring_a_deformation_composes_the_subsets():
    # the lattice builds each graph from a smaller one; rewiring a pair
    # that is already rewired changes nothing
    members = [pl for n in (1, 2, 3) for pl in enumerate_class(n)]
    members.append(_linked_both_ways())
    for pl in members:
        subsets = list(index_subsets(pl.n))
        for s in subsets:
            deformed = o_set(pl, s)
            for t in subsets:
                assert rewire(pl, deformed, t) == o_set(pl, set(s) | set(t))


def _handed_over_view_is_the_definitions_view(pl):
    for t in index_subsets(pl.n):
        d = o_set(pl, t)
        if d is not pl.graph:
            assert "edges" not in vars(d)  # built from masks, not yet named
        assert d.neighbours == o_set_def(pl, t).neighbours


def test_o_set_hands_over_the_view_its_edges_give(ex31_pl, c4_pl, graft_spec):
    members = [pl for n in (1, 2, 3) for pl in enumerate_class(n)]
    assert len(members) == 521
    members += enumerate_class(4, mode="sample", seed=11, count=300)
    members += enumerate_class(5, mode="sample", seed=12, count=60)
    members += [ex31_pl, c4_pl, b_graft(graft_spec)[1]]
    for name in sorted(os.listdir(FIXTURES)):
        try:
            graph = parse_graph_file(fixture_path(name)).graph
            members.append(find_star_labeling(graph))
        except CmGraphsError:
            pass
    both_ways = _linked_both_ways()
    assert o_set(both_ways, {1, 2}).edge_list() == [
        ("x1", "x2"), ("x1", "y1"), ("x2", "y2")
    ]
    for pl in [both_ways, *members]:
        _handed_over_view_is_the_definitions_view(pl)


def test_a_deformed_graph_names_its_edges_only_when_they_are_read():
    # the census sweep classifies and validates each deformation on its
    # masks; once read, the edges named off them are the definition's
    members = [pl for n in (1, 2, 3) for pl in enumerate_class(n)]
    assert len(members) == 521
    members += enumerate_class(4, mode="sample", seed=13, count=200)
    named = 0
    for pl in members:
        for t in index_subsets(pl.n):
            d = pl.with_graph(o_set(pl, t))
            assert classify(d.graph).in_class and validate_labeling(d) == []
            if d.graph is not pl.graph:
                assert "edges" not in vars(d.graph)
                named += 1
            expected = o_set_def(pl, t)
            assert d.graph.edges == expected.edges
            assert vars(d.graph)["edges"] is d.graph.edges
            assert d.graph == expected and hash(d.graph) == hash(expected)
            assert d.graph.edge_list() == expected.edge_list()
            again = pickle.loads(pickle.dumps(d.graph))
            assert again == expected and again.neighbours == d.graph.neighbours
    assert named > 2000


def test_restricted_o_full(ex31_pl, c4_pl):
    assert restricted_o_full(ex31_pl).edge_list() == [
        ("x1", "x2"),
        ("x1", "x3"),
        ("x2", "x3"),
    ]
    assert restricted_o_full(c4_pl).edge_list() == [("x1", "x2")]
    pl = make_labeling(pairs_graph(4), std_pairs(4))
    restricted = restricted_o_full(pl)
    assert restricted.vertices == ("x1", "x2", "x3", "x4")
    assert restricted.edge_list() == []


def test_b_graft_reproduces_three_block_figure(graft_spec):
    g, pl = b_graft(graft_spec)
    assert g.edge_list() == [
        ("x1", "x2"),
        ("x1", "x3"),
        ("x1", "x4"),
        ("x1", "y1"),
        ("x2", "x4"),
        ("x2", "y2"),
        ("x2", "y3"),
        ("x3", "x4"),
        ("x3", "y3"),
        ("x4", "y4"),
    ]
    assert pl.pairs == (("x1", "y1"), ("x2", "y2"), ("x3", "y3"), ("x4", "y4"))
    assert validate_labeling(pl) == []


def test_b_graft_single_vertex_base_returns_block():
    h0 = Graph.build(vertices=["1"])
    block = BipartiteBlock(
        Graph.build(edges=[("a", "b")]), ("a",), ("b",)
    )
    g, pl = b_graft(BGraftSpec(h0, (block,)))
    assert g.edge_list() == [("a", "b")]
    assert pl.pairs == (("a", "b"),)


def test_b_graft_two_single_edge_blocks_is_cm():
    from cmgraphs.complexes import (
        complementary_complex,
        check_shelling,
        find_shelling,
        is_pure,
    )

    h0 = Graph.build(edges=[("1", "2")])
    b1 = BipartiteBlock(Graph.build(edges=[("x1", "y1")]), ("x1",), ("y1",))
    b2 = BipartiteBlock(Graph.build(edges=[("x2", "y2")]), ("x2",), ("y2",))
    g, pl = b_graft(BGraftSpec(h0, (b1, b2)))
    assert g.edge_list() == [("x1", "x2"), ("x1", "y1"), ("x2", "y2")]
    complex_ = complementary_complex(g)
    assert is_pure(complex_).value
    order = find_shelling(complex_)
    assert order is not None and check_shelling(complex_, order)


def test_b_graft_spec_validation():
    h0 = Graph.build(edges=[("1", "2")])
    good = BipartiteBlock(Graph.build(edges=[("a", "b")]), ("a",), ("b",))

    not_bipartite = BipartiteBlock(
        Graph.build(edges=[("a", "b"), ("a", "c"), ("b", "d"), ("a", "d")]),
        ("a", "b"),
        ("c", "d"),
    )
    with pytest.raises(InputFormatError):
        b_graft(BGraftSpec(h0, (good, not_bipartite)))

    unequal = BipartiteBlock(
        Graph.build(edges=[("p", "q"), ("r", "q")]), ("p", "r"), ("q",)
    )
    with pytest.raises(InputFormatError):
        b_graft(BGraftSpec(h0, (good, unequal)))

    isolated = BipartiteBlock(
        Graph.build(vertices=["p", "q", "r", "s"], edges=[("p", "q")]),
        ("p", "r"),
        ("q", "s"),
    )
    with pytest.raises(InputFormatError):
        b_graft(BGraftSpec(h0, (good, isolated)))

    with pytest.raises(InputFormatError):
        b_graft(BGraftSpec(Graph.build(vertices=["1", "3"]), (good, good)))

    with pytest.raises(InputFormatError):  # duplicated vertex names
        b_graft(BGraftSpec(h0, (good, good)))


def test_b_graft_block_without_matching_errors():
    h0 = Graph.build(vertices=["1"])
    block = BipartiteBlock(
        Graph.build(
            edges=[("x1", "y1"), ("x2", "y1"), ("x3", "y2"), ("x3", "y3")]
        ),
        ("x1", "x2", "x3"),
        ("y1", "y2", "y3"),
    )
    with pytest.raises(StructureError) as err:
        b_graft(BGraftSpec(h0, (block,)))
    assert err.value.hall_set == ["x1", "x2"]


def test_grafted_special_case_single_edge_blocks():
    # every block a single matched edge: the cover sides get joined along
    # the base graph and each y hangs off its x with degree one
    h0 = Graph.build(edges=[("1", "2"), ("2", "3")])
    blocks = tuple(
        BipartiteBlock(
            Graph.build(edges=[(f"x{i}", f"y{i}")]), (f"x{i}",), (f"y{i}",)
        )
        for i in (1, 2, 3)
    )
    g, pl = b_graft(BGraftSpec(h0, blocks))
    assert g.edge_list() == [
        ("x1", "x2"),
        ("x1", "y1"),
        ("x2", "x3"),
        ("x2", "y2"),
        ("x3", "y3"),
    ]
    assert add_edges(
        pairs_graph(3), [("x1", "x2"), ("x2", "x3")]
    ) == g
