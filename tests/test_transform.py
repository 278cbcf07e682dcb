import itertools

import pytest

from cmgraphs.census import enumerate_class
from cmgraphs.errors import InputFormatError, StructureError
from cmgraphs.graphs import Graph, add_edges, classify, pairs_graph
from cmgraphs.pairing import make_labeling, validate_labeling
from cmgraphs.transform import (
    BGraftSpec,
    BipartiteBlock,
    b_graft,
    o_operator,
    o_set,
    restricted_o_full,
)
from conftest import std_pairs


def test_o_operator_examples(ex31_pl):
    ex31 = ex31_pl.graph
    assert o_operator(ex31_pl, 1) == ex31  # no cross edges into y1

    g2 = o_operator(ex31_pl, 2)
    assert not g2.has_edge("x1", "y2") and g2.has_edge("x1", "x2")

    g3 = o_operator(ex31_pl, 3)
    assert g3.edge_list() == [
        ("x1", "x3"),
        ("x1", "y1"),
        ("x1", "y2"),
        ("x2", "x3"),
        ("x2", "y2"),
        ("x3", "y3"),
    ]
    with pytest.raises(InputFormatError):
        o_operator(ex31_pl, 4)


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
                    acc = acc.with_graph(o_operator(acc, i))
                assert acc.graph == expected


def test_o_operator_idempotent(ex31_pl):
    for i in (1, 2, 3):
        once = ex31_pl.with_graph(o_operator(ex31_pl, i))
        assert o_operator(once, i) == once.graph


def test_o_preserves_class_and_labeling_exhaustive_small():
    for n in (1, 2, 3):
        for pl in enumerate_class(n):
            for size in range(n + 1):
                for t in itertools.combinations(range(1, n + 1), size):
                    deformed = pl.with_graph(o_set(pl, t))
                    assert classify(deformed.graph).in_class
                    assert validate_labeling(deformed) == []


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
