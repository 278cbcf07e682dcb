import pytest

from cmgraphs.errors import PreconditionError
from cmgraphs.graphs import add_edges, is_unmixed_bruteforce, pairs_graph
from cmgraphs.invariants import invariant_report
from cmgraphs.pairing import make_labeling
from cmgraphs.transform import b_graft, restricted_o_full
from conftest import std_pairs
from oracles import brute_maximal_independents, brute_minimal_covers


def level_false_fixture():
    g = add_edges(pairs_graph(3), [("x1", "y3"), ("x2", "y3")])
    return make_labeling(g, std_pairs(3))


def test_socle_generators(ex31_pl):
    socle = invariant_report(ex31_pl).socle_monomials
    assert socle == (("x1",), ("x2",), ("x3",))
    pl = make_labeling(pairs_graph(3), std_pairs(3))
    assert invariant_report(pl).socle_monomials == (("x1", "x2", "x3"),)
    pl = make_labeling(
        add_edges(pairs_graph(2), [("x1", "y2")]), std_pairs(2)
    )
    assert invariant_report(pl).socle_monomials == (("x1",), ("x2",))


def test_cm_type_examples(ex31_pl):
    assert invariant_report(ex31_pl).cm_type == 3
    for n in range(1, 7):
        pl = make_labeling(pairs_graph(n), std_pairs(n))
        assert invariant_report(pl).cm_type == 1
    pl = make_labeling(
        add_edges(pairs_graph(2), [("x1", "y2")]), std_pairs(2)
    )
    assert invariant_report(pl).cm_type == 2


def test_cm_type_matches_restricted_oracle(ex31_pl):
    restricted = restricted_o_full(ex31_pl)
    oracle_covers = brute_minimal_covers(
        restricted.vertices, restricted.edge_list()
    )
    report = invariant_report(ex31_pl)
    assert report.cm_type == len(oracle_covers) == 3
    oracle_independents = brute_maximal_independents(
        restricted.vertices, restricted.edge_list()
    )
    assert list(report.socle_monomials) == [
        tuple(sorted(s)) for s in oracle_independents
    ]


def test_is_level(ex31_pl):
    assert invariant_report(ex31_pl).level is True
    pl = make_labeling(pairs_graph(4), std_pairs(4))
    assert invariant_report(pl).level is True

    pl = level_false_fixture()
    restricted = restricted_o_full(pl)
    assert restricted.edge_list() == [("x1", "x3"), ("x2", "x3")]
    assert invariant_report(pl).level is False
    verdict = is_unmixed_bruteforce(restricted)
    assert verdict.certificate["cover_sizes"] == [1, 2]


def test_is_gorenstein(ex31_pl, graft_spec):
    for n in range(1, 7):
        pl = make_labeling(pairs_graph(n), std_pairs(n))
        assert invariant_report(pl).gorenstein is True
    assert invariant_report(ex31_pl).gorenstein is False
    _, pl = b_graft(graft_spec)
    assert invariant_report(pl).gorenstein is False
    assert pl.graph.has_edge("x1", "x2")


def test_invariant_report(ex31_pl):
    report = invariant_report(ex31_pl)
    assert report.cm_type == 3
    assert report.socle_monomials == (("x1",), ("x2",), ("x3",))
    assert report.level is True
    assert report.gorenstein is False
    assert report.complete_intersection is False

    report = invariant_report(level_false_fixture())
    assert report.cm_type == 2 and report.level is False


def test_invariants_refuse_non_cm_inputs(c4_pl):
    with pytest.raises(PreconditionError):
        invariant_report(c4_pl)
    # mixed input fails the unmixedness part of the same gate
    mixed = make_labeling(
        add_edges(pairs_graph(2), [("x1", "y2"), ("x1", "x2")]), std_pairs(2)
    )
    with pytest.raises(PreconditionError):
        invariant_report(mixed)


def test_socle_count_equals_type_across_small_census():
    from cmgraphs.census import enumerate_class
    from cmgraphs.pairing import find_cycle

    for n in (1, 2, 3):
        for pl in enumerate_class(n):
            from cmgraphs.graphs import is_unmixed_bruteforce

            if not is_unmixed_bruteforce(pl.graph).value:
                continue
            if find_cycle(pl, max_r=2) is not None:
                continue
            report = invariant_report(pl)
            t = report.cm_type
            assert t >= 1
            assert len(report.socle_monomials) == t
            assert (t == 1) == (report.gorenstein is True)
            assert (t == 1) == (len(pl.graph.edges) == pl.n)
