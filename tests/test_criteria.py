import pytest

from cmgraphs.criteria import (
    _structural_scan,
    cm_routes,
    cm_structural_doublestar,
    cm_verdict,
    degree_one_exists,
    generator_bounds,
    minimal_prime_shape,
    unmixed_verdict,
)
from cmgraphs.errors import PreconditionError
from cmgraphs.graphs import (
    Graph,
    add_edges,
    is_unmixed_bruteforce,
    pairs_graph,
)
from cmgraphs.graphio import parse_graph_file
from cmgraphs.pairing import make_labeling
from cmgraphs.transform import b_graft
from conftest import fixture_path, std_pairs


def test_unmixed_structural_examples(ex31_pl):
    verdict = _structural_scan(ex31_pl)
    assert verdict.value is True

    g = add_edges(pairs_graph(3), [("y1", "x2"), ("x1", "x2")])
    pl = make_labeling(g, std_pairs(3))
    verdict = _structural_scan(pl)
    assert verdict.value is False
    assert verdict.certificate["condition"] == "ii"
    assert verdict.certificate["witness"]["i"] == 2
    assert verdict.certificate["witness"]["j"] == 1

    pl = make_labeling(pairs_graph(2), std_pairs(2))
    assert _structural_scan(pl).value is True


def test_unmixed_structural_condition_i():
    # y3-x2 and y2-x1 present but y3-x1 missing
    g = add_edges(pairs_graph(3), [("y3", "x2"), ("y2", "x1")])
    pl = make_labeling(g, std_pairs(3))
    verdict = _structural_scan(pl)
    assert verdict.value is False
    assert verdict.certificate["condition"] == "i"
    # adding the forced edge repairs it
    repaired = make_labeling(
        add_edges(g, [("y3", "x1")]), std_pairs(3)
    )
    assert _structural_scan(repaired).value is True


def test_unmixed_verdict_merges_routes(ex31, c4):
    for g in (ex31, c4, pairs_graph(2)):
        verdict = unmixed_verdict(g)
        assert verdict.value is True
        assert verdict.value == is_unmixed_bruteforce(g).value

    path = Graph.build(edges=[("a", "b"), ("b", "c")])
    assert unmixed_verdict(path).value is False  # brute force fallback

    no_matching = parse_graph_file(fixture_path("no_matching.graph")).graph
    verdict = unmixed_verdict(no_matching)
    assert verdict.value is False and verdict.route == "cover-sizes"


def test_cm_verdict_all_routes_true(ex31_pl):
    verdict = cm_verdict(ex31_pl, routes="abcdef")
    assert verdict.value is True
    routes = verdict.certificate["routes"]
    assert sorted(routes) == list("abcdef")
    assert all(v["value"] is True for v in routes.values())


def test_cm_verdict_all_routes_false_with_certificates(c4_pl):
    results = cm_routes(c4_pl, "abcdef")
    assert all(v.value is False for v in results.values())
    assert results["a"].certificate["cycle"] == [1, 2]
    assert len(results["b"].certificate["components"]) == 2
    assert results["c"].certificate["cycle"] == [1, 2]
    assert results["d"].certificate["second_matching"] == [
        ["x1", "y2"],
        ["x2", "y1"],
    ]
    assert results["e"].certificate["subset"] == [1]
    assert results["e"].certificate["deformed"]["cover_sizes"] == [2, 2, 3]
    profile = results["f"].certificate["profile"]
    assert profile["face"] == [] and profile["reduced_betti"][1] == 1

    verdict = cm_verdict(c4_pl, routes="abcdef")
    assert verdict.value is False and verdict.route == "no-short-cycle"


def test_cm_verdict_requires_unmixed():
    g = add_edges(pairs_graph(2), [("x1", "y2"), ("x1", "x2")])
    pl = make_labeling(g, std_pairs(2))
    with pytest.raises(PreconditionError):
        cm_verdict(pl)


def test_cm_verdict_rational_field(ex31_pl, c4_pl):
    assert cm_verdict(ex31_pl, routes="f", field="Q").value is True
    assert cm_verdict(c4_pl, routes="f", field="Q").value is False


def test_cm_verdict_on_graft(graft_spec):
    _, pl = b_graft(graft_spec)
    assert cm_verdict(pl, routes="abcd").value is True


def test_cm_structural_doublestar(ex31_pl):
    assert cm_structural_doublestar(ex31_pl).value is True

    g = add_edges(pairs_graph(2), [("x1", "y2"), ("x1", "x2")])
    pl = make_labeling(g, std_pairs(2))
    verdict = cm_structural_doublestar(pl)
    assert verdict.value is False and verdict.certificate["condition"] == "ii"

    for n in (1, 2, 3):
        pl = make_labeling(pairs_graph(n), std_pairs(n))
        assert cm_structural_doublestar(pl).value is True


def test_cm_structural_doublestar_requires_upward_labeling():
    g = add_edges(pairs_graph(2), [("x2", "y1")])  # cross edge points down
    pl = make_labeling(g, std_pairs(2))
    with pytest.raises(PreconditionError):
        cm_structural_doublestar(pl)


def test_minimal_prime_shape(ex31_pl, c4_pl):
    assert minimal_prime_shape(ex31_pl).value is True
    assert minimal_prime_shape(c4_pl).value is True
    pl = make_labeling(pairs_graph(1), std_pairs(1))
    assert minimal_prime_shape(pl).value is True


def test_minimal_prime_shape_catches_mixed():
    # mixed graphs can have covers that double up inside a pair
    g = add_edges(pairs_graph(2), [("x1", "y2"), ("x1", "x2")])
    pl = make_labeling(g, std_pairs(2))
    verdict = minimal_prime_shape(pl)
    assert verdict.value is False
    assert verdict.certificate["cover"] == ["x2", "y1", "y2"]


def test_generator_bounds(ex31_pl, c4_pl):
    verdict = generator_bounds(ex31_pl)
    assert verdict.value is True
    cert = verdict.certificate
    assert cert["edges"] == 6 and cert["cm_bound"] == 6 and cert["cm_slack"] == 0

    verdict = generator_bounds(c4_pl)
    cert = verdict.certificate
    assert cert["edges"] == 4 and cert["unmixed_bound"] == 4
    assert cert["unmixed_slack"] == 0 and cert["cm"] is False

    for n in (1, 2, 3, 4):
        pl = make_labeling(pairs_graph(n), std_pairs(n))
        cert = generator_bounds(pl).certificate
        assert cert["edges"] == n <= cert["cm_bound"]


def test_degree_one_exists(ex31_pl, c4_pl, graft_spec):
    verdict = degree_one_exists(ex31_pl)
    assert verdict.value is True
    from cmgraphs.graphs import degrees

    ones = {v for v, d in degrees(ex31_pl.graph).items() if d == 1}
    assert ones == {"x3", "y1"}  # y1 is a witness, x3 sorts first
    assert verdict.certificate["vertex"] == "x3"

    verdict = degree_one_exists(c4_pl)
    assert verdict.value is False and verdict.certificate["min_degree"] == 2

    _, pl = b_graft(graft_spec)
    assert degree_one_exists(pl).value is True
    from cmgraphs.graphs import degrees

    deg = degrees(pl.graph)
    assert sorted(v for v, d in deg.items() if d == 1) == ["y1", "y2", "y4"]
