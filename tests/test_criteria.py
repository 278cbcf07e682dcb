from pathlib import Path

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
import cmgraphs.criteria as criteria
import cmgraphs.pairing as pairing
from cmgraphs.census import enumerate_class, member_from_mask, optional_edges
from cmgraphs.cli import _labeling_for
from cmgraphs.errors import PreconditionError, RouteDisagreementError
from cmgraphs.graphs import (
    Graph,
    add_edges,
    is_unmixed_bruteforce,
    pairs_graph,
)
from cmgraphs.graphio import parse_graph, parse_graph_file
from cmgraphs.pairing import make_labeling
from cmgraphs.transform import b_graft, index_subsets, o_set
from cmgraphs.verdicts import Verdict
from conftest import FIXTURES, fixture_path, perfbench_module, std_pairs
from oracles import brute_minimal_covers, o_set_def, route_e_def


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


def test_unmixed_verdict_reports_a_rejected_labeling(ex31, monkeypatch):
    # only a missing matching falls back to brute force; a labeling the
    # validator rejects is an internal disagreement
    monkeypatch.setattr(pairing, "validate_labeling", lambda pl: ["rejected"])
    with pytest.raises(RouteDisagreementError):
        unmixed_verdict(ex31)


def test_route_e_samples_above_the_subset_cap(ex31_pl, c4_pl, monkeypatch):
    exhaustive = cm_routes(c4_pl, "e")["e"]
    monkeypatch.setattr(criteria, "DEFORMATION_SUBSET_CAP", 0)
    sampled = cm_routes(ex31_pl, "e")["e"]
    assert sampled.value is None
    assert sampled.certificate == {"subsets_sampled": 256}

    sampled = cm_routes(c4_pl, "e")["e"]
    assert sampled.value is False and exhaustive.value is False
    deformed = is_unmixed_bruteforce(o_set(c4_pl, sampled.certificate["subset"]))
    assert deformed.value is False
    assert sampled.certificate["deformed"] == deformed.certificate


def _route_e_labelings(monkeypatch):
    """Every member with at most three pairs, then the labelings of the
    benchmark's oracle_routes inputs for two seeds."""
    members = [pl for n in (1, 2, 3) for pl in enumerate_class(n)]
    perfbench_module("checks", monkeypatch)
    inputs = perfbench_module("inputs", monkeypatch)
    texts = {
        item.text
        for seed in (inputs.DEFAULT_SEED, 2)
        for item in inputs.oracle_routes(seed, Path(FIXTURES))
    }
    return members, [_labeling_for(parse_graph(text)) for text in sorted(texts)]


def test_route_e_skips_a_subset_whose_linked_pairs_it_checked(monkeypatch):
    # a deformation depends only on the linked pairs of its subset, so the
    # skip changes no verdict or certificate of the walk over every subset,
    # exhaustive or sampled; brute force runs once per distinct deformation
    # up to the first mixed one
    members, inputs = _route_e_labelings(monkeypatch)
    assert len(members) == 521 and len(inputs) > 20
    calls, brute = [], criteria.is_unmixed_bruteforce

    def counted(g):
        calls.append(g)
        return brute(g)

    monkeypatch.setattr(criteria, "is_unmixed_bruteforce", counted)
    skipped = 0
    for pl in members + inputs:
        calls.clear()
        verdict = criteria._route_e(pl)
        assert verdict == route_e_def(pl)
        subsets = list(index_subsets(pl.n))
        if verdict.value is False:
            subsets = subsets[: subsets.index(tuple(verdict.certificate["subset"])) + 1]
        distinct = {o_set_def(pl, t) for t in subsets}
        assert len(calls) == len(set(calls)) == len(distinct)
        skipped += len(subsets) - len(distinct)
    assert skipped > 100

    monkeypatch.setattr(criteria, "DEFORMATION_SUBSET_CAP", 0)
    sampled = 0
    for pl in members + inputs:
        verdict = criteria._route_e(pl)
        assert verdict == route_e_def(pl)
        sampled += verdict.value is None
    assert sampled > 20


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


def test_minimal_prime_shape_names_the_first_failing_cover():
    # the sets are walked in reverse, which is the covers' order by
    # sorted names, so the certificate is that of the first cover that
    # does not meet some pair exactly once
    failing = 0
    for n in (1, 2, 3):
        for mask in range(1 << len(optional_edges(n))):
            pl = member_from_mask(n, mask)
            g = pl.graph
            expected = Verdict(True, "cover-shape", None)
            for cover in brute_minimal_covers(g.vertices, g.edge_list()):
                hits = [len({pl.x(i), pl.y(i)} & cover) for i in range(1, n + 1)]
                bad = next((i for i, h in enumerate(hits, 1) if h != 1), None)
                if bad is not None:
                    certificate = {
                        "cover": sorted(cover),
                        "pair_index": bad,
                        "hits": hits[bad - 1],
                    }
                    expected = Verdict(False, "cover-shape", certificate)
                    failing += 1
                    break
            assert minimal_prime_shape(pl) == expected
    assert failing > 100


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
