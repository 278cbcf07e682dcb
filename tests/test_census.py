import sys

import pytest

import cmgraphs.census as census
import cmgraphs.criteria as criteria
import cmgraphs.graphs as graphs
import cmgraphs.invariants as invariants
import cmgraphs.pairing as pairing
import cmgraphs.transform as transform
from cmgraphs.census import (
    CensusReport,
    cross_validate,
    enumerate_class,
    member_from_mask,
    optional_edges,
)
from cmgraphs.cli import main
from cmgraphs.errors import CapacityError, CmGraphsError
from cmgraphs.graphs import Graph, classify
from cmgraphs.pairing import validate_labeling
from cmgraphs.verdicts import Verdict
from conftest import count_builds
from oracles import (
    brute_height,
    brute_is_unmixed,
    find_cycle_def,
    is_independent_def,
)

_EMPTY_SUMMARY = {"unmixed": False, "cm": False, "cm_type": None}


def test_optional_edges_exclude_independent_side():
    for n in (1, 2, 3, 4):
        opts = optional_edges(n)
        assert len(opts) == 3 * n * (n - 1) // 2
        assert all(not (a[0] == "y" and b[0] == "y") for a, b in opts)
        assert list(opts) == sorted(opts)


def test_population_one_pair():
    members = list(enumerate_class(1))
    assert len(members) == 1
    assert members[0].graph.edge_list() == [("x1", "y1")]


def test_population_two_pairs_by_oracle():
    # every one of the 8 candidate-subset graphs satisfies the class and
    # labeling conditions, checked definitionally
    members = list(enumerate_class(2))
    assert len(members) == 8
    for pl in members:
        g = pl.graph
        edges = g.edge_list()
        assert is_independent_def(edges, {"y1", "y2"})
        assert brute_height(g.vertices, edges) == 2
        assert len(g.vertices) == 4
        assert validate_labeling(pl) == []


def test_every_member_passes_the_labeling_validator():
    for n in (1, 2, 3):
        for pl in enumerate_class(n):
            assert validate_labeling(pl) == []
            assert classify(pl.graph).in_class


def test_enumerate_class_capacity():
    with pytest.raises(CapacityError):
        list(enumerate_class(5))


def test_sample_mode_requires_seed():
    with pytest.raises(CmGraphsError):
        list(enumerate_class(2, mode="sample", count=5))


def test_census_arguments_are_bounded():
    for kwargs in (
        {"n": 0},
        {"n": -1, "mode": "sample", "seed": 1},
        {"n": 2, "mode": "sample", "seed": 1, "count": 0},
        {"n": 2, "mode": "sample", "seed": 1, "count": -3},
    ):
        with pytest.raises(CmGraphsError, match="must be positive"):
            list(enumerate_class(**kwargs))
        with pytest.raises(CmGraphsError, match="must be positive"):
            cross_validate(**kwargs)


def test_exhaustive_mode_rejects_sample_flags(capsys):
    for kwargs in ({"count": 5}, {"seed": 9}):
        with pytest.raises(CmGraphsError, match="only to sample mode"):
            list(enumerate_class(1, **kwargs))
        with pytest.raises(CmGraphsError, match="only to sample mode"):
            cross_validate(1, **kwargs)
    for flags in (("--count", "5"), ("--seed", "9")):
        assert main(["census", "--n", "1", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "only to sample mode" in err


def _stub_check_member(monkeypatch):
    # the draws and the pool, not the checks, are under test
    monkeypatch.setattr(
        census,
        "check_member",
        lambda pl, index, full: {"summary": _EMPTY_SUMMARY, "violations": []},
    )


def test_worker_count_is_bounded(monkeypatch, capsys):
    requested = []

    class RefusingPool:
        # records the request and starts nothing; the census then falls
        # back to its serial path
        def __init__(self, processes):
            requested.append(processes)
            raise OSError("no worker processes here")

    monkeypatch.setattr(census.multiprocessing, "Pool", RefusingPool)
    monkeypatch.setattr(census.multiprocessing, "cpu_count", lambda: 4)
    _stub_check_member(monkeypatch)
    for threads in (100000, 0, 3, 1):
        report = cross_validate(2, mode="sample", seed=1, count=64, threads=threads)
        assert report.population == 64
    assert requested == [4, 4, 3]

    with pytest.raises(CmGraphsError, match="thread count"):
        cross_validate(2, mode="sample", seed=1, count=64, threads=-7)
    assert main(["census", "--n", "3", "--threads", "-1"]) == 1
    assert "thread count" in capsys.readouterr().err
    assert requested == [4, 4, 3]


def test_omitted_count_draws_ten_thousand(monkeypatch):
    _stub_check_member(monkeypatch)
    report = cross_validate(1, mode="sample", seed=1)
    assert report.population == 10000 and report.sample_count is None
    assert sum(1 for _ in enumerate_class(2, mode="sample", seed=1)) == 10000


def test_member_from_mask_is_deterministic():
    a = member_from_mask(3, 0b101)
    b = member_from_mask(3, 0b101)
    # the shared candidates are a tuple, so no caller can change them
    assert a == b and type(optional_edges(3)) is tuple
    assert len(optional_edges(3)) == 9


def test_cross_validate_exhaustive_counts():
    r1 = cross_validate(1)
    assert (r1.population, r1.unmixed_count, r1.cm_count) == (1, 1, 1)
    assert r1.type_histogram == {1: 1}
    assert r1.violations == []

    r2 = cross_validate(2)
    assert (r2.population, r2.unmixed_count, r2.cm_count) == (8, 5, 4)
    assert r2.type_histogram == {1: 1, 2: 3}
    assert r2.violations == []

    # independent recount of the unmixed population
    unmixed = sum(
        brute_is_unmixed(pl.graph.vertices, pl.graph.edge_list())
        for pl in enumerate_class(2)
    )
    assert unmixed == r2.unmixed_count


def test_report_invariants_and_determinism():
    first = cross_validate(2)
    second = cross_validate(2)
    assert first.canonical_json() == second.canonical_json()
    assert first.cm_count <= first.unmixed_count <= first.population

    sampled_a = cross_validate(3, mode="sample", seed=9, count=50)
    sampled_b = cross_validate(3, mode="sample", seed=9, count=50)
    assert sampled_a.canonical_json() == sampled_b.canonical_json()
    assert sampled_a.sample_count == 50


def test_sampled_run_small_is_clean():
    report = cross_validate(4, mode="sample", seed=42, count=200)
    assert report.violations == []
    assert report.population == 200


def test_histogram_csv():
    report = CensusReport(
        n=2,
        mode="exhaustive",
        seed=None,
        sample_count=None,
        population=8,
        unmixed_count=5,
        cm_count=4,
        type_histogram={1: 1, 2: 3},
        violations=[],
    )
    assert report.histogram_csv() == "type,count\n1,1\n2,3\n"


def test_threads_parallel_matches_serial():
    # n=3 is the smallest census that actually fans out into chunks
    serial = cross_validate(3, threads=1)
    parallel = cross_validate(3, threads=2)
    assert serial.canonical_json() == parallel.canonical_json()


def _cm_member():
    # the path y2 - x2 - y1 - x1: unmixed and Cohen-Macaulay, type two
    member = member_from_mask(2, 0b100)
    assert member.graph.edge_list() == [("x1", "y1"), ("x2", "y1"), ("x2", "y2")]
    return member


def test_structural_disagreement_is_recorded_once(monkeypatch):
    import cmgraphs.criteria as criteria
    from cmgraphs.verdicts import Verdict

    # the upward relabeling swaps the pairs, so only this labeling's scan
    # is flipped
    member = _cm_member()
    scan = criteria._structural_scan

    def flipped(pl):
        v = scan(pl)
        return Verdict(not v.value, v.route, v.certificate) if pl == member else v

    monkeypatch.setattr(census, "_structural_scan", flipped)
    monkeypatch.setattr(criteria, "_structural_scan", flipped)
    outcome = census.check_member(member, 0, full_oracles=False)
    assert [v["check"] for v in outcome["violations"]] == [
        "unmixedness-equivalence"
    ]
    assert outcome["summary"] == _EMPTY_SUMMARY


def test_cycle_validator_disagreement_is_recorded(monkeypatch, capsys):
    with_cycle = [
        mask for mask in range(8) if find_cycle_def(member_from_mask(2, mask))
    ]
    assert with_cycle
    monkeypatch.setattr(pairing, "cycle_witness_holds", lambda pl, w: False)
    report = cross_validate(2)
    assert report.population == 8
    assert [v["index"] for v in report.violations] == with_cycle
    for v in report.violations:
        assert v["check"] == "internal-disagreement"
        assert v["details"]["cycle"] == [1, 2]

    assert main(["census", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert '"internal-disagreement"' in out


def test_invariant_disagreement_is_recorded_once(monkeypatch):
    from cmgraphs.errors import RouteDisagreementError

    member = _cm_member()

    def rejecting(pl):
        raise RouteDisagreementError("patched", dump=pl.dump(patched=True))

    monkeypatch.setattr(census, "invariant_report", rejecting)
    outcome = census.check_member(member, 0, full_oracles=False)
    assert [v["check"] for v in outcome["violations"]] == [
        "gorenstein-iff-type-one"
    ]
    assert outcome["violations"][0]["details"]["patched"] is True
    assert outcome["summary"] == {"unmixed": True, "cm": True, "cm_type": None}


def test_generator_bound_violation_is_recorded_once(monkeypatch):
    member = _cm_member()
    bounds = census.generator_bounds

    def failing(pl):
        v = bounds(pl)
        return Verdict(False, v.route, v.certificate)

    monkeypatch.setattr(census, "generator_bounds", failing)
    outcome = census.check_member(member, 0, full_oracles=False)
    assert [v["check"] for v in outcome["violations"]] == ["generator-bound"]
    assert outcome["violations"][0]["details"]["edges"] == 3


def test_homology_of_a_mixed_member_is_route_f(monkeypatch):
    from cmgraphs.complexes import field_label

    mixed = next(
        pl for pl in enumerate_class(2)
        if not brute_is_unmixed(pl.graph.vertices, pl.graph.edge_list())
    )
    assert census.check_member(mixed, 0, full_oracles=True)["violations"] == []
    monkeypatch.setattr(
        criteria,
        "_route_f",
        lambda pl, field: Verdict(True, "homology", {"field": field_label(field)}),
    )
    violations = census.check_member(mixed, 0, full_oracles=True)["violations"]
    assert [(v["check"], v["details"]["field"]) for v in violations] == [
        ("cm-implies-unmixed", "2"),
        ("cm-implies-unmixed", "Q"),
    ]


def test_unmixed_member_enumerates_its_matchings_once(monkeypatch):
    # route d and the labeling-invariance sweep are the callers of
    # iter_perfect_matchings in pairing; each enumerates once
    calls = []
    iterate = pairing.iter_perfect_matchings

    def counted(g):
        calls.append(sys._getframe(1).f_code.co_name)
        return iterate(g)

    monkeypatch.setattr(pairing, "iter_perfect_matchings", counted)
    outcome = census.check_member(_cm_member(), 0, full_oracles=True)
    assert outcome["violations"] == []
    assert sorted(calls) == ["all_star_labelings", "unique_perfect_matching"]


def test_cm_draw_decides_unmixedness_once(monkeypatch):
    # the generator bounds and the invariants' precondition read the
    # labeling's one verdict and route a's short cycle; route e's empty
    # subset deforms to the graph itself, so its calls are left out
    member = _cm_member()
    checked, route_a = [], []
    brute, route = graphs.is_unmixed_bruteforce, criteria._route_a

    def counted(g):
        caller = sys._getframe(1).f_code.co_name
        if g == member.graph and caller != "_route_e":
            checked.append(caller)
        return brute(g)

    def route_a_counted(pl):
        route_a.append(pl)
        return route(pl)

    monkeypatch.setattr(criteria, "is_unmixed_bruteforce", counted)
    monkeypatch.setattr(invariants, "is_unmixed_bruteforce", counted)
    monkeypatch.setattr(criteria, "_route_a", route_a_counted)
    monkeypatch.setitem(criteria._ROUTE_IMPL, "a", route_a_counted)
    outcome = census.check_member(member, 0, full_oracles=False)
    assert outcome == {
        "summary": {"unmixed": True, "cm": True, "cm_type": 2},
        "violations": [],
    }
    assert checked == ["_crosschecked_unmixed"]
    assert route_a == [member]


def test_rational_homology_disagreement_is_recorded_once(monkeypatch):
    member = _cm_member()
    clean = census.check_member(member, 0, full_oracles=True)
    assert clean["violations"] == []
    route_f = criteria._route_f

    def flipped_over_q(pl, field):
        v = route_f(pl, field)
        return Verdict(not v.value, v.route, v.certificate) if field == "Q" else v

    monkeypatch.setattr(criteria, "_route_f", flipped_over_q)
    outcome = census.check_member(member, 0, full_oracles=True)
    assert [v["check"] for v in outcome["violations"]] == ["cm-route-agreement"]
    assert outcome["summary"] == clean["summary"]
    routes = outcome["violations"][0]["details"]["routes"]
    assert (routes["f"]["value"], routes["fQ"]["value"]) == (True, False)


def _count_graph_work(monkeypatch):
    """Record each call of `graphs.adjacency` and each graph that builds
    its bitset view from its edges."""
    adjacency_calls, adjacency = [], graphs.adjacency

    def counted_adjacency(g):
        adjacency_calls.append(g)
        return adjacency(g)

    monkeypatch.setattr(graphs, "adjacency", counted_adjacency)
    return adjacency_calls, count_builds(monkeypatch, Graph, "_vertex_bits")


def test_a_draw_that_is_not_cm_builds_one_view_and_no_adjacency(monkeypatch):
    # every deformation is handed its view by o_set and route d matches on
    # the masks, so only the drawn graph reads its edges
    adjacency_calls, views_built = _count_graph_work(monkeypatch)
    for mask, unmixed in ((264, True), (9, False)):
        adjacency_calls.clear()
        views_built.clear()
        outcome = census._check_draw((4, 0, mask, False))
        assert outcome == {
            "summary": {"unmixed": unmixed, "cm": False, "cm_type": None},
            "violations": [],
        }
        assert adjacency_calls == []
        assert views_built == [member_from_mask(4, mask).graph]


def test_a_cm_draw_reads_the_adjacency_for_its_degrees(monkeypatch):
    adjacency_calls, _ = _count_graph_work(monkeypatch)
    outcome = census._check_draw((4, 0, 0, False))
    assert outcome["summary"]["cm"] and outcome["violations"] == []
    assert adjacency_calls == [member_from_mask(4, 0).graph]


def _count_calls(monkeypatch, module, name):
    """Record each call of `module.name`, through every `cmgraphs` module
    that binds it."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "cmgraphs" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_a_draw_checks_each_deformation_once(monkeypatch):
    # one classify for the draw, then per pair-index subset one o_set, one
    # classify and one validate_labeling.  On the unmixed draw route e
    # deforms too, up to its first mixed deformation (the second subset)
    classified = _count_calls(monkeypatch, graphs, "classify")
    validated = _count_calls(monkeypatch, pairing, "validate_labeling")
    deformed = _count_calls(monkeypatch, transform, "o_set")
    for mask, unmixed, o_set_calls in ((9, False, 16), (264, True, 18)):
        for calls in (classified, validated, deformed):
            calls.clear()
        outcome = census._check_draw((4, 0, mask, False))
        assert outcome["summary"]["unmixed"] is unmixed
        assert not outcome["summary"]["cm"] and outcome["violations"] == []
        assert len(classified) == 17
        assert len(validated) == 16
        assert len(deformed) == o_set_calls
