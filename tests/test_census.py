import multiprocessing
import os
import pickle
import random
import sys
from collections import Counter

import pytest

import cmgraphs.census as census
import cmgraphs.criteria as criteria
import cmgraphs.graphs as graphs
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
from cmgraphs.graphs import ClassMembership, Graph, add_edges, classify, remove_edges
from cmgraphs.pairing import PairedLabeling, mask_check, validate_labeling
from cmgraphs.transform import index_subsets, o_set
from cmgraphs.verdicts import Verdict, indented_json
from conftest import count_builds, std_pairs
from oracles import (
    brute_height,
    brute_is_unmixed,
    find_cycle_def,
    is_independent_def,
    o_set_def,
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


def test_a_valid_deformed_labeling_proves_membership():
    # X is then a cover of size n and the matching has n edges, so the
    # height is n: the census sweep gives a deformation whose masks pass
    # the draw's check the draw's membership instead of searching.  Each
    # deformation is also taken without its first edge, and with a y-y
    # edge, so that some labelings fail validation.  Every draw of n <= 3
    # is taken, and a seeded sample at n = 4 and 5; every graph is freshly
    # built, so `classify` runs its own independence search
    rng = random.Random(28)
    draws = [(n, mask) for n in (1, 2, 3) for mask in range(1 << len(optional_edges(n)))]
    draws += [(4, rng.getrandbits(len(optional_edges(4)))) for _ in range(200)]
    draws += [(5, rng.getrandbits(len(optional_edges(5)))) for _ in range(6)]
    passed, failed = Counter(), Counter()
    for n, mask in draws:
        pl = member_from_mask(n, mask)
        check = mask_check(pl)
        for t in index_subsets(n):
            d = pl.with_graph(o_set(pl, t))
            g = d.graph
            variants = [d, d.with_graph(remove_edges(g, g.edge_list()[:1]))]
            if n > 1:
                variants.append(d.with_graph(add_edges(g, [("y1", "y2")])))
            for v in variants:
                problems = validate_labeling(v)
                assert check(v.graph.neighbours) == problems
                if problems:
                    failed[n] += 1
                    continue
                membership = classify(v.graph)
                assert membership == ClassMembership(2 * n, n, False, True)
                passed[n] += 1
    # every deformation passes, and some of the edited ones do too
    assert sum(passed[n] for n in (1, 2, 3)) > 1 * 2 + 8 * 4 + 512 * 8
    assert sum(failed[n] for n in (1, 2, 3)) > 4000
    assert passed[4] > 6000 and failed[4] > 3000
    assert passed[5] > 300 and failed[5] > 150


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

    # the census imports multiprocessing only where a pool opens
    monkeypatch.setattr(multiprocessing, "Pool", RefusingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
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


def test_a_sampled_census_is_capped_at_the_deformation_subset_cap(monkeypatch, capsys):
    # each draw sweeps all 2^n pair-index subsets, so sample mode stops
    # above criteria.DEFORMATION_SUBSET_CAP pairs before it draws; the
    # class stream runs no sweep and has no such cap
    cap = criteria.DEFORMATION_SUBSET_CAP
    assert cap == 12
    drawn = []
    monkeypatch.setattr(census, "_masks", lambda *args: drawn.append(args) or [])
    with pytest.raises(CapacityError, match="capped at 12 pairs"):
        cross_validate(cap + 1, mode="sample", seed=1, count=1)
    argv = ["census", "--n", "13", "--mode", "sample", "--seed", "1", "--count", "1"]
    assert main(argv) == 2
    assert "capped at 12 pairs" in capsys.readouterr().err
    assert drawn == []
    monkeypatch.undo()

    # X covers every candidate edge, so each draw is in class
    _stub_check_member(monkeypatch)
    assert cross_validate(cap, mode="sample", seed=1, count=3).population == 3
    assert len(list(enumerate_class(cap + 1, mode="sample", seed=1, count=2))) == 2


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


def _named_member(n, mask):
    """The member of `mask` built from its named edges."""
    opts = optional_edges(n)
    extra = [opts[b] for b in range(len(opts)) if mask >> b & 1]
    return Graph.build(edges=std_pairs(n) + extra)


def test_a_member_built_from_its_mask_is_the_member_of_its_edges():
    # every mask with n <= 3 and seeded masks with n = 4 and n = 11; at
    # n = 11 the sorted names put x10 and x11 before x2
    rng = random.Random(20091)
    draws = [(n, mask) for n in (1, 2, 3) for mask in range(1 << len(optional_edges(n)))]
    for n in (4, 11):
        draws += [(n, rng.getrandbits(len(optional_edges(n)))) for _ in range(60)]
    assert member_from_mask(11, 0).graph.vertices[:4] == ("x1", "x10", "x11", "x2")
    for n, mask in draws:
        pl = member_from_mask(n, mask)
        g, named = pl.graph, _named_member(n, mask)
        assert pl.pairs == tuple(std_pairs(n))
        assert g.neighbours == named.neighbours and g.vertices == named.vertices
        assert "edges" not in vars(g)  # named only when read
        assert g.edges == named.edges
        assert g == named and hash(g) == hash(named)
        restored = pickle.loads(pickle.dumps(g))
        assert restored == named and pickle.dumps(restored) == pickle.dumps(named)


def test_mask_bits_above_the_candidates_are_ignored():
    rng = random.Random(4368)
    for n in (1, 2, 4):
        width = len(optional_edges(n))
        for _ in range(20):
            mask = rng.getrandbits(width) if width else 0
            high = member_from_mask(n, mask | rng.getrandbits(40) << width)
            member = member_from_mask(n, mask)
            assert high == member


def test_draws_of_one_pair_count_share_the_bare_members_records():
    # every draw has the bare matching's names and pairs, so its graph's
    # position map and its labeling's bits are the bare member's, equal
    # to the records a fresh labeling of the same graph builds
    rng = random.Random(4369)
    for n in (1, 2, 3, 4, 11):
        width = len(optional_edges(n))
        bare = member_from_mask(n, 0)
        for _ in range(20):
            pl = member_from_mask(n, rng.getrandbits(width) if width else 0)
            g = pl.graph
            fresh = PairedLabeling(Graph(g.vertices, g.neighbours), pl.pairs)
            assert pl.bits == fresh.bits
            assert dict(g.position) == dict(fresh.graph.position)
            assert pl.bits is bare.bits and g.position is bare.graph.position
            restored = pickle.loads(pickle.dumps(pl))
            assert restored == pl and "bits" not in vars(restored)


def test_census_with_every_graph_counted_matches_the_listing(monkeypatch):
    # no census member has more than `SIZE_COUNT_ABOVE` vertices, so at the
    # real threshold brute force reads each draw's listed sets; at 0 it
    # counts them by size, and the structural scan is cross-checked
    # against the count, on the unmixed draws and on route e's
    # deformations.  A draw the scan finds mixed is listed, not counted,
    # so the n=4 sample runs to its first unmixed draw, index 137
    runs = ((3, {}), (4, {"mode": "sample", "seed": 27, "count": 140}))
    listed = [cross_validate(n, **kwargs).canonical_dict() for n, kwargs in runs]
    monkeypatch.setattr(graphs, "SIZE_COUNT_ABOVE", 0)
    counted = count_builds(monkeypatch, Graph, "_set_size_counts")
    for (n, kwargs), expected in zip(runs, listed):
        report = cross_validate(n, **kwargs)
        assert report.violations == []
        assert indented_json(report.canonical_dict()) == indented_json(expected)
    assert {len(g.vertices) for g in counted} == {6, 8}


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
    # with full oracles too: the labeling-invariance sweep compares types
    # only when the draw has one, so the draw's own record stands
    from cmgraphs.errors import RouteDisagreementError

    member = _cm_member()

    def rejecting(pl):
        raise RouteDisagreementError("patched", dump=pl.dump(patched=True))

    monkeypatch.setattr(census, "invariant_report", rejecting)
    for outcome in (
        census.check_member(member, 0, full_oracles=False),
        census._check_draw((2, 0, 0b100, True)),
    ):
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
    # route d walks the labeling's X-Y masks (xy_matchings) and the
    # labeling-invariance sweep names the graph's matchings through
    # iter_perfect_matchings; each enters the one walker once
    calls = []
    walk = graphs.walk_perfect_matchings

    def counted(neighbours):
        calls.append(sys._getframe(1).f_code.co_name)
        return walk(neighbours)

    named, iterate = [], pairing.iter_perfect_matchings

    def counted_named(g):
        named.append(sys._getframe(1).f_code.co_name)
        return iterate(g)

    monkeypatch.setattr(pairing, "walk_perfect_matchings", counted)
    monkeypatch.setattr(graphs, "walk_perfect_matchings", counted)
    monkeypatch.setattr(pairing, "iter_perfect_matchings", counted_named)
    outcome = census.check_member(_cm_member(), 0, full_oracles=True)
    assert outcome["violations"] == []
    assert named == ["all_star_labelings"]
    assert sorted(calls) == ["iter_perfect_matchings", "xy_matchings"]


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
    monkeypatch.setattr(criteria, "_route_a", route_a_counted)
    monkeypatch.setitem(criteria._ROUTE_IMPL, "a", route_a_counted)
    outcome = census.check_member(member, 0, full_oracles=False)
    assert outcome == {
        "summary": {"unmixed": True, "cm": True, "cm_type": 2},
        "violations": [],
    }
    assert checked == ["_crosschecked_unmixed"]
    assert route_a == [member]


def test_an_unmixed_draw_names_no_set_of_its_member():
    # the complex routes read the member's set masks and the cover-shape
    # check tests them pair by pair; outside the full-oracle sweep only
    # a mixed graph (a mixed deformation in route e) names its sets
    rng = random.Random(29)
    unmixed = 0
    for index in range(600):
        member = member_from_mask(4, rng.randrange(1 << len(optional_edges(4))))
        outcome = census.check_member(member, index, full_oracles=False)
        if outcome["summary"]["unmixed"]:
            unmixed += 1
            assert "_maximal_independent_sets" not in vars(member.graph)
    assert unmixed >= 2


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
    """Record each call of `graphs.adjacency` and each graph that names
    its edges."""
    adjacency_calls, adjacency = [], graphs.adjacency

    def counted_adjacency(g):
        adjacency_calls.append(g)
        return adjacency(g)

    monkeypatch.setattr(graphs, "adjacency", counted_adjacency)
    return adjacency_calls, count_builds(monkeypatch, Graph, "edges")


def test_a_draw_that_is_not_cm_builds_no_view_and_no_adjacency(monkeypatch):
    # the drawn graph is built from masks by member_from_mask, each
    # deformation by transform.rewire, and every check reads the masks, so
    # no graph names its edges
    adjacency_calls, edges_named = _count_graph_work(monkeypatch)
    for mask, unmixed in ((264, True), (9, False)):
        adjacency_calls.clear()
        edges_named.clear()
        outcome = census._check_draw((4, 0, mask, False))
        assert outcome == {
            "summary": {"unmixed": unmixed, "cm": False, "cm_type": None},
            "violations": [],
        }
        assert adjacency_calls == []
        assert edges_named == []


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


def _count_mask_checks(monkeypatch, n):
    """Record each call of the check every draw of `n` pairs shares, the
    bare member's `check`: the draw's validation first, then the sweep's
    checks of its deformations."""
    bare, _ = census._bare_member(n)
    calls, check = [], bare.check

    def counted(neighbours):
        calls.append(neighbours)
        return check(neighbours)

    monkeypatch.setitem(vars(bare), "check", counted)
    return calls


def _builds(monkeypatch):
    """Record each deformation the census sweep builds: the calls of
    `transform.rewire` made by `transform.deformations`."""
    built, rewire = [], transform.rewire

    def counted(pl, g, pairs):
        deformed = rewire(pl, g, pairs)
        if sys._getframe(1).f_code.co_name == "deformations":
            built.append(deformed)
        return deformed

    monkeypatch.setattr(transform, "rewire", counted)
    return built


def test_a_draw_checks_each_deformation_once(monkeypatch):
    # one classify and one full validate_labeling for the draw, then one
    # classify per pair-index subset, and one build and one check of the
    # masks per distinct deformation other than the drawn graph.  The
    # validation and the sweep read one check, the bare member's, and a
    # draw builds none.  Draws 9
    # and 264 link one and two of their four pairs, draw 312 all four.  On
    # the unmixed draw route e deforms too, up to its first mixed
    # deformation (the second subset).  Masks that pass prove membership,
    # so each built graph holds the draw's, and the draw's classify is the
    # one independence search
    classified = _count_calls(monkeypatch, graphs, "classify")
    validated = _count_calls(monkeypatch, pairing, "validate_labeling")
    deformed = _count_calls(monkeypatch, transform, "o_set")
    searched = _count_calls(monkeypatch, graphs, "_independence_number")
    made = _count_calls(monkeypatch, pairing, "mask_check")
    checked = _count_mask_checks(monkeypatch, 4)
    built = _builds(monkeypatch)
    for mask, unmixed, linked, o_set_calls in (
        (9, False, 1, 0),
        (264, True, 2, 2),
        (312, False, 4, 0),
    ):
        for calls in (classified, validated, deformed, searched, made, checked, built):
            calls.clear()
        pl = member_from_mask(4, mask)
        distinct = {o_set_def(pl, t) for t in index_subsets(4)}
        assert len(distinct) == 2**linked
        outcome = census._check_draw((4, 0, mask, False))
        assert outcome["summary"]["unmixed"] is unmixed
        assert not outcome["summary"]["cm"] and outcome["violations"] == []
        assert len(classified) == 17
        assert len(searched) == 1
        assert len(validated) == 1
        assert set(built) == distinct - {pl.graph}
        assert len(built) == len(distinct) - 1
        assert checked == [pl.graph.neighbours] + [g.neighbours for g in built]
        assert made == []
        assert len(deformed) == o_set_calls
        [drawn] = classified[0]
        assert drawn == pl.graph and classify(drawn).in_class
        assert all(vars(g)["_membership"] is vars(drawn)["_membership"] for g in built)


def test_a_deformation_that_breaks_the_labeling_is_recorded(monkeypatch):
    # a y-y edge leaves the deformation in class with height n but makes
    # Y dependent, so only the check of that deformation's masks sees it.
    # Draw 76 links pairs 2 and 3 but not pair 1, so the subsets (1, 2)
    # and (1, 3) reuse the graphs of (2,) and (3,) and are not checked
    # again; the edge is added where the sweep builds the graph of (2, 3)
    draw = member_from_mask(3, 76)
    assert [i for i in (1, 2, 3) if draw.relations.links[i]] == [2, 3]
    target, rewire = o_set(draw, (2, 3)), transform.rewire
    made = []

    def breaking(pl, g, pairs):
        deformed = rewire(pl, g, pairs)
        if sys._getframe(1).f_code.co_name == "deformations":
            if deformed == target:
                deformed = add_edges(deformed, [("y1", "y2")])
            made.append(deformed)
        return deformed

    monkeypatch.setattr(transform, "rewire", breaking)
    broken = add_edges(target, [("y1", "y2")])
    assert classify(broken).in_class and classify(broken).height == 3
    checked = _count_mask_checks(monkeypatch, 3)
    outcome = census._check_draw((3, 5, 76, False))
    assert outcome["summary"]["cm"]
    assert [(v["index"], v["check"], v["details"]) for v in outcome["violations"]] == [
        (5, "transform-preserves-class", {"subset": [2, 3]})
    ]
    # the draw's validation, then the three built deformations
    assert checked[0] == draw.graph.neighbours and len(checked) == 4
    assert checked[-1] == broken.neighbours
    # the broken graph failed its check, so it was given no membership
    # and never classified; the two built before it passed and hold one
    assert made[-1] == broken and "_membership" not in vars(made[-1])
    assert all("_membership" in vars(g) for g in made[:-1]) and len(made) == 3


def test_each_labeling_of_a_draw_builds_its_relations_once(monkeypatch):
    # the upward relabeling of an upward labeling is the labeling itself,
    # and the labeling-invariance sweep skips the drawn labeling
    built = count_builds(monkeypatch, pairing.PairedLabeling, "relations")
    for draw, builds in (
        ((4, 0, 0, False), 1),
        ((3, 0, 0, True), 8),
        ((2, 0, 0b100, True), 4),
    ):
        built.clear()
        outcome = census._check_draw(draw)
        assert outcome["summary"]["cm"] and outcome["violations"] == []
        assert len(built) == len(set(built)) == builds
    # the 8 labelings of the bare 3-pair matching, the drawn one included
    graph = member_from_mask(3, 0).graph
    assert len(set(pairing.all_star_labelings(graph))) == 8


def test_the_labeling_sweep_reads_each_labelings_one_verdict(monkeypatch):
    # check_member calls no structural scan of its own: each labeling's
    # scan is the one its unmixedness verdict makes, plus the upward scan
    callers = []
    scan = criteria._structural_scan

    def counted(pl):
        callers.append(sys._getframe(1).f_code.co_name)
        return scan(pl)

    monkeypatch.setattr(criteria, "_structural_scan", counted)
    monkeypatch.setattr(census, "_structural_scan", counted, raising=False)
    outcome = census._check_draw((3, 0, 0, True))
    assert outcome["summary"]["cm"] and outcome["violations"] == []
    assert "check_member" not in callers
    assert sorted(callers) == ["_crosschecked_unmixed"] * 8 + [
        "cm_structural_doublestar"
    ]


def test_a_scan_fault_on_another_labeling_is_recorded_for_the_draw(monkeypatch):
    # the fault escapes the sweep as a disagreement of the other
    # labeling's verdict, which the draw records
    drawn = member_from_mask(3, 0)
    scan = criteria._structural_scan

    def flipped(pl):
        v = scan(pl)
        return v if pl == drawn else Verdict(not v.value, v.route, v.certificate)

    monkeypatch.setattr(criteria, "_structural_scan", flipped)
    monkeypatch.setattr(census, "_structural_scan", flipped, raising=False)
    outcome = census._check_draw((3, 7, 0, True))
    assert outcome["summary"] == _EMPTY_SUMMARY
    [violation] = outcome["violations"]
    assert (violation["index"], violation["check"]) == (7, "internal-disagreement")
    assert violation["pairs"] == [list(p) for p in drawn.pairs]
    assert violation["details"]["structural"]["value"] is False
