import pytest

from cmgraphs.census import (
    CensusReport,
    cross_validate,
    enumerate_class,
    member_from_mask,
    optional_edges,
)
from cmgraphs.errors import CapacityError, CmGraphsError
from cmgraphs.graphs import classify
from cmgraphs.pairing import validate_labeling
from oracles import brute_height, brute_is_unmixed, is_independent_def


def test_optional_edges_exclude_independent_side():
    for n in (1, 2, 3, 4):
        opts = optional_edges(n)
        assert len(opts) == 3 * n * (n - 1) // 2
        assert all(not (a[0] == "y" and b[0] == "y") for a, b in opts)
        assert opts == sorted(opts)


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


def test_member_from_mask_is_deterministic():
    a = member_from_mask(3, 0b101)
    b = member_from_mask(3, 0b101)
    assert a == b


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


def test_structural_disagreement_is_recorded_once(monkeypatch):
    import cmgraphs.census as census
    import cmgraphs.criteria as criteria
    from cmgraphs.verdicts import Verdict

    # the path y2 - x2 - y1 - x1: unmixed and Cohen-Macaulay; its upward
    # relabeling swaps the pairs, so only this labeling's scan is flipped
    member = member_from_mask(2, 0b100)
    assert member.graph.edge_list() == [("x1", "y1"), ("x2", "y1"), ("x2", "y2")]
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
    assert outcome["summary"] == {"unmixed": True, "cm": True, "cm_type": 2}
