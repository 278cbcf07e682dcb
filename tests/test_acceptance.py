"""Acceptance suite: one test per release criterion, each printing a
single PASS line (run with `pytest tests/test_acceptance.py -v -s`).

The censuses are shared module-scoped fixtures so their runtimes can be
asserted once and reused by the criteria that inspect their violations.
"""

import time

import pytest

from cmgraphs.census import cross_validate, enumerate_class
from cmgraphs.cli import main
from cmgraphs.complexes import complementary_complex, reisner_cm
from cmgraphs.criteria import (
    _structural_scan,
    degree_one_exists,
    minimal_prime_shape,
)
from cmgraphs.graphs import add_edges, is_unmixed_bruteforce, pairs_graph
from cmgraphs.invariants import invariant_report
from cmgraphs.pairing import find_cycle, make_labeling
from cmgraphs.transform import restricted_o_full
from conftest import fixture_path, golden_path, std_pairs
from oracles import brute_maximal_independents, brute_minimal_covers


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def ok(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS: {message}")


@pytest.fixture(scope="module")
def census_small():
    started = time.monotonic()
    reports = {n: cross_validate(n) for n in (2, 3)}
    return reports, time.monotonic() - started


@pytest.fixture(scope="module")
def census_sampled():
    started = time.monotonic()
    report = cross_validate(4, mode="sample", seed=42, count=10000)
    return report, time.monotonic() - started


def test_criterion_1_deformed_figure_reproduction(capsys):
    started = time.monotonic()
    code = main(
        ["transform", "--set", "2,3", fixture_path("example3_1.graph")]
    )
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0
    assert out == read(golden_path("example3_1_o23.graph"))
    assert elapsed < 1.0
    with capsys.disabled():
        ok(1, f"transform --set 2,3 matches the golden file ({elapsed:.3f}s)")


def test_criterion_2_graft_figure_reproduction(capsys):
    started = time.monotonic()
    code = main(
        [
            "graft",
            "--h0",
            fixture_path("example5_1.h0.graph"),
            "--block",
            fixture_path("example5_1.b1.graph"),
            "--block",
            fixture_path("example5_1.b2.graph"),
            "--block",
            fixture_path("example5_1.b3.graph"),
        ]
    )
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0
    assert out == read(golden_path("example5_1_graft.graph"))
    assert elapsed < 1.0
    with capsys.disabled():
        ok(2, f"three-block graft matches the golden file ({elapsed:.3f}s)")


def test_criterion_3_equivalence_suite(census_small, census_sampled):
    reports, small_elapsed = census_small
    assert reports[2].violations == []
    assert reports[3].violations == []
    assert reports[2].population == 8
    assert reports[3].population == 512
    assert small_elapsed < 120.0

    sampled, sampled_elapsed = census_sampled
    assert sampled.violations == []
    assert sampled.population == 10000
    assert sampled_elapsed < 600.0
    ok(
        3,
        "exhaustive censuses n=2,3 and the seeded n=4 sample report zero "
        f"violations across the CM routes ({small_elapsed:.1f}s + "
        f"{sampled_elapsed:.1f}s)",
    )


def test_criterion_4_unmixedness_equivalence(census_small, census_sampled):
    reports, _ = census_small
    sampled, _ = census_sampled
    for report in (reports[2], reports[3], sampled):
        assert not [
            v for v in report.violations if v["check"] == "unmixedness-equivalence"
        ]
    # direct spot re-verification on the full n<=3 populations
    for n in (1, 2, 3):
        for pl in enumerate_class(n):
            assert (
                _structural_scan(pl).value
                == is_unmixed_bruteforce(pl.graph).value
            )
    ok(
        4,
        "structural unmixedness matches brute force on all of n<=3 and the "
        "n=4 sample",
    )


def test_criterion_5_structural_corollaries(census_small):
    reports, _ = census_small
    for report in reports.values():
        for name in ("degree-one", "cover-shape", "generator-bound"):
            assert not [v for v in report.violations if v["check"] == name]
    checked = 0
    for n in (1, 2, 3):
        for pl in enumerate_class(n):
            if not is_unmixed_bruteforce(pl.graph).value:
                continue
            edge_count = len(pl.graph.edges)
            assert edge_count <= n * n
            if find_cycle(pl, max_r=2) is None:  # Cohen-Macaulay
                checked += 1
                assert degree_one_exists(pl).value is True
                assert minimal_prime_shape(pl).value is True
                assert edge_count <= n * (n + 1) // 2
    assert checked == 1 + 4 + 41
    ok(
        5,
        f"degree-one vertex, one-per-pair covers and edge bounds hold on all "
        f"{checked} Cohen-Macaulay graphs with n<=3",
    )


def test_criterion_6_invariant_formulas(ex31_pl):
    # the expected values are confirmed by the definitional subset oracle
    # on the restricted deformation before being asserted
    restricted = restricted_o_full(ex31_pl)
    oracle_type = len(
        brute_minimal_covers(restricted.vertices, restricted.edge_list())
    )
    oracle_socle = [
        tuple(sorted(s))
        for s in brute_maximal_independents(
            restricted.vertices, restricted.edge_list()
        )
    ]
    assert oracle_type == 3
    ex31_report = invariant_report(ex31_pl)
    assert ex31_report.cm_type == oracle_type
    assert list(ex31_report.socle_monomials) == oracle_socle == [
        ("x1",),
        ("x2",),
        ("x3",),
    ]

    for n in range(1, 7):
        pl = make_labeling(pairs_graph(n), std_pairs(n))
        report = invariant_report(pl)
        assert report.cm_type == 1
        assert report.gorenstein is True

    assert ex31_report.level is True
    level_false = make_labeling(
        add_edges(pairs_graph(3), [("x1", "y3"), ("x2", "y3")]), std_pairs(3)
    )
    restricted = restricted_o_full(level_false)
    sizes = sorted(
        len(c)
        for c in brute_minimal_covers(restricted.vertices, restricted.edge_list())
    )
    assert sizes == [1, 2]
    assert invariant_report(level_false).level is False
    ok(
        6,
        "type/socle/level/Gorenstein formulas agree with the subset oracle "
        "on every pinned fixture",
    )


def test_criterion_7_oracle_concordance(c4, census_small):
    reports, _ = census_small
    for report in reports.values():
        assert not [
            v
            for v in report.violations
            if v["check"] in ("cm-route-agreement", "cm-implies-unmixed")
        ]
    checked = 0
    for n in (1, 2, 3):
        for pl in enumerate_class(n):
            if not is_unmixed_bruteforce(pl.graph).value:
                continue
            checked += 1
            combinatorial = find_cycle(pl, max_r=2) is None
            complex_ = complementary_complex(pl.graph)
            assert reisner_cm(complex_, 2).value == combinatorial
            assert reisner_cm(complex_, "Q").value == combinatorial

    rejection = reisner_cm(complementary_complex(c4), 2)
    assert rejection.value is False
    profile = rejection.certificate["profile"]
    assert profile["face"] == [] and profile["reduced_betti"][1] == 1
    ok(
        7,
        f"homology oracle agrees with the cycle criterion over F2 and Q on "
        f"all {checked} unmixed graphs with n<=3; the 4-cycle is rejected "
        "with the disconnectedness certificate",
    )


def test_criterion_8_property_based_coverage(census_small, census_sampled):
    # the source material carries no benchmark tables or large-scale
    # numbers: acceptance is the equivalence/oracle suites above plus the
    # two figure reproductions, which cover every quantitative claim made
    reports, _ = census_small
    sampled, _ = census_sampled
    total = sum(r.population for r in reports.values()) + sampled.population
    assert total == 8 + 512 + 10000
    ok(
        8,
        f"coverage is property-based: {total} class members cross-validated "
        "plus two byte-exact figure reproductions",
    )
