import hashlib
import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest

import cmgraphs.cli as cli
import cmgraphs.criteria as criteria
import cmgraphs.graphs as graphs
import cmgraphs.invariants as invariants
import cmgraphs.pairing as pairing
import cmgraphs.transform as transform
from cmgraphs.cli import main
from cmgraphs.graphio import parse_graph
from cmgraphs.verdicts import Verdict
from conftest import ROOT, SCHEMA, count_builds, fixture_path, golden_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def schema():
    return json.loads(read(SCHEMA))


def test_transform_matches_golden_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--set", "2,3", fixture_path("example3_1.graph")
    )
    assert code == 0
    assert out == read(golden_path("example3_1_o23.graph"))


def test_graft_matches_golden_bytes(capsys):
    code, out, _ = run_cli(
        capsys,
        "graft",
        "--h0",
        fixture_path("example5_1.h0.graph"),
        "--block",
        fixture_path("example5_1.b1.graph"),
        "--block",
        fixture_path("example5_1.b2.graph"),
        "--block",
        fixture_path("example5_1.b3.graph"),
    )
    assert code == 0
    assert out == read(golden_path("example5_1_graft.graph"))


def test_emitted_graphs_reparse_to_equal_graphs(capsys, ex31):
    from cmgraphs.pairing import find_star_labeling
    from cmgraphs.transform import o_set

    code, out, _ = run_cli(
        capsys, "transform", "--set", "2,3", fixture_path("example3_1.graph")
    )
    assert code == 0
    assert parse_graph(out).graph == o_set(find_star_labeling(ex31), {2, 3})


def test_classify_output(capsys):
    code, out, _ = run_cli(
        capsys, "classify", fixture_path("example3_1.graph"), "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "vertex_count": 6,
        "height": 3,
        "has_isolated": False,
        "in_class": True,
    }


def test_check_json_validates_against_schema(capsys, schema):
    for name, routes in (
        ("example3_1.graph", "a,c,f"),
        ("c4.graph", "a,b,c,d,e,f"),
        ("no_matching.graph", "a"),
        ("path3.graph", "a"),
        ("pairs_2.graph", "a,d"),
    ):
        code, out, _ = run_cli(
            capsys, "check", fixture_path(name), "--routes", routes, "--json"
        )
        assert code == 0
        document = json.loads(out)
        jsonschema.validate(document, schema)


def test_check_document_contents(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        fixture_path("example3_1.graph"),
        "--routes",
        "a,c,f",
        "--json",
    )
    assert code == 0
    document = json.loads(out)
    assert document["class"]["in_class"] is True
    assert document["unmixed"]["value"] is True
    assert document["cm"]["value"] is True
    assert sorted(document["cm"]["routes"]) == ["a", "c", "f"]
    assert all(
        v["value"] is True for v in document["cm"]["routes"].values()
    )
    assert document["invariants"]["cm_type"] == 3
    assert document["labeling"]["double_star_order"] == [1, 2, 3]
    assert document["input_digest"].startswith("sha256:")
    assert document["bounds"]["value"] is True
    assert document["bounds"]["certificate"]["cm_slack"] == 0


def test_check_mixed_labeled_graph_reports_cm_false(capsys, schema):
    # in class and labelable but mixed: CM must be reported false without
    # running the criteria (they assume unmixedness)
    import os
    import tempfile

    text = "pairs 2\nedge x1 y2\nedge x1 x2\n"
    with tempfile.NamedTemporaryFile(
        "w", suffix=".graph", delete=False
    ) as fh:
        fh.write(text)
        path = fh.name
    try:
        code, out, _ = run_cli(capsys, "check", path, "--json")
        assert code == 0
        document = json.loads(out)
        jsonschema.validate(document, schema)
        assert document["unmixed"]["value"] is False
        assert document["cm"]["value"] is False
        assert document["cm"]["applicable"] is False
        assert document["invariants"] is None
    finally:
        os.unlink(path)


def test_check_fallback_without_matching(capsys, schema):
    code, out, _ = run_cli(
        capsys, "check", fixture_path("no_matching.graph"), "--json"
    )
    assert code == 0
    document = json.loads(out)
    jsonschema.validate(document, schema)
    assert document["labeling"]["hall_set"] == ["d", "e"]
    assert document["unmixed"]["value"] is False
    assert document["cm"] is None
    assert document["warnings"]


def test_exit_codes(capsys, tmp_path):
    assert run_cli(capsys, "check", "does_not_exist.graph")[0] == 1
    assert run_cli(capsys, "census", "--n", "5")[0] == 2
    assert run_cli(capsys, "census", "--n", "2", "--mode", "sample")[0] == 1
    assert run_cli(capsys, "invariants", fixture_path("c4.graph"))[0] == 1
    bad = tmp_path / "bad.graph"
    bad.write_text("frobnicate\n")
    assert run_cli(capsys, "check", str(bad))[0] == 1
    assert run_cli(capsys, "check", fixture_path("c4.graph"), "--routes", "z")[0] == 1


def test_usage_and_argument_errors_exit_one(capsys):
    # argparse would exit 2, the capacity code; usage errors are input errors
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "check")[0] == 1
    code, _, err = run_cli(capsys, "census", "--n", "x")
    assert code == 1 and "invalid int value" in err
    for routes in ("", ","):
        code, out, err = run_cli(
            capsys, "check", fixture_path("example3_1.graph"), "--routes", routes
        )
        assert (code, out) == (1, "") and "no routes selected" in err
    for argv in (
        ("--n", "2", "--mode", "sample", "--seed", "1", "--count", "0"),
        ("--n", "2", "--mode", "sample", "--seed", "1", "--count", "-3"),
        ("--n", "0"),
    ):
        code, out, err = run_cli(capsys, "census", *argv)
        assert (code, out) == (1, "") and "must be positive" in err
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0


def test_unrecognized_arguments_after_a_subcommand_exit_one(capsys):
    # the subcommand's parser reads its arguments and hands what it does
    # not know to the top-level parser, which names itself in the error
    c4 = fixture_path("c4.graph")
    for argv, left in (
        (("check", c4, "--bogus"), "--bogus"),
        (("classify", c4, "--json", "extra", "-x"), "extra -x"),
        (("census", "--n", "1", "--", "x"), "-- x"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: cmgraphs: unrecognized arguments: {left}\n"


def test_main_reuses_one_parser(capsys):
    assert cli.build_parser() is cli.build_parser()
    calls = (
        ("classify", fixture_path("example3_1.graph"), "--json"),
        ("census", "--n", "x"),
        ("check", fixture_path("c4.graph")),
    )
    first = [run_cli(capsys, *argv) for argv in calls]
    second = [run_cli(capsys, *argv) for argv in calls]
    assert first == second
    assert [code for code, _, _ in first] == [0, 1, 0]
    assert "invalid int value" in first[1][2]


def star_file(tmp_path, leaves):
    path = tmp_path / "star.graph"
    path.write_text("".join(f"edge c l{i:04d}\n" for i in range(leaves)))
    return path


def test_classify_on_a_large_star_exits_zero(capsys, tmp_path):
    # K_{1,1100}: deeper than the interpreter's default recursion limit
    code, out, err = run_cli(capsys, "classify", str(star_file(tmp_path, 1100)))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "vertex_count: 1101",
        "height: 1",
        "has_isolated: False",
        "in_class: False",
    ]


def test_classify_json_on_twelve_hundred_pairs_exits_zero(capsys, tmp_path):
    path = tmp_path / "pairs1200.graph"
    path.write_text("pairs 1200\n")
    code, out, err = run_cli(capsys, "classify", str(path), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "vertex_count": 2400,
        "height": 1200,
        "has_isolated": False,
        "in_class": True,
    }


def test_a_pairs_count_far_over_the_cap_exits_two_at_once(capsys, tmp_path):
    path = tmp_path / "huge.graph"
    path.write_text(f"pairs {10**12}\n")
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "check", str(path), "--json")
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert err.startswith("inconclusive: line 1: pairs is capped at ")


def test_a_repeated_route_runs_once_and_prints_the_same_bytes(capsys, monkeypatch):
    # results are keyed by route, so repeating a letter changes nothing
    # in the document; it must not rerun the route either
    calls = []

    def counted(route, real):
        def wrapper(*args):
            calls.append(route)
            return real(*args)

        return wrapper

    monkeypatch.setattr(criteria, "reisner_cm", counted("f", criteria.reisner_cm))
    for route, impl in list(criteria._ROUTE_IMPL.items()):
        monkeypatch.setitem(criteria._ROUTE_IMPL, route, counted(route, impl))
    path = fixture_path("example3_1.graph")
    forms = (("f,f,f", "f"), ("a,d,a,a,d", "a,d"), ("fedcbaabcdef", "a,b,c,d,e,f"))
    for repeated, single in forms:
        printed = []
        for routes in (repeated, single):
            calls.clear()
            code, out, err = run_cli(
                capsys, "check", "--json", "--routes", routes, path
            )
            assert (code, err) == (0, "")
            assert sorted(calls) == sorted(set(single.split(",")))
            printed.append(out)
        assert printed[0] == printed[1]


def test_check_searches_short_cycles_once_per_labeling(capsys, monkeypatch):
    # route a, the generator bounds and the invariants' precondition all
    # read the labeling's one r = 2 search
    searched = []
    real = pairing.find_cycle

    def counted(pl, max_r=None):
        searched.append((id(pl), max_r))
        return real(pl, max_r)

    monkeypatch.setattr(pairing, "find_cycle", counted)
    for name, cm in (("example3_1.graph", True), ("c4.graph", False)):
        searched.clear()
        code, out, _ = run_cli(capsys, "check", fixture_path(name), "--json")
        document = json.loads(out)
        assert code == 0 and document["cm"]["value"] is cm
        assert (document["invariants"] is not None) is cm
        assert len(searched) == 1 and searched[0][1] == 2


def _recording(calls, fn):
    def recorded(first, *rest):
        calls.append(first)
        return fn(first, *rest)

    return recorded


def test_check_decides_unmixedness_once_per_labeling(capsys, monkeypatch):
    # the generator bounds and the invariants' precondition read the
    # labeling's one cross-checked verdict and route a's short cycle
    path = fixture_path("example3_1.graph")
    scans, checked, route_a = [], [], []
    brute = _recording(checked, graphs.is_unmixed_bruteforce)
    for module in (cli, criteria):
        monkeypatch.setattr(module, "is_unmixed_bruteforce", brute)
    scan = _recording(scans, criteria._structural_scan)
    monkeypatch.setattr(criteria, "_structural_scan", scan)
    route = _recording(route_a, criteria._route_a)
    monkeypatch.setattr(criteria, "_route_a", route)
    monkeypatch.setitem(criteria._ROUTE_IMPL, "a", route)
    code, out, _ = run_cli(capsys, "check", path, "--routes", "a", "--json")
    document = json.loads(out)
    assert code == 0 and document["cm"]["value"] is True
    assert document["invariants"] is not None
    graph = parse_graph(read(path)).graph
    assert len(scans) == 1 and len(route_a) == 1
    # the input graph once; `level` reads the socle degrees, so the
    # restricted deformation is not checked
    assert [g == graph for g in checked] == [True]


def test_check_builds_relations_once_per_labeling(capsys, monkeypatch, tmp_path):
    # an upward labeling is its own upward relabeling; only a changed
    # order builds a copy, whose upward check reads its neighbour masks,
    # so the copy builds no relations
    downward = tmp_path / "downward.graph"
    downward.write_text("pairs 3\nedge x3 y2\nedge x3 y1\nedge x2 y1\n")
    built = count_builds(monkeypatch, pairing.PairedLabeling, "relations")
    for path, order, builds in (
        (fixture_path("example3_1.graph"), [1, 2, 3], 1),
        (str(downward), [3, 2, 1], 1),
    ):
        built.clear()
        code, out, _ = run_cli(capsys, "check", path, "--json")
        document = json.loads(out)
        assert code == 0 and document["labeling"]["double_star_order"] == order
        assert len(built) == len(set(built)) == builds


def test_unmixedness_disagreement_exits_three(capsys, monkeypatch):
    scan = criteria._structural_scan

    def flipped(pl):
        v = scan(pl)
        return Verdict(not v.value, v.route, v.certificate)

    monkeypatch.setattr(criteria, "_structural_scan", flipped)
    for command in ("check", "invariants"):
        code, out, err = run_cli(capsys, command, fixture_path("example3_1.graph"))
        assert (code, out) == (3, "")
        headline, dump = err.split("\n", 1)
        assert headline == (
            "internal disagreement: structural and brute-force unmixedness "
            "disagree"
        )
        dump = json.loads(dump)
        assert dump["structural"]["value"] is False
        assert dump["bruteforce"]["value"] is True


def test_superscript_digits_are_input_errors(capsys, tmp_path):
    # str.isdigit admits superscripts that int() rejects
    pairs = tmp_path / "pairs.graph"
    pairs.write_text("pairs \u00b2\n", encoding="utf-8")
    base = tmp_path / "h0.graph"
    base.write_text("vertex \u00b2\n", encoding="utf-8")
    block = fixture_path("example5_1.b1.graph")
    for argv, message in (
        (("classify", str(pairs)), "line 1: pairs takes one positive integer"),
        (("check", str(pairs)), "line 1: pairs takes one positive integer"),
        (
            ("graft", "--h0", str(base), "--block", block),
            "base graph vertices must be numbered 1..p, got '\u00b2'",
        ),
    ):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_inconclusive_only_routes_exit_two(capsys, tmp_path, schema):
    # 5 bare pairs: 32 facets exceed the shelling cap, so a shelling-only
    # check is honestly inconclusive
    path = tmp_path / "pairs5.graph"
    path.write_text("pairs 5\n")
    code, out, _ = run_cli(capsys, "check", str(path), "--routes", "c", "--json")
    assert code == 2
    document = json.loads(out)
    jsonschema.validate(document, schema)
    assert document["cm"]["value"] is None
    assert document["cm"]["routes"]["c"]["value"] is None
    assert document["warnings"]


def test_homology_past_the_face_cap_exits_two(capsys, tmp_path):
    # the 22-pair upward chain has 23 facets of 22 vertices each; the face
    # cap stops route f long before one facet's 2^22 faces are listed
    path = tmp_path / "chain22.graph"
    path.write_text(
        "pairs 22\n"
        + "".join(
            f"edge x{i} y{j}\n" for i in range(1, 23) for j in range(i + 1, 23)
        )
    )
    code, out, _ = run_cli(capsys, "check", str(path), "--routes", "f", "--json")
    assert code == 2
    route = json.loads(out)["cm"]["routes"]["f"]
    assert route["value"] is None
    assert route["certificate"]["inconclusive"] == (
        "face count exceeds the homology bound 4096"
    )


def test_route_disagreement_exits_three(capsys, monkeypatch):
    # fault injection: force one route to lie and require the dump path
    monkeypatch.setitem(
        criteria._ROUTE_IMPL,
        "d",
        lambda pl: Verdict(False, "unique-matching", None),
    )
    code, _, err = run_cli(
        capsys, "check", fixture_path("example3_1.graph"), "--routes", "a,d"
    )
    assert code == 3
    assert "disagree" in err


def test_rejected_shelling_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(criteria, "check_shelling", lambda c, order: False)
    code, _, err = run_cli(
        capsys, "check", fixture_path("example3_1.graph"), "--routes", "c"
    )
    assert code == 3
    assert "disagree" in err and '"order": [' in err


def test_rejected_upward_order_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(pairing, "satisfies_double_star", lambda pl: False)
    code, _, err = run_cli(capsys, "check", fixture_path("example3_1.graph"))
    assert code == 3
    assert "disagree" in err and '"order": [' in err and '"pairs": [' in err


def test_rejected_cycle_witness_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(pairing, "cycle_witness_holds", lambda pl, w: False)
    code, _, err = run_cli(capsys, "check", fixture_path("c4.graph"))
    assert code == 3
    assert "disagree" in err and '"cycle": [' in err and '"graph": [' in err


def test_rejected_discovered_labeling_exits_three(capsys, monkeypatch, tmp_path):
    # no declared pairs, so the labeling comes from discovery
    path = tmp_path / "undeclared.graph"
    path.write_text("edge a b\nedge c d\nedge a c\n")
    monkeypatch.setattr(pairing, "validate_labeling", lambda pl: ["rejected"])
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 3
    assert "disagree" in err and '"problems": [' in err and '"pairs": [' in err


def test_rejected_graft_labeling_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(transform, "validate_labeling", lambda pl: ["rejected"])
    code, _, err = run_cli(
        capsys,
        "graft",
        "--h0",
        fixture_path("example5_1.h0.graph"),
        *(
            arg
            for i in (1, 2, 3)
            for arg in ("--block", fixture_path(f"example5_1.b{i}.graph"))
        ),
    )
    assert code == 3
    assert "disagree" in err and '"problems": [' in err and '"pairs": [' in err


def test_missing_perfect_matching_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(pairing, "walk_perfect_matchings", lambda masks: iter(()))
    code, _, err = run_cli(
        capsys, "check", fixture_path("example3_1.graph"), "--routes", "d"
    )
    assert code == 3
    assert "disagree" in err and '"pairs": [' in err


@pytest.mark.parametrize("name", ["c4.graph", "example3_1.graph", "census"])
def test_check_output_is_the_same_under_python_O(name):
    # certificate checks must be real checks, not asserts that -O strips
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    if name == "census":
        argv = ["-m", "cmgraphs", "census", "--n", "2"]
    else:
        argv = ["-m", "cmgraphs", "check", fixture_path(name),
                "--routes", "a,b,c,d,e,f", "--field", "Q", "--json"]

    def run(*flags):
        done = subprocess.run(
            [sys.executable, *flags, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if name != "census":
            return done.returncode, done.stdout
        report = json.loads(done.stdout)
        del report["runtime_ms"]  # wall clock
        return done.returncode, report

    plain = run()
    assert plain[0] == 0 and plain[1]
    assert run("-O") == plain


def _check_under_memory_limit(tmp_path, text, megabytes, *args):
    """`check` with `args` on a file holding `text`, in a child process
    whose address space is limited, the limit set in the child only,
    between fork and exec."""
    resource = pytest.importorskip("resource")
    limit = megabytes * 2**20
    path = tmp_path / "input.graph"
    path.write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "cmgraphs", "check", str(path), "--json", *args],
        env=env, capture_output=True, timeout=60, preexec_fn=limit_memory,
    )


def test_a_reader_that_closes_early_ends_with_exit_one(tmp_path):
    # `check --json pairs16.graph | head -c 10`: the 788 KB document fills
    # the pipe, the reader goes after ten bytes, and the write that fails
    # ends in one error line, with no dump and nothing raised at exit
    path = tmp_path / "pairs16.graph"
    path.write_text("pairs 16\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "cmgraphs", "check", "--json", str(path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.read(10) == b'{\n  "versi'
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert err == "error: standard output closed early\n"


def test_check_of_pairs_18_fits_in_160_mb(tmp_path):
    # the 2**18 cover sizes are popcounts of masks, and no set is named:
    # naming them ends in MemoryError under this limit
    done = _check_under_memory_limit(tmp_path, "pairs 18\n", 160)
    assert done.returncode == 0, done.stderr.decode()[-500:]
    assert len(done.stdout) == 3_148_183


def test_route_b_on_pairs_14_fits_in_120_mb(tmp_path):
    # the ridge table holds one facet index per facet and vertex, 14 * 2**14
    # of them, and needs about 60 MB of address space in all; a table of
    # facet-index masks, each up to 2**14 bits wide, needs over 200 MB
    done = _check_under_memory_limit(tmp_path, "pairs 14\n", 120, "--routes", "b")
    assert done.returncode == 0, done.stderr.decode()[-500:]
    assert len(done.stdout) == 203_483
    document = json.loads(done.stdout)
    assert document["cm"]["primary"] == "strongly-connected"
    assert document["cm"]["value"] is True


def test_inputs_with_more_covers_than_the_cap_end_with_exit_zero(tmp_path):
    # the 10-byte `pairs 1200` (2**1200 minimal covers) and the 40-pair
    # whiskered path with its pairs line (267,914,296) are unmixed and
    # counted by size; a list of their cover sizes would not fit, so the
    # certificate is the count
    whiskered = "pairs 40\n" + "".join(f"edge x{i} x{i + 1}\n" for i in range(1, 40))
    for text, size, count in (
        ("pairs 1200", 1200, 2**1200),
        (whiskered, 40, 267_914_296),
    ):
        assert count > graphs.INDEPENDENT_SET_CAP
        done = _check_under_memory_limit(tmp_path, text, 1024)
        assert done.returncode == 0, done.stderr.decode()[-500:]
        unmixed = json.loads(done.stdout)["unmixed"]
        assert unmixed["value"] is True and "cover_sizes" not in unmixed["certificate"]
        assert unmixed["certificate"]["cover_size_counts"] == [[size, count]]


def _listed_and_counted(monkeypatch):
    """The vertex tuples of the graphs whose maximal independent sets are
    listed (`_bron_kerbosch`), and the graphs whose sets are counted by
    size."""
    listed, list_sets = [], graphs._bron_kerbosch

    def listing(g):
        listed.append(g.vertices)
        return list_sets(g)

    monkeypatch.setattr(graphs, "_bron_kerbosch", listing)
    return listed, count_builds(monkeypatch, graphs.Graph, "_set_size_counts")


def test_check_counts_the_input_graph_once(capsys, monkeypatch, tmp_path):
    # above the threshold brute force counts the input's sets by size and
    # never lists them; the invariants list the restricted deformation's
    # (n vertices).  At the threshold the input is listed once, as before
    for n, listings_of_input, counts in ((6, 0, 1), (5, 1, 0)):
        assert (2 * n > graphs.SIZE_COUNT_ABOVE) == bool(counts)
        path = tmp_path / f"whiskered{n}.graph"
        path.write_text(
            f"pairs {n}\n" + "".join(f"edge x{i} x{i + 1}\n" for i in range(1, n))
        )
        listed, counted = _listed_and_counted(monkeypatch)
        code, out, _ = run_cli(capsys, "check", str(path), "--json")
        document = json.loads(out)
        assert code == 0 and document["cm"]["value"] is True
        assert document["invariants"] is not None
        assert [len(v) for v in listed] == [2 * n] * listings_of_input + [n]
        assert [len(g.vertices) for g in counted] == [2 * n] * counts


def test_check_of_a_bare_matching_names_no_cover_of_its_input(
    capsys, monkeypatch, tmp_path
):
    # above the threshold the 11-pair matching's 2**11 covers are counted
    # by size, once, and none is listed or named; at the threshold its
    # 2**5 sets are listed once and none is named, as before
    for n, listings, counts in ((11, 0, 1), (5, 1, 0)):
        path = tmp_path / f"pairs{n}.graph"
        path.write_text(f"pairs {n}\n")
        listed, counted = _listed_and_counted(monkeypatch)
        named = count_builds(monkeypatch, graphs.Graph, "_minimal_vertex_covers")
        code, out, _ = run_cli(capsys, "check", str(path), "--json", "--routes", "a")
        document = json.loads(out)
        assert code == 0 and document["unmixed"]["value"] is True
        assert document["unmixed"]["certificate"]["cover_sizes"] == [n] * 2**n
        assert [len(v) for v in listed if len(v) == 2 * n] == [2 * n] * listings
        assert [len(g.vertices) for g in counted] == [2 * n] * counts
        assert not [g for g in named if len(g.vertices) == 2 * n]


def test_routes_b_and_c_name_no_set_of_their_input(capsys, monkeypatch, tmp_path):
    # the complex is the input's set masks: route b spells facets off it
    # for its chain, and route c reads the facet count off the masks
    # before it gives up above the cap, so the input graph names no set
    path = tmp_path / "pairs12.graph"
    path.write_text("pairs 12\n")
    named = count_builds(monkeypatch, graphs.Graph, "_maximal_independent_sets")
    code, out, _ = run_cli(capsys, "check", str(path), "--json", "--routes", "b,c")
    routes = json.loads(out)["cm"]["routes"]
    assert code == 0 and routes["b"]["value"] is True
    assert routes["c"]["certificate"] == {
        "inconclusive": "4096 facets exceed the shelling search bound 20"
    }
    assert [g for g in named if len(g.vertices) == 24] == []


def test_check_lists_a_mixed_input_above_the_threshold_and_never_counts_it(
    capsys, monkeypatch, tmp_path
):
    # the structural scan finds the labeling mixed, so its graph's sets
    # are listed before brute force runs, which then reads them and counts
    # nothing; brute force alone on the same graph counts, then lists, and
    # gives the same certificate
    text = "pairs 6\nedge x1 y2\nedge x2 x3\n"
    path = tmp_path / "mixed6.graph"
    path.write_text(text)
    listed, counted = _listed_and_counted(monkeypatch)
    code, out, _ = run_cli(capsys, "check", str(path), "--json", "--routes", "a")
    document = json.loads(out)
    assert code == 0 and document["unmixed"]["value"] is False
    assert [len(v) for v in listed if len(v) == 12] == [12]
    assert [g for g in counted if len(g.vertices) == 12] == []
    alone = parse_graph(text).graph
    brute = graphs.is_unmixed_bruteforce(alone)
    assert "_set_size_counts" in vars(alone) and "_independent_masks" in vars(alone)
    assert brute.value is False
    assert brute.certificate.items() <= document["unmixed"]["certificate"].items()


def test_invariants_type_mismatch_exits_three(capsys, monkeypatch):
    covers = graphs.minimal_vertex_covers
    monkeypatch.setattr(
        invariants, "minimal_vertex_covers", lambda g: covers(g)[1:]
    )
    code, _, err = run_cli(
        capsys, "invariants", fixture_path("example3_1.graph")
    )
    assert code == 3
    assert "disagree" in err and '"generators": 3' in err


def test_invariants_gorenstein_mismatch_exits_three(
    capsys, monkeypatch, tmp_path
):
    # a doubled enumeration gives a bare matching type two
    path = tmp_path / "pairs.graph"
    path.write_text("pairs 2\n")
    for name in ("maximal_independent_sets", "minimal_vertex_covers"):
        real = getattr(graphs, name)
        monkeypatch.setattr(invariants, name, lambda g, real=real: real(g) * 2)
    code, _, err = run_cli(capsys, "invariants", str(path))
    assert code == 3
    assert "disagree" in err and '"cm_type": 2' in err
    assert '"extra_edges": []' in err


def test_invariants_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", fixture_path("example3_1.graph")
    )
    assert code == 0
    report = json.loads(out)
    assert report["cm_type"] == 3 and report["level"] is True

    code, out, _ = run_cli(
        capsys, "invariants", fixture_path("example3_1.graph"), "--list-socle"
    )
    assert code == 0
    assert out == "x1\nx2\nx3\n"


def test_complex_subcommand(capsys):
    code, out, _ = run_cli(capsys, "complex", fixture_path("example3_1.graph"))
    assert code == 0
    assert out == "x1 x2 x3\nx2 x3 y1\nx3 y1 y2\ny1 y2 y3\n"


def test_census_subcommand_with_csv(capsys, tmp_path):
    csv_path = tmp_path / "hist.csv"
    code, out, _ = run_cli(
        capsys, "census", "--n", "2", "--csv", str(csv_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["population"] == 8
    assert payload["violations"] == []
    assert "runtime_ms" in payload
    assert csv_path.read_text() == "type,count\n1,1\n2,3\n"


def test_census_csv_to_an_unwritable_path_exits_one_before_the_run(
    capsys, monkeypatch, tmp_path
):
    def run(*args, **kwargs):
        raise AssertionError("the census ran")

    monkeypatch.setattr(cli, "cross_validate", run)
    path = tmp_path / "no_such_dir" / "hist.csv"
    code, out, err = run_cli(capsys, "census", "--n", "1", "--csv", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {path}")


def test_a_failed_census_leaves_an_existing_csv_as_it_was(capsys, tmp_path):
    # and leaves no file where there was none
    path, new = tmp_path / "hist.csv", tmp_path / "new.csv"
    path.write_bytes(b"type,count\n1,1\n")
    for argv, code in (
        (("--n", "5"), 2),
        (("--n", "2", "--mode", "sample"), 1),
    ):
        for csv in (path, new):
            got, out, _ = run_cli(capsys, "census", *argv, "--csv", str(csv))
            assert (got, out) == (code, "")
        assert path.read_bytes() == b"type,count\n1,1\n"
        assert not new.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_csv_write_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "census", "--n", "1", "--csv", "/dev/full")
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write /dev/full: ")


def test_a_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "latin1.graph"
    bad.write_bytes("pairs 2\nedge x1 y2 # caf\u00e9\n".encode("latin-1"))
    good = fixture_path("example5_1.b1.graph")
    for argv in (
        ("classify", str(bad)),
        ("check", str(bad), "--json"),
        ("transform", str(bad)),
        ("invariants", str(bad)),
        ("complex", str(bad)),
        ("graft", "--h0", str(bad), "--block", good),
        ("graft", "--h0", fixture_path("example5_1.h0.graph"), "--block", str(bad)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec")


def test_input_digest_is_the_sha256_of_the_file_bytes(capsys, tmp_path):
    path = tmp_path / "crlf.graph"
    data = "pairs 2\r\nedge x1 y2 # \u00e9\r\n".encode("utf-8")
    path.write_bytes(data)
    code, out, _ = run_cli(capsys, "check", str(path), "--json")
    assert code == 0
    digest = json.loads(out)["input_digest"]
    assert digest == "sha256:" + hashlib.sha256(data).hexdigest()


def test_field_is_q_or_a_prime_below_two_to_the_31(capsys):
    path = fixture_path("c4.graph")
    code, out, _ = run_cli(capsys, "check", path, "--routes", "f",
                           "--field", "2147483647", "--json")
    assert code == 0 and json.loads(out)["cm"]["value"] is False
    for field in ("2147483659", "4", "-7"):
        code, out, err = run_cli(capsys, "check", path, "--field", field)
        assert (code, out) == (1, "")
        assert f"prime below 2^31, got {field}" in err


def test_transform_rejects_bad_set(capsys):
    code, _, err = run_cli(
        capsys, "transform", "--set", "2,zz", fixture_path("example3_1.graph")
    )
    assert code == 1 and "bad --set" in err
    code, _, err = run_cli(
        capsys, "transform", "--set", "9", fixture_path("example3_1.graph")
    )
    assert code == 1


def test_declared_labeling_errors_name_the_validator(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("pairs 2\nedge y1 y2\n")
    for command in ("check", "invariants", "transform"):
        code, _, err = run_cli(capsys, command, str(path))
        assert code == 1
        assert err == (
            "error: invalid labeling: X is not a vertex cover; "
            "Y is not independent\n"
        )


def test_stray_exception_exits_three(capsys, monkeypatch):
    def overflow(g):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "classify", overflow)
    path = fixture_path("example3_1.graph")
    code, out, err = run_cli(capsys, "check", path)
    assert (code, out) == (3, "")
    head, dump = err.split("\n", 1)
    assert head == (
        "internal error: RecursionError: maximum recursion depth exceeded"
    )
    assert json.loads(dump) == {"argv": ["check", path]}
