import json
import os
import subprocess
import sys

import jsonschema
import pytest

import cmgraphs.criteria as criteria
import cmgraphs.graphs as graphs
import cmgraphs.invariants as invariants
import cmgraphs.pairing as pairing
from cmgraphs.cli import main
from cmgraphs.graphio import parse_graph
from cmgraphs.verdicts import Verdict
from conftest import ROOT, SCHEMA, fixture_path, golden_path


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


@pytest.mark.parametrize("name", ["c4.graph", "example3_1.graph"])
def test_check_output_is_the_same_under_python_O(name):
    # certificate checks must be real checks, not asserts that -O strips
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    argv = ["-m", "cmgraphs", "check", fixture_path(name),
            "--routes", "a,b,c,d,e,f", "--field", "Q", "--json"]

    def run(*flags):
        done = subprocess.run(
            [sys.executable, *flags, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    plain = run()
    assert plain[0] == 0 and plain[1]
    assert run("-O") == plain


def test_check_enumerates_the_input_graph_once(capsys, monkeypatch, tmp_path):
    n = 6
    path = tmp_path / "whiskered.graph"
    path.write_text(
        f"pairs {n}\n" + "".join(f"edge x{i} x{i + 1}\n" for i in range(1, n))
    )
    runs = []
    enumerate_ = graphs._bron_kerbosch

    def counted(g):
        runs.append(g.vertices)
        return enumerate_(g)

    monkeypatch.setattr(graphs, "_bron_kerbosch", counted)
    code, out, _ = run_cli(capsys, "check", str(path), "--json")
    document = json.loads(out)
    assert code == 0 and document["cm"]["value"] is True
    assert document["invariants"] is not None
    inputs = [v for v in runs if len(v) == 2 * n]
    assert len(inputs) == 1
    # the invariants add one enumeration of the restricted deformation
    assert len(runs) == 2


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


def test_transform_rejects_bad_set(capsys):
    code, _, err = run_cli(
        capsys, "transform", "--set", "2,zz", fixture_path("example3_1.graph")
    )
    assert code == 1 and "bad --set" in err
    code, _, err = run_cli(
        capsys, "transform", "--set", "9", fixture_path("example3_1.graph")
    )
    assert code == 1
