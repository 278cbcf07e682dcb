"""The benchmark's tracer wraps functions by name; every name it lists
must still exist in the package, or a traced benchmark run crashes."""

import contextlib
import importlib
import io
import json
import os
import runpy
from pathlib import Path

import pytest

from conftest import FIXTURES, PERFBENCH, perfbench_module

SPANS = os.path.join(PERFBENCH, "spans.py")
LAYERS = os.path.join(PERFBENCH, "layers.json")

with open(LAYERS, encoding="utf-8") as _fh:
    WORKLOADS = sorted({row["workload"] for row in json.load(_fh)["rows"]})


def test_every_traced_name_exists():
    # run_path compiles the source in memory: nothing is written under
    # perfbench/
    traced = runpy.run_path(SPANS)["TRACED"]
    assert "invariants" in traced
    for module, names in traced.items():
        mod = importlib.import_module(f"cmgraphs.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_every_layer_metric_of_a_function_names_a_traced_span():
    # a `<module>.<function>.<stat>` metric reads the span the tracer
    # records for that function; a metric whose function left `TRACED`
    # would read zero
    spans = runpy.run_path(SPANS)
    traced = {
        spans["span_name"](module, name)
        for module, names in spans["TRACED"].items()
        for name in names
    }
    with open(LAYERS, encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    metrics = [metric for row in rows for metric in row["metrics"]]
    stats = [metric for metric in metrics if metric.count(".") == 2]
    assert stats
    missing = [m for m in stats if m.rsplit(".", 1)[0] not in traced]
    assert missing == []


def test_the_traced_oracle_counts_the_faces_it_checks():
    # the tracer counts route f's faces where `reisner_cm` lists them, in
    # `all_faces`; an oracle that listed its faces another way would leave
    # `complexes.reisner_cm.faces` at zero
    import cmgraphs.cli  # noqa: F401  (imports every traced module)
    import cmgraphs.complexes as complexes
    from cmgraphs.graphs import pairs_graph

    tracer = runpy.run_path(SPANS)["Tracer"]()
    c = complexes.complementary_complex(pairs_graph(3))
    tracer.install()
    try:
        verdict = complexes.reisner_cm(c, 2)
    finally:
        tracer.uninstall()
    assert verdict.value is True
    assert verdict.certificate["faces_checked"] == 27
    assert tracer.counters["complexes.reisner_cm.faces"] == 27


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_metric_fires_on_one_pass_of_its_workload(
    workload, tmp_path, monkeypatch
):
    # the check `perfbench/selftest.py` makes on a traced benchmark run,
    # on one seed-1 pass: a refactor that moves work out of a traced
    # function, or stops calling it, leaves its metric at zero
    import cmgraphs.cli as cli  # imports every traced module

    perfbench_module("checks", monkeypatch)
    inputs = perfbench_module("inputs", monkeypatch)
    spans = perfbench_module("spans", monkeypatch)
    items = inputs.WORKLOADS[workload](inputs.DEFAULT_SEED, Path(FIXTURES))
    argvs = []
    for item in items:
        if item.text is None:
            argvs.append(list(item.argv))
            continue
        path = tmp_path / f"{item.name}.graph"
        path.write_text(item.text, encoding="utf-8")
        argvs.append(["check", str(path), *item.argv])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        codes = []
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                codes.append(cli.main(argv))
    finally:
        tracer.uninstall()
    assert set(codes) <= {0, 1, 2}
    values = spans.layer_values(tracer, sum(i.draws for i in items), 1.0)
    with open(LAYERS, encoding="utf-8") as fh:
        rows = [r for r in json.load(fh)["rows"] if r["workload"] == workload]
    metrics = [m for row in rows for m in row["metrics"] if not m.startswith("trace.")]
    assert metrics
    assert values.get("criteria.route_inconclusive", 0) == 0
    silent = [
        m for m in metrics if m != "criteria.route_inconclusive" and not values.get(m)
    ]
    assert silent == []
