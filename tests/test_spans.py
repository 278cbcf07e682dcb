"""The benchmark's tracer wraps functions by name; every name it lists
must still exist in the package, or a traced benchmark run crashes."""

import importlib
import json
import os
import runpy

from conftest import ROOT

SPANS = os.path.join(ROOT, "perfbench", "spans.py")
LAYERS = os.path.join(ROOT, "perfbench", "layers.json")


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
