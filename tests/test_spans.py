"""The benchmark's tracer wraps functions by name; every name it lists
must still exist in the package, or a traced benchmark run crashes."""

import importlib
import os
import runpy

from conftest import ROOT

SPANS = os.path.join(ROOT, "perfbench", "spans.py")


def test_every_traced_name_exists():
    # run_path compiles the source in memory: nothing is written under
    # perfbench/
    traced = runpy.run_path(SPANS)["TRACED"]
    assert "invariants" in traced
    for module, names in traced.items():
        mod = importlib.import_module(f"cmgraphs.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
