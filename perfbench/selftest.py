"""Self-test of the benchmark: seeded inputs, the correctness references,
the layer map, span coverage and the compare verdicts.

    python3 perfbench/selftest.py

Run from the repository root.  It starts six short traced benchmark
runs, one after another, and takes about a minute.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import checks
import compare
import inputs
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_STATS = (
    "calls", "calls_per_item", "sets_out", "facets", "faces", "entries",
    "route_inconclusive", "in_class_ratio", "unmixed_ratio",
)


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(inputs.DEFAULT_SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in inputs.WORKLOADS:
            a = inputs.WORKLOADS[workload](7, FIXTURES)
            b = inputs.WORKLOADS[workload](7, FIXTURES)
            self.assertEqual(a, b)
            self.assertEqual(inputs.inputs_digest(a), inputs.inputs_digest(b))

    def test_other_seed_changes_only_random_members(self):
        for workload in inputs.WORKLOADS:
            a = inputs.WORKLOADS[workload](7, FIXTURES)
            b = inputs.WORKLOADS[workload](8, FIXTURES)
            fixed = lambda items: [i for i in items if not i.seeded]
            seeded = lambda items: [i for i in items if i.seeded]
            self.assertEqual(fixed(a), fixed(b))
            self.assertTrue(seeded(a))
            self.assertNotEqual(seeded(a), seeded(b))


class References(unittest.TestCase):
    def test_whiskered_type_sequence(self):
        got = [checks.whiskered_type(n) for n in range(1, 10)]
        self.assertEqual(got, [1, 2, 2, 3, 4, 5, 7, 9, 12])

    def test_reference_verdicts_on_fixtures(self):
        c4 = (FIXTURES / "c4.graph").read_text(encoding="utf-8")
        ex31 = (FIXTURES / "example3_1.graph").read_text(encoding="utf-8")
        self.assertEqual(checks.reference_verdicts(c4), (True, False))
        self.assertEqual(checks.reference_verdicts(ex31), (True, True))
        self.assertEqual(checks.reference_verdicts("pairs 2\nedge x1 x2\nedge x1 y2\n"), (False, False))


class LayerMap(unittest.TestCase):
    def test_benchmark_json_lists_the_layer_map(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = run.layer_metric_names()
        self.assertEqual([m["name"] for m in bench["per_layer"]], names)
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], spans.unit_of(m["name"]))
        workloads = {w["name"] for w in bench["workloads"]}
        self.assertEqual(workloads, set(inputs.WORKLOADS))


class SpanCoverage(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {w: (traced_run(w), traced_run(w)) for w in inputs.WORKLOADS}

    def test_runs_are_correct(self):
        for workload, pair in self.runs.items():
            for result in pair:
                self.assertTrue(result["correct"], workload)
                self.assertEqual(result["failed"], 0, workload)

    def test_every_metric_fires_on_its_workload(self):
        rows = json.loads(run.LAYERS.read_text(encoding="utf-8"))["rows"]
        for row in rows:
            metrics = self.runs[row["workload"]][0]["metrics"]
            for name in row["metrics"]:
                value = metrics[name]["value"]
                if name == "criteria.route_inconclusive":
                    self.assertEqual(value, 0, "every oracle route must decide")
                else:
                    self.assertGreater(value, 0, f"{name} on {row['workload']}")

    def test_exact_counts_repeat(self):
        for workload, (a, b) in self.runs.items():
            for name, m in a["metrics"].items():
                if name.rsplit(".", 1)[1] in EXACT_STATS:
                    self.assertEqual(m["value"], b["metrics"][name]["value"], f"{workload} {name}")

    def test_known_counts(self):
        census = self.runs["census_sample"][0]["metrics"]
        families = self.runs["check_families"][0]["metrics"]
        self.assertEqual(census["graphs.classify.calls_per_item"]["value"], 17)
        self.assertGreater(families["graphs.maximal_independent_sets.calls_per_item"]["value"], 2)
        self.assertEqual(census["census.in_class_ratio"]["value"], 1)


class CompareVerdicts(unittest.TestCase):
    SPEC = {"better": "lower", "bound": 0.1}

    def verdict(self, base, new):
        return compare.verdict(list(enumerate(base)), list(enumerate(new)), self.SPEC)

    def test_verdicts(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
        self.assertEqual(self.verdict(base, [v * 0.8 for v in base]), "better")
        self.assertEqual(self.verdict(base, [v * 1.2 for v in base]), "worse")
        self.assertEqual(self.verdict(base, [v * 1.05 for v in base]), "same")
        noisy = [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.75, 1.25, 1.0, 1.0]
        self.assertEqual(self.verdict(base, noisy), "unresolved")


if __name__ == "__main__":
    unittest.main()
