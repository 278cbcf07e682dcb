"""End-to-end and per-layer benchmark for the cmgraphs command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record

Run from the repository root.  Each run is one process and one closed-loop
client: it imports the package from `src/`, writes the seeded inputs of
the workload to a scratch directory in the checkout, and calls
`cmgraphs.cli.main` in-process on each input in turn, capturing stdout.
It repeats whole passes over the inputs until `--seconds` have elapsed
and checks every output as it arrives (see checks.py).  Every reported
time is scaled to reference speed (see REFERENCE_S).

With `--trace 0` the last stdout line is the result with the end-to-end
metrics; with `--trace 1` the run spends half its time untraced and half
with every layer wrapped (see spans.py), and reports the per-layer
metrics of one traced pass.  The line before the result names the seed
and the digest of the inputs.  `--out FILE` also appends both to FILE as
one JSON line, for compare.py.  `--record` stores the digests of the
default seed's outputs in expected.json.
"""

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
EXPECTED = HERE / "expected.json"
LAYERS = HERE / "layers.json"

SETUP_REPEATS = 9

# Every time the benchmark reports is scaled to a machine on which
# `reference_task` takes REFERENCE_S.  The machine the benchmark was
# written on drifts in speed by a third from one minute to the next; the
# reference task, interleaved with the calls, drifts with it.
REFERENCE_S = 0.0015
REFERENCE_NAMES = tuple(f"v{i}" for i in range(40))


def layer_metric_names() -> list[str]:
    rows = json.loads(LAYERS.read_text(encoding="utf-8"))["rows"]
    return [name for row in rows for name in row["metrics"]]


def fresh_import():
    """Import the package from scratch and return `cmgraphs.cli.main`."""
    for name in [m for m in sys.modules if m == "cmgraphs" or m.startswith("cmgraphs.")]:
        del sys.modules[name]
    cli = importlib.import_module("cmgraphs.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cmgraphs was imported from {cli.__file__}, not {SRC}")
    return cli.main


def setup(workload: str, seed: int, workdir: Path):
    """Import plus input generation: the `main` to call and one argv per
    input, with graph files written under `workdir`."""
    main = fresh_import()
    items = inputs.WORKLOADS[workload](seed, FIXTURES)
    argvs = []
    for item in items:
        if item.text is None:
            argvs.append(list(item.argv))
            continue
        path = workdir / f"{item.name}.graph"
        path.write_text(item.text, encoding="utf-8")
        argvs.append(["check", str(path), *item.argv])
    return main, items, argvs


def call(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed item, not a failed run
            print(f"{type(exc).__name__}: {exc}", file=sys.__stderr__)
            code = -1
    return code, out.getvalue()


def reference_task() -> float:
    """Seconds one fixed pure-Python job takes: set algebra, hashing and
    sorting, the operations the package spends its time on."""
    start = time.perf_counter()
    acc, seen = frozenset(), {}
    for i in range(300):
        k, j = i * 7 % 40, i % 40
        block = frozenset(REFERENCE_NAMES[k:k + 6])
        acc = (acc | block) - frozenset(REFERENCE_NAMES[j:j + 3])
        seen[block] = sorted(acc)
    return time.perf_counter() - start


@dataclass
class Pass:
    """The measured seconds of each call in one pass over the inputs, and
    the factor that scales them to reference speed."""

    latencies: list[float]
    scale: float

    @property
    def wall(self) -> float:
        return sum(self.latencies) * self.scale


def expected_digests(workload: str, seed: int, items) -> list:
    """Recorded digest per item, None where it does not apply to this
    seed, and "" where it applies but was never recorded."""
    recorded = {}
    if EXPECTED.exists():
        data = json.loads(EXPECTED.read_text(encoding="utf-8"))
        recorded = data.get(workload, {})
    return [
        recorded.get(item.name, "") if (not item.seeded or seed == inputs.DEFAULT_SEED) else None
        for item in items
    ]


class Checker:
    """Checks each output as it arrives and keeps one reason per failed
    call.  The first output of an item gets the full check; repeats must
    reproduce it exactly.  Only digests are kept, so memory stays flat
    however many passes run."""

    def __init__(self, items, expected):
        self.items, self.expected = items, expected
        self.first: dict[int, tuple[int, str | None]] = {}
        self.failures: list[str] = []
        self.calls = 0

    def observe(self, k: int, code: int, stdout: str) -> None:
        self.calls += 1
        item = self.items[k]
        if k not in self.first:
            if self.expected[k] == "":
                reason = "no digest recorded for this item"
            else:
                reason = checks.check_output(item, code, stdout, self.expected[k])
            digest = checks.stdout_digest(item, stdout) if reason is None else None
            self.first[k] = (code, digest)
        elif self.first[k][1] is None:
            reason = "failed on its first call"
        elif (code, checks.stdout_digest(item, stdout)) != self.first[k]:
            reason = "output differs from the first call"
        else:
            reason = None
        if reason is not None:
            self.failures.append(f"{item.name}: {reason}")


def run_passes(main, argvs, seconds: float, checker: Checker) -> list[Pass]:
    """Whole passes over the inputs until `seconds` have elapsed (at least
    one).  The reference task runs before every call; its median time in
    a pass gives that pass's scale."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        latencies, refs = [], []
        for k, argv in enumerate(argvs):
            refs.append(reference_task())
            start = time.perf_counter()
            code, stdout = call(main, argv)
            latencies.append(time.perf_counter() - start)
            checker.observe(k, code, stdout)
        passes.append(Pass(latencies, REFERENCE_S / statistics.median(refs)))
        if time.perf_counter() >= deadline:
            return passes


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_setup(workload: str, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times; the median set-up time at reference
    speed, and the last set-up's `main`, items and argvs."""
    times = []
    for _ in range(SETUP_REPEATS):
        refs = [reference_task() for _ in range(3)]
        start = time.perf_counter()
        main, items, argvs = setup(workload, seed, workdir)
        elapsed = time.perf_counter() - start
        refs += [reference_task() for _ in range(3)]
        times.append(elapsed * REFERENCE_S / statistics.median(refs))
    return statistics.median(times), main, items, argvs


def measure(workload: str, seed: int, seconds: float, traced: bool, workdir: Path):
    setup_s, main, items, argvs = timed_setup(workload, seed, workdir)
    draws = sum(i.draws for i in items)
    checker = Checker(items, expected_digests(workload, seed, items))
    failures = checker.failures
    if not traced:
        passes = run_passes(main, argvs, seconds, checker)
        calls = checker.calls
        wall = statistics.median(p.wall for p in passes)
        latencies = [t * p.scale for p in passes for t in p.latencies]
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall, "s"),
            "items_per_s": metric(draws / wall, "1/s"),
            "latency_p50_ms": metric(1000 * percentile(latencies, 50), "ms"),
            "latency_p90_ms": metric(1000 * percentile(latencies, 90), "ms"),
            "ok_ratio": metric((calls - len(failures)) / calls, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
    else:
        passes = run_passes(main, argvs, seconds / 2, checker)
        tracer = spans.Tracer()
        tracer.install()
        try:
            main = sys.modules["cmgraphs.cli"].main
            failures += [f"not traced: {b}" for b in tracer.unwrapped_bindings()]
            deadline = time.perf_counter() + seconds / 2
            traced_passes, layer_values = [], []
            while not traced_passes or time.perf_counter() < deadline:
                tracer.reset()
                traced_passes += run_passes(main, argvs, 0, checker)
                layer_values.append(
                    spans.layer_values(tracer, draws, traced_passes[-1].scale)
                )
        finally:
            tracer.uninstall()
        calls = checker.calls
        values = dict(layer_values[0])
        for name, value in values.items():
            if name.endswith(".self_s"):
                values[name] = statistics.fmean(v.get(name, 0.0) for v in layer_values)
            elif any(v.get(name) != value for v in layer_values):
                failures.append(f"{name} differs between traced passes")
        values["trace.overhead_ratio"] = statistics.median(
            p.wall for p in traced_passes
        ) / statistics.median(p.wall for p in passes)
        metrics = {
            name: metric(values.get(name, 0), spans.unit_of(name))
            for name in layer_metric_names()
        }
    result = {
        "correct": not failures,
        "attempted": calls,
        "failed": len(failures),
        "metrics": metrics,
    }
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "inputs_digest": inputs.inputs_digest(items),
        "items_per_pass": len(items),
        "calls": calls,
        "passes": len(passes),
        "reference_ms": 1000 * REFERENCE_S / statistics.median(p.scale for p in passes),
        "failures": failures[:10],
    }
    return meta, result


def record(workload: str, workdir: Path) -> None:
    """Store the digest of every output of one default-seed pass, after
    every other check on it has passed."""
    main, items, argvs = setup(workload, inputs.DEFAULT_SEED, workdir)
    digests = {}
    for item, argv in zip(items, argvs):
        code, stdout = call(main, argv)
        reason = checks.check_output(item, code, stdout, None)
        if reason is not None:
            raise SystemExit(f"{item.name}: {reason}")
        digests[item.name] = checks.stdout_digest(item, stdout)
    data = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    data[workload] = digests
    EXPECTED.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests for {workload}", file=sys.stderr)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the result to this JSON-lines file")
    parser.add_argument("--record", action="store_true", help="record default-seed digests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cmgraphs").is_dir() or not FIXTURES.is_dir():
        print(f"no cmgraphs sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.record:
            record(args.workload, workdir)
            return 0
        meta, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in meta["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**meta, "result": result}) + "\n")
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
