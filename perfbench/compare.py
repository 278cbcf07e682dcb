"""Compare benchmark result sets against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl            # spread of one set
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

Each file holds the JSON lines `run.py --out` appends; only untraced runs
count.  For one set, each workload and end-to-end metric gets its median,
quartiles and spread (the distance between the quartiles as a share of
the median), marked `steady` when the spread is under a third of the
metric's bound.  For two sets, each pair of workload and metric gets one
row and one verdict:

    better      NEW wins at least 9 of 10 runs paired with BASE (by seed,
                else by order) and the medians differ by more than BASE's
                spread
    unresolved  either spread is wider than the bound, unless every NEW
                run beats every BASE run
    worse       NEW's median is worse than BASE's by more than the bound
    same        otherwise

The exit code is 1 when any row is worse.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """workload -> metric -> [(seed, value)] over untraced runs."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, m in record["result"]["metrics"].items():
                runs[record["workload"]][name].append((record["seed"], m["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def beats(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def verdict(base, new, spec) -> str:
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    base_values = [v for _, v in base]
    new_values = [v for _, v in new]
    base_med, new_med = statistics.median(base_values), statistics.median(new_values)
    by_seed = dict(base)
    if all(seed in by_seed for seed, _ in new):
        pairs = [(v, by_seed[seed]) for seed, v in new]
    else:
        pairs = list(zip(new_values, base_values))
    wins = sum(beats(n, b, lower) for n, b in pairs)
    gap = abs(new_med - base_med) / base_med
    if pairs and wins >= 0.9 * len(pairs) and beats(new_med, base_med, lower) and gap > spread(base_values):
        return "better"
    dominates = all(beats(n, b, lower) for n in new_values for b in base_values)
    if max(spread(base_values), spread(new_values)) > bound and not dominates:
        return "unresolved"
    worse_by = (new_med - base_med) / base_med * (1 if lower else -1)
    return "worse" if worse_by > bound else "same"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    sets = [load(path) for path in argv]
    worse = False
    if len(sets) == 1:
        print(f"{'workload':16} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    else:
        print(f"{'workload':16} {'metric':16} {'base':>12} {'new':>12} {'change':>8} {'bound':>6} verdict")
    for workload in sorted(sets[0]):
        for spec in specs:
            name = spec["name"]
            base = sets[0][workload].get(name)
            if not base:
                continue
            if len(sets) == 1:
                values = [v for _, v in base]
                q1, median, q3 = quartiles(values)
                s = spread(values)
                mark = "steady" if s < spec["bound"] / 3 else "wide"
                print(f"{workload:16} {name:16} {median:12.6g} {q1:12.6g} {q3:12.6g} {s:8.2%} {spec['bound']:6.0%} {mark} (n={len(values)})")
                continue
            new = sets[1].get(workload, {}).get(name)
            if not new:
                print(f"{workload:16} {name:16} missing from the new set")
                continue
            base_med = statistics.median(v for _, v in base)
            new_med = statistics.median(v for _, v in new)
            v = verdict(base, new, spec)
            worse |= v == "worse"
            change = (new_med - base_med) / base_med
            print(f"{workload:16} {name:16} {base_med:12.6g} {new_med:12.6g} {change:8.2%} {spec['bound']:6.0%} {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
