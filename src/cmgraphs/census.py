"""Exhaustive and seeded-random cross-validation over the labeled class.

For a pair count n the candidate extra edges (beyond the mandatory
matching) are the cover-side edges x_i x_j and the cross edges x_i y_j,
i != j; edges inside the independent side can never occur.  Every subset
of candidates yields a labeled graph which is kept when it is in class.

Each enumerated graph is pushed through every proven equivalence the
package implements; disagreements are collected as violations carrying a
full reproduction bundle.  Violations are data, not errors: a clean run
returns an empty list.
"""

import itertools
import json
import random
import time
from dataclasses import dataclass

from .criteria import (
    _structural_scan,
    cm_routes,
    cm_structural_doublestar,
    degree_one_exists,
    generator_bounds,
    minimal_prime_shape,
    route_agreement,
)
from .errors import (
    CapacityError,
    CmGraphsError,
    PreconditionError,
    RouteDisagreementError,
)
from .graphs import Graph, classify, is_unmixed_bruteforce
from .invariants import invariant_report
from .pairing import (
    PairedLabeling,
    all_star_labelings,
    find_cycle,
    relabel_for_double_star,
    unique_perfect_matching,
    validate_labeling,
)
from .transform import o_set

EXHAUSTIVE_PAIR_CAP = 4


def optional_edges(n: int) -> list[tuple[str, str]]:
    """Candidate extra edges in a fixed deterministic order."""
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            edges.append((f"x{i}", f"x{j}"))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                edges.append((f"x{i}", f"y{j}"))
    return sorted(edges)


def member_from_mask(n: int, mask: int) -> PairedLabeling:
    opts = optional_edges(n)
    edges = [(f"x{i}", f"y{i}") for i in range(1, n + 1)]
    edges += [opts[b] for b in range(len(opts)) if mask >> b & 1]
    graph = Graph.build(edges=edges)
    pairs = tuple((f"x{i}", f"y{i}") for i in range(1, n + 1))
    return PairedLabeling(graph, pairs)


def _masks(n: int, mode: str, seed, count):
    if mode == "exhaustive":
        if n > EXHAUSTIVE_PAIR_CAP:
            raise CapacityError(
                f"exhaustive enumeration is capped at {EXHAUSTIVE_PAIR_CAP} "
                f"pairs; got {n}"
            )
        return list(range(1 << len(optional_edges(n))))
    if mode == "sample":
        if seed is None:
            raise CmGraphsError("sampled mode requires an explicit seed")
        rng = random.Random(seed)
        bits = len(optional_edges(n))
        return [rng.getrandbits(bits) if bits else 0 for _ in range(count or 10000)]
    raise CmGraphsError(f"unknown census mode {mode!r}")


def enumerate_class(n: int, mode: str = "exhaustive", seed=None, count=None):
    """Stream the labeled in-class graphs for a pair count.

    Exhaustive mode is capped at four pairs; sampled mode draws candidate
    subsets independently with probability one half per edge (with
    replacement) and filters for class membership.
    """
    for mask in _masks(n, mode, seed, count):
        pl = member_from_mask(n, mask)
        if classify(pl.graph).in_class:
            yield pl


@dataclass
class CensusReport:
    n: int
    mode: str
    seed: int | None
    sample_count: int | None
    population: int
    unmixed_count: int
    cm_count: int
    type_histogram: dict[int, int]
    violations: list[dict]
    runtime_ms: int = 0

    def canonical_dict(self) -> dict:
        """Everything except the wall-clock runtime, which is excluded
        from the determinism guarantee."""
        return {
            "version": "census-v1",
            "n": self.n,
            "mode": self.mode,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "population": self.population,
            "unmixed_count": self.unmixed_count,
            "cm_count": self.cm_count,
            "type_histogram": {str(k): v for k, v in sorted(self.type_histogram.items())},
            "violations": self.violations,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), indent=2, sort_keys=False)

    def histogram_csv(self) -> str:
        lines = ["type,count"]
        lines += [f"{k},{v}" for k, v in sorted(self.type_histogram.items())]
        return "\n".join(lines) + "\n"


def _bundle(pl: PairedLabeling, index: int, check: str, details) -> dict:
    return {"index": index, "check": check, **pl.dump(details=details)}


def check_member(pl: PairedLabeling, index: int, full_oracles: bool) -> dict:
    """Run every applicable equivalence on one labeled graph.

    Returns counters plus any violations.  `full_oracles` additionally
    runs the homology routes (both fields) and the labeling-invariance
    sweep; it is meant for graphs with at most six vertices.
    """
    n = pl.n
    violations: list[dict] = []
    summary = {"unmixed": False, "cm": False, "cm_type": None}

    brute = is_unmixed_bruteforce(pl.graph)
    structural = _structural_scan(pl)
    unmixed = bool(brute.value)
    summary["unmixed"] = unmixed
    if structural.value != brute.value:
        violations.append(
            _bundle(
                pl,
                index,
                "unmixedness-equivalence",
                {
                    "structural": structural.to_dict(),
                    "bruteforce": brute.to_dict(),
                },
            )
        )

    has_short = find_cycle(pl, max_r=2) is not None
    has_any = find_cycle(pl, max_r=None) is not None
    unique = bool(unique_perfect_matching(pl).value)
    if unique != (not has_any):
        violations.append(
            _bundle(
                pl,
                index,
                "matching-cycle-duality",
                {"unique_matching": unique, "cycle_free": not has_any},
            )
        )
    if unmixed and has_short != has_any:
        violations.append(
            _bundle(
                pl,
                index,
                "short-cycle-sufficiency",
                {"short_cycle": has_short, "any_cycle": has_any},
            )
        )

    cm = False
    if unmixed:
        routes = "abcde" + ("f" if full_oracles else "")
        try:
            results = cm_routes(pl, routes, 2)
            value, _ = route_agreement(pl, results)
            cm = bool(value)
            if full_oracles:
                rational = cm_routes(pl, "f", "Q")["f"]
                if rational.value != value:
                    violations.append(
                        _bundle(
                            pl,
                            index,
                            "cm-route-agreement",
                            {
                                "rational_homology": rational.to_dict(),
                                "routes": {
                                    r: v.to_dict() for r, v in results.items()
                                },
                            },
                        )
                    )
        except RouteDisagreementError as exc:
            violations.append(
                _bundle(pl, index, "cm-route-agreement", exc.dump)
            )
            cm = not has_short

        shape = minimal_prime_shape(pl)
        if not shape.value:
            violations.append(
                _bundle(pl, index, "cover-shape", shape.certificate)
            )
        bounds = generator_bounds(pl)
        if not bounds.value:
            violations.append(
                _bundle(pl, index, "generator-bound", bounds.certificate)
            )
    summary["cm"] = cm

    if cm:
        if not degree_one_exists(pl).value:
            violations.append(_bundle(pl, index, "degree-one", {}))
        try:
            upward = relabel_for_double_star(pl)
            doublestar = cm_structural_doublestar(upward)
            if not doublestar.value:
                violations.append(
                    _bundle(pl, index, "doublestar", doublestar.certificate)
                )
        except (PreconditionError, CmGraphsError) as exc:
            violations.append(_bundle(pl, index, "doublestar", str(exc)))
        try:
            summary["cm_type"] = invariant_report(pl).cm_type
        except RouteDisagreementError as exc:
            violations.append(
                _bundle(pl, index, "gorenstein-iff-type-one", exc.dump)
            )
    elif full_oracles and not unmixed:
        from .complexes import complementary_complex, reisner_cm

        complex_ = complementary_complex(pl.graph)
        for fld in (2, "Q"):
            oracle = reisner_cm(complex_, fld)
            if oracle.value:
                violations.append(
                    _bundle(
                        pl,
                        index,
                        "cm-implies-unmixed",
                        {"field": str(fld), "oracle": oracle.to_dict()},
                    )
                )

    for size in range(n + 1):
        for t in itertools.combinations(range(1, n + 1), size):
            deformed = pl.with_graph(o_set(pl, t))
            if not classify(deformed.graph).in_class or validate_labeling(deformed):
                violations.append(
                    _bundle(
                        pl,
                        index,
                        "transform-preserves-class",
                        {"subset": list(t)},
                    )
                )
                break
        else:
            continue
        break

    if full_oracles:
        base = (structural.value, not has_short)
        for other in all_star_labelings(pl.graph):
            got = (
                _structural_scan(other).value,
                find_cycle(other, max_r=2) is None,
            )
            if got != base or (
                cm and invariant_report(other).cm_type != summary["cm_type"]
            ):
                violations.append(
                    _bundle(
                        pl,
                        index,
                        "labeling-invariance",
                        {
                            "other_pairs": [list(p) for p in other.pairs],
                            "expected": list(base),
                            "got": list(got),
                        },
                    )
                )
                break

    return {"summary": summary, "violations": violations}


def _run_chunk(args):
    n, indexed_masks, full_oracles = args
    results = []
    for index, mask in indexed_masks:
        pl = member_from_mask(n, mask)
        if not classify(pl.graph).in_class:
            results.append((index, None))
            continue
        try:
            outcome = check_member(pl, index, full_oracles)
        except RouteDisagreementError as exc:
            outcome = {
                "summary": {"unmixed": False, "cm": False, "cm_type": None},
                "violations": [
                    _bundle(pl, index, "internal-disagreement", exc.dump)
                ],
            }
        results.append((index, outcome))
    return results


def cross_validate(
    n: int,
    mode: str = "exhaustive",
    seed=None,
    count=None,
    threads: int = 1,
) -> CensusReport:
    """Census over the class at one pair count.

    The homology oracles and the labeling-invariance sweep run when the
    graphs have at most six vertices; all cheaper equivalences always run.
    Same arguments, same report (wall-clock runtime aside).
    """
    started = time.monotonic()
    masks = _masks(n, mode, seed, count)
    full_oracles = 2 * n <= 6
    indexed = list(enumerate(masks))

    if threads == 1 or len(indexed) < 64:
        chunks = [(n, indexed, full_oracles)]
        chunk_results = [_run_chunk(c) for c in chunks]
    else:
        import multiprocessing

        workers = threads if threads > 0 else (multiprocessing.cpu_count() or 1)
        step = max(1, len(indexed) // (workers * 8))
        chunks = [
            (n, indexed[i : i + step], full_oracles)
            for i in range(0, len(indexed), step)
        ]
        try:
            with multiprocessing.Pool(workers) as pool:
                chunk_results = pool.map(_run_chunk, chunks)
        except OSError:
            chunk_results = [_run_chunk(c) for c in chunks]

    population = unmixed_count = cm_count = 0
    histogram: dict[int, int] = {}
    violations: list[dict] = []
    for results in chunk_results:
        for _index, outcome in results:
            if outcome is None:
                continue
            population += 1
            s = outcome["summary"]
            unmixed_count += bool(s["unmixed"])
            cm_count += bool(s["cm"])
            if s["cm_type"] is not None:
                histogram[s["cm_type"]] = histogram.get(s["cm_type"], 0) + 1
            violations.extend(outcome["violations"])
    violations.sort(key=lambda v: (v["index"], v["check"]))

    return CensusReport(
        n=n,
        mode=mode,
        seed=seed,
        sample_count=count if mode == "sample" else None,
        population=population,
        unmixed_count=unmixed_count,
        cm_count=cm_count,
        type_histogram=histogram,
        violations=violations,
        runtime_ms=int((time.monotonic() - started) * 1000),
    )
