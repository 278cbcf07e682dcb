"""Exhaustive and seeded-random cross-validation over the labeled class.

For a pair count n the candidate extra edges (beyond the mandatory
matching) are the cover-side edges x_i x_j and the cross edges x_i y_j,
i != j; edges inside the independent side can never occur.  Every subset
of candidates yields a labeled graph which is kept when it is in class.
A draw is a mask over the candidates, and its graph is built from the
bare matching's neighbour masks with one bit pair set per drawn edge;
the checks read masks, so a draw's edges are named only in a bundle.

Each enumerated graph is pushed through every proven equivalence the
package implements; disagreements are collected as violations carrying a
full reproduction bundle.  Violations are data, not errors: a clean run
returns an empty list.

The claim that every deformation O_t keeps the class and the labeling is
checked on all 2^n pair-index subsets t of a draw.  The draw is validated
once in full; then `transform.deformations` walks the subsets as a
lattice keyed by their linked pairs, so each distinct deformation is
built once, from a smaller one, and its masks are checked once.  Masks
that pass prove membership, so the deformation is given the draw's
`ClassMembership` in its memo, and `classify`, which still reads every
subset, reads that memo: a draw runs one independence search, its own.
That sweep is why a sampled census stops above
`criteria.DEFORMATION_SUBSET_CAP` pairs.
"""

import functools
import multiprocessing
import random
import time
from dataclasses import dataclass

from .criteria import (
    DEFORMATION_SUBSET_CAP,
    _crosschecked_unmixed,
    cm_routes,
    cm_structural_doublestar,
    degree_one_exists,
    generator_bounds,
    minimal_prime_shape,
    route_agreement,
)
from .errors import CapacityError, CmGraphsError, RouteDisagreementError
from .graphs import Graph, bit_positions, classify, pairs_graph
from .invariants import invariant_report
from .pairing import (
    PairedLabeling,
    all_star_labelings,
    find_cycle,
    mask_check,
    relabel_for_double_star,
    validate_labeling,
)
from .transform import deformations
from .verdicts import indented_json

EXHAUSTIVE_PAIR_CAP = 4


@functools.cache
def optional_edges(n: int) -> tuple[tuple[str, str], ...]:
    """The candidate extra edges in a fixed deterministic order, built
    once per pair count."""
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            edges.append((f"x{i}", f"x{j}"))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                edges.append((f"x{i}", f"y{j}"))
    return tuple(sorted(edges))


@functools.cache
def _bare_member(n: int):
    """The bare matching's labeling for a pair count, whose `position`
    and `bits` every draw shares, and the bit positions of each candidate
    edge's ends in its graph; built once per pair count."""
    bare = pairs_graph(n)
    position = bare.position
    ends = tuple((position[a], position[b]) for a, b in optional_edges(n))
    pairs = tuple((f"x{i}", f"y{i}") for i in range(1, n + 1))
    return PairedLabeling(bare, pairs), ends


def member_from_mask(n: int, mask: int) -> PairedLabeling:
    """The labeled member whose extra edges are the candidates at the set
    bits of `mask`; bits above the candidate count are ignored.  Its graph
    is built from the bare matching's neighbour masks, with one bit pair
    set per set bit of the draw.  Every draw of a pair count has the bare
    matching's names and pairs, so the graph's `position` and the
    labeling's `bits` are the bare member's, shared, not rebuilt."""
    bare, ends = _bare_member(n)
    neighbours = list(bare.graph.neighbours)
    for b in bit_positions(mask & ((1 << len(ends)) - 1)):
        i, j = ends[b]
        neighbours[i] |= 1 << j
        neighbours[j] |= 1 << i
    graph = Graph(bare.graph.vertices, tuple(neighbours))
    vars(graph)["position"] = bare.graph.position
    pl = PairedLabeling(graph, bare.pairs)
    vars(pl)["bits"] = bare.bits
    return pl


def _masks(n: int, mode: str, seed, count):
    if n < 1:
        raise CmGraphsError(f"pair count must be positive, got {n}")
    if count is not None and count < 1:
        raise CmGraphsError(f"sample count must be positive, got {count}")
    if mode == "exhaustive":
        if count is not None or seed is not None:
            raise CmGraphsError("a count or a seed applies only to sample mode")
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
        return indented_json(self.canonical_dict())

    def histogram_csv(self) -> str:
        lines = ["type,count"]
        lines += [f"{k},{v}" for k, v in sorted(self.type_histogram.items())]
        return "\n".join(lines) + "\n"


def _bundle(pl: PairedLabeling, index: int, check: str, details) -> dict:
    return {"index": index, "check": check, **pl.dump(details=details)}


def check_member(pl: PairedLabeling, index: int, full_oracles: bool) -> dict:
    """Run every applicable equivalence on one labeled graph.

    Returns counters plus any violations; an unmixedness disagreement
    ends the draw.  `full_oracles` adds the homology routes (both fields)
    and the labeling-invariance sweep, for graphs of at most six vertices;
    a disagreement in the sweep escapes to `_check_draw`, which records it.
    """
    violations: list[dict] = []
    summary = {"unmixed": False, "cm": False, "cm_type": None}

    def record(check, details):
        violations.append(_bundle(pl, index, check, details))

    try:
        unmixed = bool(_crosschecked_unmixed(pl).value)
    except RouteDisagreementError as exc:
        record("unmixedness-equivalence", exc.dump)
        return {"summary": summary, "violations": violations}
    summary["unmixed"] = unmixed

    routes = cm_routes(pl, "ad")
    has_short = not routes["a"].value
    has_any = find_cycle(pl, max_r=None) is not None
    unique = bool(routes["d"].value)
    if unique != (not has_any):
        record(
            "matching-cycle-duality",
            {"unique_matching": unique, "cycle_free": not has_any},
        )
    if unmixed and has_short != has_any:
        record(
            "short-cycle-sufficiency",
            {"short_cycle": has_short, "any_cycle": has_any},
        )
    if full_oracles:
        routes["f"] = cm_routes(pl, "f", 2)["f"]
        routes["fQ"] = cm_routes(pl, "f", "Q")["f"]

    cm = False
    if unmixed:
        routes.update(cm_routes(pl, "bce"))
        try:
            cm = bool(route_agreement(pl, routes).value)
        except RouteDisagreementError as exc:
            record("cm-route-agreement", exc.dump)
            cm = not has_short

        shape = minimal_prime_shape(pl)
        if not shape.value:
            record("cover-shape", shape.certificate)
        bounds = generator_bounds(pl)
        if not bounds.value:
            record("generator-bound", bounds.certificate)
    summary["cm"] = cm

    if cm:
        if not degree_one_exists(pl).value:
            record("degree-one", {})
        try:
            upward = relabel_for_double_star(pl)
            doublestar = cm_structural_doublestar(upward)
            if not doublestar.value:
                record("doublestar", doublestar.certificate)
        except CmGraphsError as exc:
            record("doublestar", str(exc))
        try:
            summary["cm_type"] = invariant_report(pl).cm_type
        except RouteDisagreementError as exc:
            record("gorenstein-iff-type-one", exc.dump)
    elif full_oracles and not unmixed:
        for fld, route in ((2, "f"), ("Q", "fQ")):
            oracle = routes[route]
            if oracle.value:
                record(
                    "cm-implies-unmixed",
                    {"field": str(fld), "oracle": oracle.to_dict()},
                )

    # the names are checked once: a deformation keeps the vertices and
    # the pairs, so each one is checked on its masks alone, and only when
    # it is first built.  A repeat is the same object, which passed, and
    # the undeformed graph is the one just validated.  Masks that pass
    # prove the draw's membership: the n matching edges need n cover
    # vertices, X is a cover of n, and no vertex is isolated.  So the
    # built graph's memo takes the draw's, which `classify` then reads
    if validate_labeling(pl):
        record("transform-preserves-class", {"subset": []})
    else:
        check, membership = mask_check(pl), pl.graph._membership
        for t, deformed, built in deformations(pl):
            broken = built and check(deformed.neighbours)
            if built and not broken:
                vars(deformed)["_membership"] = membership
            if broken or not classify(deformed).in_class:
                record("transform-preserves-class", {"subset": list(t)})
                break

    if full_oracles:
        base = (unmixed, not has_short)
        for other in all_star_labelings(pl.graph):
            if other == pl:
                continue
            got = (
                _crosschecked_unmixed(other).value,
                other.short_cycle is None,
            )
            # a draw whose own report disagreed has no type to compare
            if got != base or (
                summary["cm_type"] is not None
                and invariant_report(other).cm_type != summary["cm_type"]
            ):
                record(
                    "labeling-invariance",
                    {
                        "other_pairs": [list(p) for p in other.pairs],
                        "expected": list(base),
                        "got": list(got),
                    },
                )
                break

    return {"summary": summary, "violations": violations}


def _check_draw(args):
    """`check_member` on one drawn mask; None when the draw is out of
    class.  A disagreement escaping the checks becomes a bundle."""
    n, index, mask, full_oracles = args
    pl = member_from_mask(n, mask)
    if not classify(pl.graph).in_class:
        return None
    try:
        return check_member(pl, index, full_oracles)
    except RouteDisagreementError as exc:
        return {
            "summary": {"unmixed": False, "cm": False, "cm_type": None},
            "violations": [_bundle(pl, index, "internal-disagreement", exc.dump)],
        }


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
    Same arguments, same report (wall-clock runtime aside).  Sample mode
    raises `CapacityError` above `DEFORMATION_SUBSET_CAP` pairs before it
    draws, since every draw sweeps all 2^n deformations.
    """
    if threads < 0:
        raise CmGraphsError(f"thread count must be 0 (one per CPU) or more, got {threads}")
    if mode == "sample" and n > DEFORMATION_SUBSET_CAP:
        raise CapacityError(
            f"sampled censuses are capped at {DEFORMATION_SUBSET_CAP} pairs "
            f"(each draw sweeps 2^n deformations); got {n}"
        )
    started = time.monotonic()
    masks = _masks(n, mode, seed, count)
    full_oracles = 2 * n <= 6
    jobs = [(n, index, mask, full_oracles) for index, mask in enumerate(masks)]
    cpus = multiprocessing.cpu_count() or 1
    workers = min(threads, cpus) if threads else cpus

    if workers == 1 or len(jobs) < 64:
        outcomes = map(_check_draw, jobs)
    else:
        chunksize = max(1, len(jobs) // (workers * 8))
        try:
            with multiprocessing.Pool(workers) as pool:
                outcomes = pool.map(_check_draw, jobs, chunksize=chunksize)
        except OSError:
            outcomes = map(_check_draw, jobs)

    population = unmixed_count = cm_count = 0
    histogram: dict[int, int] = {}
    violations: list[dict] = []
    for outcome in outcomes:
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
