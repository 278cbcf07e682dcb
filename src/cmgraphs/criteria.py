"""Decision procedures for unmixedness and Cohen-Macaulayness.

Unmixedness has two routes (a structural pair-condition scan and the
brute-force cover-size census) that are proven equivalent for labeled
in-class graphs; they are always cross-checked and a disagreement aborts,
because it can only mean an implementation bug.

Cohen-Macaulayness has six routes over an unmixed labeling:

    a  no 2-pair alternating cycle        (complete criterion, O(n^2))
    b  independence complex strongly connected
    c  independence complex shellable
    d  the matching edges are the unique perfect matching
    e  every deformation over an index subset stays unmixed
    f  homology oracle (field-dependent, external to the combinatorics)

Route a is the default; the others exist for cross-validation and richer
certificates.  All computed routes must agree.
"""

import random

from .complexes import (
    complementary_complex,
    check_shelling,
    find_shelling,
    field_label,
    is_strongly_connected,
    reisner_cm,
)
from .errors import (
    CapacityError,
    CmGraphsError,
    NotInClassError,
    PreconditionError,
    RouteDisagreementError,
    StructureError,
)
from .graphs import (
    Graph,
    bit_positions,
    degrees,
    is_unmixed_bruteforce,
    name_order,
)
from .pairing import (
    PairedLabeling,
    find_cycle,
    find_star_labeling,
    satisfies_double_star,
    unique_perfect_matching,
)
from .transform import index_subsets, o_set
from .verdicts import Verdict

ROUTE_NAMES = {
    "a": "no-short-cycle",
    "b": "strongly-connected",
    "c": "shellable",
    "d": "unique-matching",
    "e": "all-deformations-unmixed",
    "f": "homology",
}

DEFORMATION_SUBSET_CAP = 12


def _structural_scan(pl: PairedLabeling) -> Verdict:
    """The two pair conditions characterizing unmixedness under a valid
    labeling:

    (i)  both of z_i x_j and y_j x_k being edges forces z_i x_k, for
         distinct i, j, k and z_i either of x_i, y_i;
    (ii) a cross edge x_i y_j forbids the cover edge x_i x_j.

    Both read the labeling's pair masks as inclusions, O(n * m): links[j]
    lies in cover[i] | {i} for j in cover[i], and in links[i] | {i} for j
    in links[i]; k is the lowest bit of links[j] outside it.
    """
    cross, links, cover = pl.relations
    for i in range(1, pl.n + 1):
        both = cross[i] & cover[i]
        if both:
            j = (both & -both).bit_length() - 1
            return Verdict(
                False,
                "structural",
                {
                    "condition": "ii",
                    "witness": {
                        "i": i,
                        "j": j,
                        "cross_edge": [pl.x(i), pl.y(j)],
                        "cover_edge": [pl.x(i), pl.x(j)],
                    },
                },
            )
    for i in range(1, pl.n + 1):
        as_x, as_y = cover[i] | 1 << i, links[i] | 1 << i
        for j in bit_positions(cover[i] | links[i]):
            forced = links[j]
            fail_x = (forced | as_x) ^ as_x if cover[i] >> j & 1 else 0
            fail_y = (forced | as_y) ^ as_y if links[i] >> j & 1 else 0
            fail = fail_x | fail_y
            if fail:
                k = (fail & -fail).bit_length() - 1
                z = pl.x(i) if fail_x >> k & 1 else pl.y(i)
                return Verdict(
                    False,
                    "structural",
                    {
                        "condition": "i",
                        "witness": {
                            "i": i,
                            "j": j,
                            "k": k,
                            "edges_present": [[z, pl.x(j)], [pl.y(j), pl.x(k)]],
                            "edge_missing": [z, pl.x(k)],
                        },
                    },
                )
    return Verdict(True, "structural", {"conditions": ["i", "ii"]})


def _crosschecked_unmixed(pl: PairedLabeling) -> Verdict:
    """The labeling's one unmixedness verdict, kept in its memo on first
    use; a disagreement keeps nothing, so every later reader raises it.

    A mixed structural verdict lists the graph's independent sets before
    brute force runs: brute force then reads the sizes off those masks,
    which its witnesses need anyway, instead of counting them by size
    first.  It still decides from the masks alone."""
    if "unmixed" in vars(pl):
        return vars(pl)["unmixed"]
    structural = _structural_scan(pl)
    if not structural.value:
        pl.graph._independent_masks
    brute = is_unmixed_bruteforce(pl.graph)
    if structural.value != brute.value:
        raise RouteDisagreementError(
            "structural and brute-force unmixedness disagree",
            dump=pl.dump(
                structural=structural.to_dict(), bruteforce=brute.to_dict()
            ),
        )
    certificate = {**structural.certificate, **brute.certificate}
    vars(pl)["unmixed"] = Verdict(structural.value, "structural", certificate)
    return vars(pl)["unmixed"]


def unmixed_verdict(g: Graph) -> Verdict:
    """Unmixedness of an arbitrary graph.

    In-class graphs with a labeling get the structural route cross-checked
    against brute force; everything else falls back to brute force alone.
    """
    try:
        return _crosschecked_unmixed(find_star_labeling(g))
    except (NotInClassError, StructureError):
        return is_unmixed_bruteforce(g)


def _route_a(pl: PairedLabeling) -> Verdict:
    cycle = pl.short_cycle
    if cycle is None:
        return Verdict(True, ROUTE_NAMES["a"], {"max_r_searched": 2})
    return Verdict(False, ROUTE_NAMES["a"], {"cycle": cycle.to_list()})


def _route_b(pl: PairedLabeling) -> Verdict:
    v = is_strongly_connected(complementary_complex(pl.graph))
    return Verdict(v.value, ROUTE_NAMES["b"], v.certificate)


def _route_c(pl: PairedLabeling) -> Verdict:
    complex_ = complementary_complex(pl.graph)
    try:
        order = find_shelling(complex_)
    except CapacityError as exc:
        return Verdict(None, ROUTE_NAMES["c"], {"inconclusive": str(exc)})
    if order is not None:
        shelling = [sorted(f) for f in order]
        if not check_shelling(complex_, order):
            raise RouteDisagreementError(
                "shelling search and shelling validator disagree",
                dump=pl.dump(order=shelling),
            )
        return Verdict(True, ROUTE_NAMES["c"], {"shelling": shelling})
    cycle = find_cycle(pl, max_r=None)
    certificate = {"exhausted": True}
    if cycle is not None:
        certificate["cycle"] = cycle.to_list()
    return Verdict(False, ROUTE_NAMES["c"], certificate)


def _route_d(pl: PairedLabeling) -> Verdict:
    return unique_perfect_matching(pl)


def _route_e(pl: PairedLabeling) -> Verdict:
    n = pl.n
    if n <= DEFORMATION_SUBSET_CAP:
        subsets = list(index_subsets(n))
        exhaustive = True
    else:
        rng = random.Random(0)  # falsification only; fixed seed, no proof
        subsets = [
            tuple(i for i in range(1, n + 1) if rng.random() < 0.5)
            for _ in range(256)
        ]
        exhaustive = False
    # a deformation depends only on the linked pairs of t, and one whose
    # linked pairs were seen has passed, so it is skipped; no deformed
    # graph is kept, since each holds the masks of its maximal
    # independent sets, or above `SIZE_COUNT_ABOVE` vertices their count
    # by size (a mixed one, which ends the walk, lists and names them)
    linked, seen = sum(1 << i for i, m in enumerate(pl.relations.links) if m), set()
    for t in subsets:
        key = sum(1 << i for i in t) & linked
        if key in seen:
            continue
        seen.add(key)
        verdict = is_unmixed_bruteforce(o_set(pl, t))
        if not verdict.value:
            return Verdict(
                False,
                ROUTE_NAMES["e"],
                {"subset": list(t), "deformed": verdict.certificate},
            )
    if exhaustive:
        return Verdict(
            True, ROUTE_NAMES["e"], {"subsets_checked": len(subsets)}
        )
    return Verdict(
        None, ROUTE_NAMES["e"], {"subsets_sampled": len(subsets)}
    )


def _route_f(pl: PairedLabeling, field) -> Verdict:
    try:
        v = reisner_cm(complementary_complex(pl.graph), field)
    except CapacityError as exc:
        return Verdict(None, ROUTE_NAMES["f"], {"inconclusive": str(exc)})
    certificate = dict(v.certificate or {})
    certificate.setdefault("field", field_label(field))
    return Verdict(v.value, ROUTE_NAMES["f"], certificate)


_ROUTE_IMPL = {
    "a": _route_a,
    "b": _route_b,
    "c": _route_c,
    "d": _route_d,
    "e": _route_e,
}


def cm_routes(pl: PairedLabeling, routes="a", field=2) -> dict[str, Verdict]:
    """Evaluate the selected routes independently, each distinct route
    once; keys are route ids, in the order of their first selection."""
    results: dict[str, Verdict] = {}
    for r in routes:
        if r in results:
            continue
        if r == "f":
            results[r] = _route_f(pl, field)
        elif r in _ROUTE_IMPL:
            results[r] = _ROUTE_IMPL[r](pl)
        else:
            raise CmGraphsError(f"unknown route {r!r}")
    return results


def route_agreement(pl: PairedLabeling, results: dict[str, Verdict]) -> Verdict:
    """The Cohen-Macaulay verdict of the computed routes.

    Its route is the primary route: route a when it decided, otherwise
    the first decided route in id order, or "inconclusive" when every
    route was.  The certificate holds every route's verdict in id order.
    Decided routes that disagree raise `RouteDisagreementError`.
    """
    decided = {r: v for r, v in results.items() if v.value is not None}
    if len({v.value for v in decided.values()}) > 1:
        raise RouteDisagreementError(
            "Cohen-Macaulayness routes disagree",
            dump=pl.dump(routes={r: v.to_dict() for r, v in results.items()}),
        )
    certificate = {"routes": {r: results[r].to_dict() for r in sorted(results)}}
    if not decided:
        return Verdict(None, "inconclusive", certificate)
    primary = "a" if "a" in decided else sorted(decided)[0]
    return Verdict(decided[primary].value, ROUTE_NAMES[primary], certificate)


def cm_verdict(pl: PairedLabeling, routes="a", field=2) -> Verdict:
    """Cohen-Macaulayness of an unmixed labeled graph.

    Unmixedness is verified first (the criteria assume it).  Every
    computed route must agree (`route_agreement`).
    """
    unmixed = _crosschecked_unmixed(pl)
    if not unmixed.value:
        raise PreconditionError(
            "graph is not unmixed", witness=unmixed.certificate
        )
    return route_agreement(pl, cm_routes(pl, routes, field))


def cm_structural_doublestar(pl: PairedLabeling) -> Verdict:
    """Under an upward labeling (cross edges x_i y_j only for i <= j) the
    two pair conditions decide Cohen-Macaulayness outright."""
    if not satisfies_double_star(pl):
        raise PreconditionError(
            "labeling does not satisfy the upward cross-edge condition"
        )
    scan = _structural_scan(pl)
    return Verdict(scan.value, "doublestar-structural", scan.certificate)


def minimal_prime_shape(pl: PairedLabeling) -> Verdict:
    """Every minimal vertex cover picks exactly one vertex per pair.  A
    cover meets a pair once exactly when its complement, a maximal
    independent set, does, so the graph's set masks are tested pair by
    pair on the labeling's bits.  The certificate is the first failing
    cover in the covers' order, the sets' `name_order` reversed, and its
    first failing pair; only that cover is named."""
    pairs = list(zip(range(1, pl.n + 1), pl.bits.x, pl.bits.y))

    def first_miss(s: int) -> tuple[int, int] | None:
        """The first pair that the cover V - s does not meet exactly
        once, and how many of the pair's vertices that cover holds."""
        for i, px, py in pairs:
            inside = (s >> px & 1) + (s >> py & 1)
            if inside != 1:
                return i, 2 - inside
        return None

    g = pl.graph
    failing = [s for s in g._independent_masks if first_miss(s)]
    if not failing:
        return Verdict(True, "cover-shape", None)
    s = name_order(failing)[-1]
    i, hits = first_miss(s)
    cover = [v for b, v in enumerate(g.vertices) if not s >> b & 1]
    return Verdict(False, "cover-shape", {"cover": cover, "pair_index": i, "hits": hits})


def generator_bounds(pl: PairedLabeling) -> Verdict:
    """Edge-count bounds: n^2 when unmixed and n(n+1)/2 when
    Cohen-Macaulay; the certificate reports the slack of each.  Reads
    the one unmixedness verdict (which may raise its disagreement)."""
    n = pl.n
    edge_count = sum(nb.bit_count() for nb in pl.graph.neighbours) // 2
    unmixed = _crosschecked_unmixed(pl).value
    cm = pl.short_cycle is None if unmixed else None
    certificate = {
        "edges": edge_count,
        "n": n,
        "unmixed": unmixed,
        "cm": cm,
    }
    ok = True
    bounds = (("unmixed", unmixed, n * n), ("cm", cm, n * (n + 1) // 2))
    for name, holds, bound in bounds:
        if holds:
            certificate[f"{name}_bound"] = bound
            certificate[f"{name}_slack"] = bound - edge_count
            ok = ok and edge_count <= bound
    return Verdict(ok, "generator-bounds", certificate)


def degree_one_exists(pl: PairedLabeling) -> Verdict:
    """Fast necessary condition for Cohen-Macaulayness: some vertex has
    degree exactly one."""
    deg = degrees(pl.graph)
    ones = sorted(v for v, d in deg.items() if d == 1)
    if ones:
        return Verdict(True, "degree-one", {"vertex": ones[0]})
    return Verdict(
        False,
        "degree-one",
        {"min_degree": min(deg.values()), "degrees": dict(sorted(deg.items()))},
    )
