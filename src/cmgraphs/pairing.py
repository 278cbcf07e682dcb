"""Paired labelings: a minimal vertex cover X matched to the complementary
maximal independent set Y.

The central structure pairs x_i with y_i along matching edges; every
criterion downstream is phrased in terms of pair indices (1-based).  This
module discovers such labelings deterministically, detects the alternating
obstruction cycles through pairs, reorders labelings so cross edges only
point upward, and decides uniqueness of the perfect matching.

Like a `Graph`, a `PairedLabeling` memoizes what every criterion reads:
its pair relations (`PairRelations`), built on first use; equality,
hashing, repr and pickling see only the graph and the pairs.
"""

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import (
    InputFormatError,
    NotInClassError,
    PreconditionError,
    RouteDisagreementError,
    StructureError,
)
from .graphs import (
    Graph,
    adjacency,
    classify,
    iter_perfect_matchings,
    minimal_vertex_covers,
    perfect_matchings,
)
from .verdicts import Verdict


class PairRelations(NamedTuple):
    """Per pair index i (1-based), the indices j != i with x_i y_j
    (`cross`), y_i x_j (`links`, the transpose) or x_i x_j (`cover`) an
    edge; defined when the x names and the y names are distinct."""

    cross: Mapping[int, frozenset[int]]
    links: Mapping[int, frozenset[int]]
    cover: Mapping[int, frozenset[int]]


@dataclass(frozen=True)
class PairedLabeling:
    graph: Graph
    pairs: tuple[tuple[str, str], ...]

    def __reduce__(self):
        return PairedLabeling, (self.graph, self.pairs)

    @cached_property
    def relations(self) -> PairRelations:
        """The pair relations, read from the adjacency in one pass."""
        adj = adjacency(self.graph)
        x_index = {x: i for i, (x, _) in enumerate(self.pairs, start=1)}
        y_index = {y: i for i, (_, y) in enumerate(self.pairs, start=1)}

        def indices(v, index, i):
            return frozenset(index[u] for u in adj[v] if u in index) - {i}

        cross, links, cover = {}, {}, {}
        for i, (x, y) in enumerate(self.pairs, start=1):
            cross[i] = indices(x, y_index, i)
            links[i] = indices(y, x_index, i)
            cover[i] = indices(x, x_index, i)
        return PairRelations(*map(MappingProxyType, (cross, links, cover)))

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def x_names(self) -> tuple[str, ...]:
        return tuple(x for x, _ in self.pairs)

    @property
    def y_names(self) -> tuple[str, ...]:
        return tuple(y for _, y in self.pairs)

    def x(self, i: int) -> str:
        """x vertex of pair i (1-based)."""
        return self.pairs[i - 1][0]

    def y(self, i: int) -> str:
        return self.pairs[i - 1][1]

    def with_graph(self, graph: Graph) -> "PairedLabeling":
        """Same pairing over a deformed graph on the same vertices."""
        return PairedLabeling(graph, self.pairs)

    def to_dict(self) -> dict:
        return {"n": self.n, "pairs": [list(p) for p in self.pairs]}

    def dump(self, **details) -> dict:
        """Graph, pairs and `details`, as dumps and census bundles carry them."""
        return {
            "graph": self.graph.edge_list(),
            "pairs": [list(p) for p in self.pairs],
            **details,
        }


@dataclass(frozen=True)
class CycleWitness:
    """Pair indices (i_1, ..., i_r), r >= 2: the graph contains every
    matching edge x_{i_j} y_{i_j} and every link y_{i_j} x_{i_{j+1}}
    (cyclically)."""

    indices: tuple[int, ...]

    def to_list(self) -> list[int]:
        return list(self.indices)


def validate_labeling(pl: PairedLabeling) -> list[str]:
    """All violated labeling invariants, as human-readable strings."""
    g = pl.graph
    problems = []
    xs, ys = set(pl.x_names), set(pl.y_names)
    if pl.n < 1:
        problems.append("labeling must have at least one pair")
    if len(xs) != pl.n or len(ys) != pl.n or xs & ys:
        problems.append("pair names must be distinct and the sides disjoint")
    if xs | ys != set(g.vertices):
        problems.append("pairs must partition the vertex set")
        return problems
    adj = adjacency(g)
    for x, y in pl.pairs:
        if y not in adj[x]:
            problems.append(f"matching edge {x}-{y} missing")
    if any(adj[v] - xs for v in set(g.vertices) - xs):
        problems.append("X is not a vertex cover")
    else:
        redundant = next((x for x in sorted(xs) if adj[x] <= xs), None)
        if redundant is not None:
            problems.append(f"X is not minimal: {redundant} is redundant")
    if any(adj[y] & ys for y in ys):
        problems.append("Y is not independent")
    else:
        extends = next((x for x in sorted(xs) if not adj[x] & ys), None)
        if extends is not None:
            problems.append(f"Y is not maximal: {extends} extends it")
    return problems


def make_labeling(g: Graph, pairs) -> PairedLabeling:
    """Build a labeling from explicit pairs, verifying every invariant."""
    pl = PairedLabeling(g, tuple((x, y) for x, y in pairs))
    problems = validate_labeling(pl)
    if problems:
        raise InputFormatError("invalid labeling: " + "; ".join(problems))
    return pl


def cycle_witness_holds(pl: PairedLabeling, w: CycleWitness) -> bool:
    """Independent check that a cycle witness names real edges."""
    idx = w.indices
    if len(idx) < 2 or len(set(idx)) != len(idx):
        return False
    g = pl.graph
    for t, i in enumerate(idx):
        j = idx[(t + 1) % len(idx)]
        if not g.has_edge(pl.x(i), pl.y(i)):
            return False
        if not g.has_edge(pl.y(i), pl.x(j)):
            return False
    return True


def _lex_min_matching(left, right, allowed):
    """Lexicographically smallest perfect matching of `left` into `right`.

    `allowed[l]` is the set of permitted partners.  Returns a dict, or
    None together with a deficient set (S, N(S)) violating Hall's
    condition when no perfect matching exists.
    """

    def max_matching(lefts, used_right):
        match_of_left: dict[str, str] = {}
        match_of_right: dict[str, str] = {}

        def augment(l, seen):
            for r in sorted(allowed[l]):
                if r in used_right or r in seen:
                    continue
                seen.add(r)
                if r not in match_of_right or augment(match_of_right[r], seen):
                    match_of_left[l] = r
                    match_of_right[r] = l
                    return True
            return False

        for l in sorted(lefts):
            augment(l, set())
        return match_of_left, match_of_right

    def feasible(lefts, used_right):
        match_of_left, _ = max_matching(lefts, used_right)
        return len(match_of_left) == len(lefts)

    lefts = sorted(left)
    if not feasible(lefts, set()):
        match_of_left, match_of_right = max_matching(lefts, set())
        start = next(l for l in lefts if l not in match_of_left)
        # alternating reachability from an unmatched left vertex
        s, ns = {start}, set()
        frontier = [start]
        while frontier:
            l = frontier.pop()
            for r in allowed[l]:
                if r not in ns:
                    ns.add(r)
                    owner = match_of_right.get(r)
                    if owner is not None and owner not in s:
                        s.add(owner)
                        frontier.append(owner)
        return None, (sorted(s), sorted(ns))

    chosen: dict[str, str] = {}
    used: set[str] = set()
    for pos, l in enumerate(lefts):
        rest = lefts[pos + 1:]
        for r in sorted(allowed[l]):
            if r in used:
                continue
            if feasible(rest, used | {r}):
                chosen[l] = r
                used.add(r)
                break
    return chosen, None


def find_star_labeling(g: Graph) -> PairedLabeling:
    """Deterministic paired labeling of an in-class graph.

    Picks the lexicographically smallest minimum vertex cover as X, then the
    lexicographically smallest perfect matching of X into Y = V - X.  Any
    perfect matching of the graph pairs X with Y (Y is independent, so each
    y must be matched into X), hence for unmixed graphs such a matching
    always exists; when it does not, the deficient set is reported.
    """
    membership = classify(g)
    if not membership.in_class:
        raise NotInClassError(
            f"graph has {membership.vertex_count} vertices and height "
            f"{membership.height}"
            + ("; it has isolated vertices" if membership.has_isolated else "")
        )
    n = membership.height
    covers = [c for c in minimal_vertex_covers(g) if len(c) == n]
    x_set = min(covers, key=lambda c: tuple(sorted(c)))
    y_set = frozenset(g.vertices) - x_set
    adj = adjacency(g)
    allowed = {x: set(adj[x] & y_set) for x in x_set}
    matching, deficiency = _lex_min_matching(x_set, y_set, allowed)
    if matching is None:
        s, ns = deficiency
        raise StructureError(
            f"no cover-to-independent-set matching: {s} can only be matched "
            f"into {ns}",
            hall_set=s,
            neighborhood=ns,
        )
    pairs = tuple(sorted((x, matching[x]) for x in x_set))
    pl = PairedLabeling(g, pairs)
    problems = validate_labeling(pl)
    if problems:
        raise RouteDisagreementError(
            "labeling discovery and labeling validator disagree",
            dump=pl.dump(problems=problems),
        )
    return pl


def all_star_labelings(g: Graph):
    """Every valid labeling: minimum covers crossed with all matchings.

    For a minimum cover X, Y = V - X is independent and |Y| = |X|, so
    every perfect matching of the graph pairs X with Y; orienting each
    one by X gives that cover's labelings, in sorted order.

    Exponential; used only for cross-validation at small sizes.
    """
    membership = classify(g)
    if not membership.in_class:
        return
    n = membership.height
    matchings = perfect_matchings(g)
    for cover in minimal_vertex_covers(g):
        if len(cover) != n:
            continue
        oriented = sorted(
            tuple(sorted((a, b) if a in cover else (b, a) for a, b in m))
            for m in matchings
        )
        for pairs in oriented:
            yield PairedLabeling(g, pairs)


def find_cycle(pl: PairedLabeling, max_r: int | None = None) -> CycleWitness | None:
    """Shortest alternating cycle through distinct pairs, or None.

    Searches r = 2 upward; within each length the witness is the
    lexicographically smallest index sequence starting at its minimum.
    Searching r = 2 alone is enough to decide Cohen-Macaulayness of
    unmixed in-class graphs; larger r exists to validate that equivalence.
    """
    n = pl.n
    links = pl.relations.links
    limit = n if max_r is None else min(max_r, n)

    def extend(seq, used, r):
        last = seq[-1]
        if len(seq) == r:
            return list(seq) if seq[0] in links[last] else None
        for nxt in sorted(links[last]):
            if nxt > seq[0] and nxt not in used:
                found = extend(seq + [nxt], used | {nxt}, r)
                if found:
                    return found
        return None

    for r in range(2, limit + 1):
        for start in range(1, n + 1):
            found = extend([start], {start}, r)
            if found:
                w = CycleWitness(tuple(found))
                if not cycle_witness_holds(pl, w):
                    raise RouteDisagreementError(
                        "cycle search and cycle validator disagree",
                        dump=pl.dump(cycle=w.to_list()),
                    )
                return w
    return None


def relabel_for_double_star(pl: PairedLabeling) -> PairedLabeling:
    """Reorder pairs so every cross edge x_i y_j satisfies i <= j.

    The relation x_i before x_j when x_i y_j is an edge must be a partial
    order for this to work: transitivity comes from unmixedness and
    antisymmetry from the absence of 2-pair cycles, so both are verified
    here and violations are reported as precondition failures.  The order
    taken is the lexicographically smallest (by x vertex name) topological
    linear extension.
    """
    n, (cross, links, _) = pl.n, pl.relations
    for i in range(1, n + 1):
        for j in sorted(cross[i]):
            if i in cross[j]:
                raise PreconditionError(
                    f"antisymmetry fails: both cross edges between pairs {i} "
                    f"and {j} are present",
                    witness={"antisymmetry": [i, j]},
                )
    for i in range(1, n + 1):
        for j in sorted(cross[i]):
            missing = cross[j] - cross[i] - {i}
            if missing:
                k = min(missing)
                raise PreconditionError(
                    f"transitivity fails on pairs ({i}, {j}, {k})",
                    witness={"transitivity": [i, j, k]},
                )

    pred_count = {j: len(links[j]) for j in range(1, n + 1)}
    available = [(pl.x(i), i) for i in range(1, n + 1) if pred_count[i] == 0]
    heapq.heapify(available)
    order: list[int] = []
    while available:
        _, i = heapq.heappop(available)
        order.append(i)
        for j in cross[i]:
            pred_count[j] -= 1
            if pred_count[j] == 0:
                heapq.heappush(available, (pl.x(j), j))
    relabeled = PairedLabeling(pl.graph, tuple(pl.pairs[i - 1] for i in order))
    if len(order) != n or not satisfies_double_star(relabeled):
        raise RouteDisagreementError(
            "relabeling and upward cross-edge validator disagree",
            dump=pl.dump(order=order),
        )
    return relabeled


def satisfies_double_star(pl: PairedLabeling) -> bool:
    """Does every cross edge x_i y_j have i <= j?"""
    return all(j > i for i, js in pl.relations.cross.items() for j in js)


def second_matching_from_cycle(pl: PairedLabeling, w: CycleWitness):
    """The alternative perfect matching obtained by swapping partners
    along a cycle witness; all other pairs keep their matching edge."""
    idx = w.indices
    partner = {i: pl.y(i) for i in range(1, pl.n + 1)}
    for t, i in enumerate(idx):
        j = idx[(t + 1) % len(idx)]
        partner[j] = pl.y(i)
    return tuple(
        sorted(tuple(sorted((pl.x(i), partner[i]))) for i in range(1, pl.n + 1))
    )


def unique_perfect_matching(pl: PairedLabeling) -> Verdict:
    """True iff the labeling's matching edges form the only perfect
    matching.  A false verdict carries the cycle derived from the
    permutation of a second matching, plus the second matching rebuilt
    from that cycle."""
    found = list(itertools.islice(iter_perfect_matchings(pl.graph), 2))
    if not found:
        raise RouteDisagreementError(
            "perfect matching enumeration and labeling disagree",
            dump=pl.dump(),
        )
    if len(found) == 1:
        return Verdict(True, "unique-matching", {"matchings_found": 1})
    other = next(
        m
        for m in found
        if set(m) != {tuple(sorted(p)) for p in pl.pairs}
    )
    x_index = {x: i for i, (x, _) in enumerate(pl.pairs, start=1)}
    y_index = {y: i for i, (_, y) in enumerate(pl.pairs, start=1)}
    sigma = {}
    for a, b in other:
        x, y = (a, b) if a in x_index else (b, a)
        sigma[x_index[x]] = y_index[y]
    start = min(i for i in sigma if sigma[i] != i)
    cycle = [start]
    while sigma[cycle[-1]] != start:
        cycle.append(sigma[cycle[-1]])
    cycle.reverse()  # x_k matched to y_sigma(k) means the links run backwards
    pos = cycle.index(min(cycle))
    witness = CycleWitness(tuple(cycle[pos:] + cycle[:pos]))
    if not cycle_witness_holds(pl, witness):
        raise RouteDisagreementError(
            "second matching and cycle validator disagree",
            dump=pl.dump(cycle=witness.to_list()),
        )
    second = second_matching_from_cycle(pl, witness)
    return Verdict(
        False,
        "unique-matching",
        {
            "cycle": witness.to_list(),
            "second_matching": [list(p) for p in second],
        },
    )
