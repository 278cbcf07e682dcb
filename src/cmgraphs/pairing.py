"""Paired labelings: a minimal vertex cover X matched to the complementary
maximal independent set Y.

The central structure pairs x_i with y_i along matching edges; every
criterion downstream is phrased in terms of pair indices (1-based).  This
module discovers such labelings deterministically, finds the alternating
obstruction cycles through pairs by breadth-first search, reorders labelings
so cross edges point upward, and decides uniqueness of the perfect matching.

Like a `Graph`, a `PairedLabeling` memoizes what every criterion reads:
its pair relations (`PairRelations`), read from the graph's neighbour
masks, its 2-pair cycle (`short_cycle`, which route a and the relabeling
read) and its unmixedness verdict (`unmixed`, which
`criteria._crosschecked_unmixed` decides and keeps).  The relations are
the one record of the links y_i x_k that `transform.o_set` rewires and
`transform.restricted_o_full` reads.  All three are built on first use;
equality, hashing, repr and pickling see only the graph and the pairs,
and `with_graph` starts a labeling without them.
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
    bit_positions,
    classify,
    iter_perfect_matchings,
    lex_min_matching,
    minimal_vertex_covers,
    vertex_bits,
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
        """The pair relations, read from the neighbour masks in one pass."""
        _, position, neighbours = vertex_bits(self.graph)
        x_index, y_index = {}, {}
        x_mask = y_mask = 0
        for i, (x, y) in enumerate(self.pairs, start=1):
            px, py = position[x], position[y]
            x_index[px] = y_index[py] = i
            x_mask |= 1 << px
            y_mask |= 1 << py

        def indices(v, index, side, i):
            found = bit_positions(neighbours[position[v]] & side)
            return frozenset(index[p] for p in found) - {i}

        cross, links, cover = {}, {}, {}
        for i, (x, y) in enumerate(self.pairs, start=1):
            cross[i] = indices(x, y_index, y_mask, i)
            links[i] = indices(y, x_index, x_mask, i)
            cover[i] = indices(x, x_index, x_mask, i)
        return PairRelations(*map(MappingProxyType, (cross, links, cover)))

    @cached_property
    def short_cycle(self) -> "CycleWitness | None":
        """The 2-pair alternating cycle route a looks for, or None;
        searched once per labeling."""
        return find_cycle(self, max_r=2)

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
    """All violated labeling invariants, as human-readable strings.

    The cover and independence checks walk the neighbour masks bit by bit
    and stop at the first vertex that settles them."""
    g, n = pl.graph, pl.n
    problems = []
    xs = {x for x, _ in pl.pairs}
    ys = {y for _, y in pl.pairs}
    if n < 1:
        problems.append("labeling must have at least one pair")
    if len(xs) != n or len(ys) != n or xs & ys:
        problems.append("pair names must be distinct and the sides disjoint")
    if xs | ys != set(g.vertices):
        problems.append("pairs must partition the vertex set")
        return problems
    names, position, neighbours = vertex_bits(g)
    x_mask = y_mask = 0
    for x, y in pl.pairs:
        px, py = position[x], position[y]
        if not neighbours[px] >> py & 1:
            problems.append(f"matching edge {x}-{y} missing")
        x_mask |= 1 << px
        y_mask |= 1 << py
    outside = ((1 << len(names)) - 1) & ~x_mask
    if _lowest(outside, neighbours, outside, True) is not None:
        problems.append("X is not a vertex cover")
    else:
        redundant = _lowest(x_mask, neighbours, outside, False)
        if redundant is not None:
            problems.append(f"X is not minimal: {names[redundant]} is redundant")
    if _lowest(y_mask, neighbours, y_mask, True) is not None:
        problems.append("Y is not independent")
    else:
        extends = _lowest(x_mask, neighbours, y_mask, False)
        if extends is not None:
            problems.append(f"Y is not maximal: {names[extends]} extends it")
    return problems


def _lowest(mask: int, neighbours, other: int, meets: bool) -> int | None:
    """The lowest bit position p of `mask` whose neighbour mask meets
    `other` (or, when `meets` is false, misses it); None if there is none."""
    while mask:
        low = mask & -mask
        p = low.bit_length() - 1
        if bool(neighbours[p] & other) is meets:
            return p
        mask ^= low
    return None


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
    x_set = next(c for c in minimal_vertex_covers(g) if len(c) == n)
    matching, deficiency = lex_min_matching(g, x_set, frozenset(g.vertices) - x_set)
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
    matchings = tuple(iter_perfect_matchings(g))
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
    """Shortest alternating cycle through distinct pairs, or None: the
    lexicographically smallest shortest cycle, written from its minimum.

    From each start s, a breadth-first search over the pairs above s along
    the reversed links (`cross`) collects `levels[d]`, the pairs d links
    back from s; the first level meeting `links[s]` closes the shortest
    cycle through s, of length d + 1, and the witness steps to the smallest
    linked pair one level nearer.  No search passes length `max_r`, and
    later starts look only for a shorter cycle: O(n·m).  Searching r = 2
    alone decides Cohen-Macaulayness of unmixed in-class graphs.
    """
    n, (cross, links, _) = pl.n, pl.relations
    limit = n if max_r is None else min(max_r, n)
    found = None
    for s in range(1, n + 1):
        levels, seen = [{s}], {s}
        while len(levels) < limit and levels[-1]:
            level = {j for i in levels[-1] for j in cross[i] if j > s} - seen
            seen |= level
            levels.append(level)
            if links[s] & level:
                found, limit = (s, levels), len(levels) - 1
                break
    if found is None:
        return None
    s, levels = found
    cycle = [s]
    for level in reversed(levels[1:]):
        cycle.append(min(links[cycle[-1]] & level))
    w = CycleWitness(tuple(cycle))
    if not cycle_witness_holds(pl, w):
        raise RouteDisagreementError(
            "cycle search and cycle validator disagree",
            dump=pl.dump(cycle=w.to_list()),
        )
    return w


def relabel_for_double_star(pl: PairedLabeling) -> PairedLabeling:
    """Reorder pairs so every cross edge x_i y_j satisfies i <= j.

    The relation x_i before x_j when x_i y_j is an edge must be a partial
    order for this to work: transitivity comes from unmixedness and
    antisymmetry from the absence of 2-pair cycles (`short_cycle`), so
    both are verified here and violations are reported as precondition
    failures.  The order taken is the lexicographically smallest (by x
    vertex name) topological linear extension; when it is the labeling's
    own order, the labeling itself is returned, memo and all.
    """
    n, (cross, links, _) = pl.n, pl.relations
    if pl.short_cycle is not None:
        i, j = pl.short_cycle.indices
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
    relabeled = pl
    if order != list(range(1, n + 1)):  # only a changed order builds a copy
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


def unique_perfect_matching(pl: PairedLabeling) -> Verdict:
    """True iff the labeling's matching edges form the only perfect
    matching.  A false verdict carries the cycle derived from the
    permutation of a second matching, plus the matching that swaps
    partners along that cycle alone: the second matching's edges on the
    cycle's pairs and the labeling's elsewhere."""
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
    partner = {}  # pair of each y -> pair of the x it is matched with
    for a, b in other:
        x, y = (a, b) if a in x_index else (b, a)
        partner[y_index[y]] = x_index[x]
    start = min(j for j, i in partner.items() if i != j)
    cycle = [start]
    while partner[cycle[-1]] != start:
        cycle.append(partner[cycle[-1]])
    witness = CycleWitness(tuple(cycle))  # y_j x_partner(j) is a link
    if not cycle_witness_holds(pl, witness):
        raise RouteDisagreementError(
            "second matching and cycle validator disagree",
            dump=pl.dump(cycle=witness.to_list()),
        )
    on_cycle = set(cycle)  # elsewhere the labeling's matching edge
    second = sorted(
        sorted((pl.x(partner[j] if j in on_cycle else j), pl.y(j)))
        for j in range(1, pl.n + 1)
    )
    return Verdict(
        False,
        "unique-matching",
        {"cycle": witness.to_list(), "second_matching": second},
    )
