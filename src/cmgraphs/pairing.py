"""Paired labelings: a minimal vertex cover X matched to the complementary
maximal independent set Y.

The central structure pairs x_i with y_i along matching edges; every
criterion downstream is phrased in terms of pair indices (1-based).  This
module discovers such labelings deterministically, finds the alternating
obstruction cycles through pairs by breadth-first search, reorders labelings
so cross edges point upward, and decides uniqueness of the perfect matching.

Like a `Graph`, a `PairedLabeling` memoizes what every criterion reads:
the bit position of each x_i and y_i in its graph with the mask of each
side (`bits`, the one place names are turned into positions), its pair
relations (`PairRelations`, masks over pair indices), read from the
graph's neighbour masks, its 2-pair cycle (`short_cycle`, which route a
and the relabeling read) and its unmixedness verdict (`unmixed`, which
`criteria._crosschecked_unmixed` decides and keeps).  The relations are
the one record of the links y_i x_k that `transform.o_set` rewires and
`transform.restricted_o_full` reads; `transform.rewire` reads them as
`row_writes`, what rewiring each pair writes into the masks.  The
validator's edge checks, built from `bits`, are `check`.  All of these
are built on first use; equality, hashing, repr and pickling see only
the graph and the pairs, and `with_graph` starts a labeling without
them.

`validate_labeling` checks the names (at least one pair, distinct names
on disjoint sides that partition the vertices), then the edges on the
neighbour masks, through the labeling's `check`, which `mask_check`
builds once for the pairs.  A deformation keeps the vertices and the
pairs, so the census checks a draw's names once and each of its
deformations with that one check, which every draw of a pair count
shares.  Cycle witnesses are checked on the masks too; edges are named only in
dumps and error reports.  Route d walks the X-Y perfect matchings as
bit positions and names only the second matching it reports.
"""

import heapq
import itertools
from dataclasses import dataclass
from typing import NamedTuple

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
    maximal_independent_sets,
    memoized,
    walk_perfect_matchings,
)
from .verdicts import Verdict


class PairBits(NamedTuple):
    """Per pair, in pair order, the bit positions of x_i and y_i in the
    labeling's graph, and the masks of each side."""

    x: tuple[int, ...]
    y: tuple[int, ...]
    x_mask: int
    y_mask: int


class PairRelations(NamedTuple):
    """Per pair index i (1-based), the pairs j != i with x_i y_j (`cross`),
    y_i x_j (`links`, the transpose) or x_i x_j (`cover`) an edge, as a
    mask with bit j for pair j, as in `transform._subset_bits`; entry 0
    is 0.  Defined when the x names and the y names are distinct."""

    cross: tuple[int, ...]
    links: tuple[int, ...]
    cover: tuple[int, ...]


@dataclass(frozen=True)
class PairedLabeling:
    graph: Graph
    pairs: tuple[tuple[str, str], ...]

    def __reduce__(self):
        return PairedLabeling, (self.graph, self.pairs)

    @memoized
    def bits(self) -> PairBits:
        """The pairs' bit positions and side masks, read once from the
        graph's `position` for the relations, the validator and the
        deformations."""
        position = self.graph.position
        xs = tuple(position[x] for x, _ in self.pairs)
        ys = tuple(position[y] for _, y in self.pairs)
        x_mask = y_mask = 0
        for px, py in zip(xs, ys):
            x_mask |= 1 << px
            y_mask |= 1 << py
        return PairBits(xs, ys, x_mask, y_mask)

    @memoized
    def relations(self) -> PairRelations:
        """The pair relations, read from the neighbour masks in one pass:
        `pair_bit` takes a bit position of x_i or y_i to the bit of pair
        i, the one table from vertex bits to pair bits."""
        xs, ys, x_mask, y_mask = self.bits
        neighbours = self.graph.neighbours
        pair_bit = [0] * len(neighbours)
        for i, (px, py) in enumerate(zip(xs, ys), start=1):
            pair_bit[px] = pair_bit[py] = 1 << i

        def pairs_of(mask: int) -> int:
            out = 0
            while mask:
                low = mask & -mask
                out |= pair_bit[low.bit_length() - 1]
                mask ^= low
            return out

        cross, links, cover = [0], [0], [0]
        for i, (px, py) in enumerate(zip(xs, ys), start=1):
            others, nb = ~(1 << i), neighbours[px]
            cross.append(pairs_of(nb & y_mask) & others)
            links.append(pairs_of(neighbours[py] & x_mask) & others)
            cover.append(pairs_of(nb & x_mask) & others)
        return PairRelations(tuple(cross), tuple(links), tuple(cover))

    @memoized
    def row_writes(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per pair index i (1-based), what rewiring pair i writes into
        the neighbour masks, as (row, bits cleared, bits set) with row a
        bit position: each link y_i x_k clears y_i from x_k's row and
        sets x_i there, y_i's row loses the linked x_k and x_i's row gains
        them.  Empty for a pair with no link, and at entry 0; read from
        `links` once, for every `transform.rewire` of the labeling."""
        xs, ys, _, _ = self.bits
        writes = [()]
        for px, py, pair_mask in zip(xs, ys, self.relations.links[1:]):
            if not pair_mask:
                writes.append(())
                continue
            x_bit, y_bit, linked, pair_writes = 1 << px, 1 << py, 0, []
            for k in bit_positions(pair_mask):
                row = xs[k - 1]
                pair_writes.append((row, y_bit, x_bit))
                linked |= 1 << row
            pair_writes += (py, linked, 0), (px, 0, linked)
            writes.append(tuple(pair_writes))
        return tuple(writes)

    @memoized
    def check(self):
        """`mask_check(self)`, built once per labeling and read by
        `validate_labeling` and the census sweep; a census draw is handed
        the bare member's."""
        return mask_check(self)

    @memoized
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
    """All violated labeling invariants, as human-readable strings: the
    checks of the names (at least one pair, distinct names on disjoint
    sides, a partition of the vertices), then, when the pairs partition
    the vertices, the labeling's `check` on the graph's neighbour masks."""
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
    return problems + pl.check(g.neighbours)


def mask_check(pl: PairedLabeling):
    """The checks of `validate_labeling` that read the edges, built once
    for `pl`'s pairs, whose names must partition its graph's vertices.

    The returned function takes neighbour masks over those vertices, by
    the graph's bit positions, and returns the problems they give, in the
    validator's order: each missing matching edge, then the two sides.
    The bit positions it reads are taken from `pl.bits` here, once: the
    matching's (x row, y bit) pairs, each side's rows and the x rows.
    Each side, V - X for X and Y for Y, is scanned once: for a row of the
    side that meets the side (X is then no cover, Y not independent) and,
    if there is none, for the lowest x row that misses it (redundant in
    X, extending Y).  When the sides are disjoint, V - X is Y and the one
    scan answers both.  A deformation keeps the vertices and the pairs,
    so one check serves every deformation of a labeling, and every census
    draw of a pair count shares the bare member's (`PairedLabeling.check`).
    """
    names = pl.graph.vertices
    xs, ys, x_mask, y_mask = pl.bits
    matching = tuple(zip(xs, [1 << py for py in ys], pl.pairs))
    x_rows = tuple(bit_positions(x_mask))
    outside = ((1 << len(names)) - 1) & ~x_mask
    x_side = ["X is not a vertex cover"], ["X is not minimal: {} is redundant"]
    y_side = ["Y is not independent"], ["Y is not maximal: {} extends it"]
    if outside == y_mask:
        scans = [(outside, x_side[0] + y_side[0], x_side[1] + y_side[1])]
    else:
        scans = [(outside, *x_side), (y_mask, *y_side)]
    scans = [
        (side, tuple(bit_positions(side)), met, missed)
        for side, met, missed in scans
    ]

    def check(neighbours) -> list[str]:
        problems = []
        for row, y_bit, (x, y) in matching:
            if not neighbours[row] & y_bit:
                problems.append(f"matching edge {x}-{y} missing")
        for side, rows, met, missed in scans:
            for p in rows:
                if neighbours[p] & side:
                    problems += met
                    break
            else:
                for p in x_rows:
                    if not neighbours[p] & side:
                        problems += [m.format(names[p]) for m in missed]
                        break
        return problems

    return check


def make_labeling(g: Graph, pairs) -> PairedLabeling:
    """Build a labeling from explicit pairs, verifying every invariant."""
    pl = PairedLabeling(g, tuple((x, y) for x, y in pairs))
    problems = validate_labeling(pl)
    if problems:
        raise InputFormatError("invalid labeling: " + "; ".join(problems))
    return pl


def cycle_witness_holds(pl: PairedLabeling, w: CycleWitness) -> bool:
    """Independent check that a cycle witness names real edges: for each
    step i -> j, the neighbour mask of y_i holds x_i and x_j."""
    idx = w.indices
    if len(idx) < 2 or len(set(idx)) != len(idx):
        return False
    xs, ys, _, _ = pl.bits
    neighbours = pl.graph.neighbours
    for t, i in enumerate(idx):
        j = idx[(t + 1) % len(idx)]
        nb = neighbours[ys[i - 1]]
        if not nb >> xs[i - 1] & 1 or not nb >> xs[j - 1] & 1:
            return False
    return True


def find_star_labeling(g: Graph) -> PairedLabeling:
    """Deterministic paired labeling of an in-class graph.

    Picks the lexicographically smallest minimum vertex cover as X, then the
    lexicographically smallest perfect matching of X into Y = V - X.  Any
    perfect matching of the graph pairs X with Y (Y is independent, so each
    y must be matched into X), hence for unmixed graphs such a matching
    always exists; when it does not, the deficient set is reported.

    The covers are the complements of the maximal independent sets in
    reverse order, so X is the complement of the last set of size n, and
    no other cover is named.
    """
    membership = classify(g)
    if not membership.in_class:
        raise NotInClassError(
            f"graph has {membership.vertex_count} vertices and height "
            f"{membership.height}"
            + ("; it has isolated vertices" if membership.has_isolated else "")
        )
    n = membership.height
    # |V| = 2n, so Y = V - X has n vertices as well
    y_set = next(s for s in reversed(maximal_independent_sets(g)) if len(s) == n)
    x_set = frozenset(g.vertices) - y_set
    matching, deficiency = lex_min_matching(g, x_set, y_set)
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
    one by X gives that cover's labelings, in sorted order.  The covers
    are taken in their order, which is that of the maximal independent
    sets reversed, each as the complement of a set Y of size n.

    Exponential; used only for cross-validation at small sizes.
    """
    membership = classify(g)
    if not membership.in_class:
        return
    n = membership.height
    matchings = tuple(iter_perfect_matchings(g))
    for y_set in reversed(maximal_independent_sets(g)):
        if len(y_set) != n:
            continue
        oriented = sorted(
            tuple(sorted((b, a) if a in y_set else (a, b) for a, b in m))
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
        above = -1 << s + 1  # the pairs above s
        levels, seen = [1 << s], 1 << s
        while len(levels) < limit and levels[-1]:
            reach = 0
            for i in bit_positions(levels[-1]):
                reach |= cross[i]
            level = reach & above & ~seen
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
        step = links[cycle[-1]] & level
        cycle.append((step & -step).bit_length() - 1)
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
        for j in bit_positions(cross[i]):
            missing = cross[j] & ~(cross[i] | 1 << i)
            if missing:
                k = (missing & -missing).bit_length() - 1
                raise PreconditionError(
                    f"transitivity fails on pairs ({i}, {j}, {k})",
                    witness={"transitivity": [i, j, k]},
                )

    pred_count = [m.bit_count() for m in links]
    available = [(pl.x(i), i) for i in range(1, n + 1) if pred_count[i] == 0]
    heapq.heapify(available)
    order: list[int] = []
    while available:
        _, i = heapq.heappop(available)
        order.append(i)
        for j in bit_positions(cross[i]):
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
    """Does every cross edge x_i y_j have i <= j?  Read off the neighbour
    masks, so a relabeled copy builds no relations: no x_i may see the y
    of an earlier pair."""
    xs, ys, _, _ = pl.bits
    neighbours, earlier = pl.graph.neighbours, 0
    for px, py in zip(xs, ys):
        if neighbours[px] & earlier:
            return False
        earlier |= 1 << py
    return True


def xy_matchings(pl: PairedLabeling):
    """A valid labeling's perfect matchings, walked on its X-Y edges: Y is
    independent and |Y| = |X|, so no x-x edge lies in any, and only dead
    branches are cut."""
    _, _, x_mask, y_mask = pl.bits
    return walk_perfect_matchings(
        [
            nb & (y_mask if x_mask >> p & 1 else x_mask)
            for p, nb in enumerate(pl.graph.neighbours)
        ]
    )


def unique_perfect_matching(pl: PairedLabeling) -> Verdict:
    """True iff the labeling's matching edges form the only perfect
    matching.  A false verdict carries the cycle derived from the
    permutation of a second matching, plus the matching that swaps
    partners along that cycle alone: the second matching's edges on the
    cycle's pairs and the labeling's elsewhere."""
    found = list(itertools.islice(xy_matchings(pl), 2))
    if not found:
        raise RouteDisagreementError(
            "perfect matching enumeration and labeling disagree",
            dump=pl.dump(),
        )
    if len(found) == 1:
        return Verdict(True, "unique-matching", {"matchings_found": 1})
    xs, ys, _, _ = pl.bits
    own = {(px, py) if px < py else (py, px) for px, py in zip(xs, ys)}
    other = next(m for m in found if set(m) != own)
    mate = dict(other)
    mate.update((u, v) for v, u in other)
    pair_of = dict(zip(xs, range(1, pl.n + 1)))  # the pair of each x bit
    # pair of each y -> pair of the x it is matched with
    partner = {j: pair_of[mate[py]] for j, py in enumerate(ys, start=1)}
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
