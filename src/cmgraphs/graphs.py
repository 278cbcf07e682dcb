"""Finite simple graphs with exact enumeration of covers, independent sets
and perfect matchings.

Vertex names are opaque strings.  Every enumeration returns a fixed
deterministic order (lexicographic on sorted vertex names) so reports and
golden files are byte-stable.  A `Graph` is immutable, so the facts every
analysis needs (the bitset view, maximal independent sets, minimal vertex
covers) are computed on first use and memoized on that instance.  The
memo holds only immutable values and dies with the graph;
equality, hashing, repr and pickling see only the vertices and edges.
One thing in it can come from another graph: a deformed graph is handed
its bitset view by `transform.o_set` (through `rewired`), which shares
the parent's immutable names and positions and carries neighbour masks
of its own, so it never builds the view from its edges.

The bitset view numbers the vertices by sorted name: bit i of a mask
stands for the i-th name, which is `vertices[i]` for every graph the
package builds.  It is the graph's one adjacency, one neighbour mask per
vertex; `adjacency` names its sets off those masks on each call.  The
perfect-matching backtracker (route d) runs on the neighbour masks too.
The height and class membership read only the neighbour masks: the
independence number comes from an exact reduce-and-branch search, so
deciding membership lists no independent set.  The maximal independent
sets are enumerated only when the sets themselves are asked for (covers,
complexes, invariants), once per graph, as masks, by an iterative
pivoted Bron-Kerbosch with an explicit stack whose pivot scan stops at
the first vertex that leaves at most one branch.
`maximal_independent_sets` turns the masks into names once, ordered by
their bit positions, which is the order of their sorted names.  The sets
form an antichain, so that order is decided by the lowest bit in which
two masks differ, and a C-level sort of the masks' binary strings, read
lowest bit first, produces it without walking any mask bit by bit.  The
minimal vertex covers are the complements of those sets; complementing
flips the lowest differing bit, so the covers come out in order by
reversing the sets, with no sort of their own.
"""

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import compress
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import InputFormatError
from .verdicts import Verdict


def edge_key(a: str, b: str) -> frozenset[str]:
    """Normalize an unordered edge; loops are rejected."""
    if a == b:
        raise InputFormatError(f"loop edge {a!r}-{a!r} is not allowed")
    return frozenset((a, b))


def edge_pair(e: frozenset[str]) -> tuple[str, str]:
    a, b = sorted(e)
    return a, b


class VertexBits(NamedTuple):
    """A graph's bitset view: bit i stands for `names[i]`."""

    names: tuple[str, ...]  # the vertex names, sorted
    position: Mapping[str, int]  # name -> bit position
    neighbours: tuple[int, ...]  # per position, the mask of its neighbours


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    @staticmethod
    def build(vertices=(), edges=()) -> "Graph":
        """Construct a graph; edge endpoints are declared implicitly.

        >>> g = Graph.build(edges=[("a", "b"), ("b", "c")])
        >>> g.vertices
        ('a', 'b', 'c')
        """
        vs = set(vertices)
        es = set()
        for e in edges:
            a, b = e
            es.add(edge_key(a, b))
            vs.add(a)
            vs.add(b)
        return Graph(tuple(sorted(vs)), frozenset(es))

    def edge_list(self) -> list[tuple[str, str]]:
        """Edges as sorted (a, b) pairs, a < b, in lexicographic order."""
        return sorted(edge_pair(e) for e in self.edges)

    def has_edge(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.edges

    def __reduce__(self):
        return Graph, (self.vertices, self.edges)

    @cached_property
    def _vertex_bits(self) -> VertexBits:
        names = tuple(sorted(self.vertices))
        position = dict(zip(names, range(len(names))))
        neighbours = [0] * len(names)
        for a, b in self.edges:
            i, j = position[a], position[b]
            neighbours[i] |= 1 << j
            neighbours[j] |= 1 << i
        return VertexBits(names, MappingProxyType(position), tuple(neighbours))

    @cached_property
    def _independence_number(self) -> int:
        return _independence_number(self._vertex_bits.neighbours)

    @cached_property
    def _independent_masks(self) -> tuple[int, ...]:
        return _bron_kerbosch(self)

    @cached_property
    def _maximal_independent_sets(self) -> tuple[frozenset[str], ...]:
        return _named_sets(self._vertex_bits.names, self._independent_masks)

    @cached_property
    def _minimal_vertex_covers(self) -> tuple[frozenset[str], ...]:
        verts = frozenset(self.vertices)
        return tuple(verts - s for s in reversed(maximal_independent_sets(self)))


def rewired(g: Graph, edges: frozenset[frozenset[str]], neighbours) -> Graph:
    """A graph on `g`'s vertices with `edges`, handed its bitset view
    instead of building one: `g`'s names and positions with
    `neighbours`, which must be the neighbour masks of `edges`."""
    out = Graph(g.vertices, edges)
    names, position, _ = vertex_bits(g)
    out.__dict__["_vertex_bits"] = VertexBits(names, position, tuple(neighbours))
    return out


def adjacency(g: Graph) -> Mapping[str, frozenset[str]]:
    """Read-only neighbour sets, named off the bitset view on each call."""
    names, _, neighbours = vertex_bits(g)
    width = f"0{len(names)}b"
    rows = (format(nb, width)[::-1].encode().translate(_SELECT) for nb in neighbours)
    return MappingProxyType(
        {v: frozenset(compress(names, row)) for v, row in zip(names, rows)}
    )


def vertex_bits(g: Graph) -> VertexBits:
    """The bitset view (names, positions, neighbour masks), memoized on
    the graph."""
    return g._vertex_bits


def bit_positions(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def degrees(g: Graph) -> dict[str, int]:
    return {v: len(nb) for v, nb in adjacency(g).items()}


def isolated_vertices(g: Graph) -> tuple[str, ...]:
    names, _, neighbours = vertex_bits(g)
    return tuple(v for v, nb in zip(names, neighbours) if not nb)


def pairs_graph(n: int) -> Graph:
    """The graph x1..xn, y1..yn with only the matching edges x_i y_i."""
    if n < 1:
        raise InputFormatError("pairs count must be positive")
    return Graph.build(edges=[(f"x{i}", f"y{i}") for i in range(1, n + 1)])


def induced_subgraph(g: Graph, w) -> Graph:
    """Restriction to a vertex subset: keeps exactly the edges inside it."""
    w = set(w)
    unknown = w - set(g.vertices)
    if unknown:
        raise InputFormatError(f"unknown vertices: {sorted(unknown)}")
    return Graph(tuple(sorted(w)), frozenset(e for e in g.edges if e <= w))


def remove_edges(g: Graph, f) -> Graph:
    """Drop a family of edges; the vertex set is unchanged."""
    gone = {edge_key(a, b) for a, b in f}
    return Graph(g.vertices, g.edges - gone)


def add_edges(g: Graph, f) -> Graph:
    """Add a family of edges between already declared vertices."""
    extra = set()
    known = set(g.vertices)
    for a, b in f:
        if a not in known or b not in known:
            raise InputFormatError(f"edge {a!r}-{b!r} uses an undeclared vertex")
        extra.add(edge_key(a, b))
    return Graph(g.vertices, g.edges | extra)


# binary digits to the 0/1 bytes that `itertools.compress` selects by
_SELECT = bytes.maketrans(b"01", b"\0\1")


def _named_sets(names, masks) -> tuple[frozenset[str], ...]:
    """An antichain of masks as name sets, ordered by their bit positions.

    Of two masks A and B of an antichain, A comes first exactly when the
    lowest bit of A ^ B is in A: below that bit they agree, and B must
    hold a higher bit, or it would lie inside A.  Written lowest bit
    first, A is then the larger string, so the sort is on the reversed
    binary strings, descending, and each string selects its names."""
    width = f"0{len(names)}b"
    rows = sorted((format(m, width)[::-1] for m in masks), reverse=True)
    return tuple(
        frozenset(compress(names, row.encode().translate(_SELECT))) for row in rows
    )


def _bron_kerbosch(g: Graph) -> tuple[int, ...]:
    """Maximal independent sets as masks, in no particular order: the
    maximal cliques of the complement graph, by Bron-Kerbosch with Tomita
    pivoting.  The pivot is the first vertex of P | X, in ascending bit
    order, with the most non-neighbours in P, except that the scan stops
    at the first vertex with popcount(P) - 1 or more: no vertex of P has
    more, and such a pivot leaves at most one vertex to branch on.  On a
    long sparse graph this ends most scans at once, where a full scan
    costs one popcount per vertex of P | X at every node.  An explicit
    stack replaces recursion, so the depth of the search is not bounded
    by the interpreter's stack."""
    neighbours = vertex_bits(g).neighbours
    full = (1 << len(neighbours)) - 1
    nonadj = [full & ~nb & ~(1 << i) for i, nb in enumerate(neighbours)]
    out: list[int] = []
    stack = [(0, full, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        pivot, best, rest = 0, -1, p | x
        enough = p.bit_count() - 1
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            count = (p & nonadj[u]).bit_count()
            if count > best:
                pivot, best = u, count
                if count >= enough:
                    break
            rest ^= low
        branch = p & ~nonadj[pivot]
        while branch:
            low = branch & -branch
            stay = nonadj[low.bit_length() - 1]
            stack.append((r | low, p & stay, x & stay))
            p ^= low
            x |= low
            branch ^= low
    return tuple(out)


def _independence_number(neighbours) -> int:
    """The size of a largest independent set, by reduce and branch on
    the neighbour masks (Tarjan-Trojanowski 1977), with an explicit stack.

    Reduce: a vertex with at most one neighbour left lies in some largest
    independent set of what is left, so it is taken and its neighbour
    dropped; after the first pass over every vertex, only the neighbours
    of a dropped vertex are looked at again.
    Bound: a state holding `size` vertices with `p` left to decide is cut
    when `size + popcount(p)` cannot beat the best found.  Branch: on the
    first vertex, in ascending bit order, of largest remaining degree,
    which is either dropped or taken together with dropping its
    neighbours."""
    best = 0
    stack = [((1 << len(neighbours)) - 1, 0)]
    while stack:
        p, size = stack.pop()
        work = p  # the vertices to look at, lowest bit first
        while work:
            low = work & -work
            work ^= low
            nb = neighbours[low.bit_length() - 1] & p
            if nb & (nb - 1):  # two or more neighbours left
                continue
            p ^= low | nb
            size += 1
            if nb:
                work = (work | neighbours[nb.bit_length() - 1]) & p
        if size + p.bit_count() <= best:
            continue
        if not p:
            best = size
            continue
        pivot, top = 0, -1
        for v in bit_positions(p):
            degree = (neighbours[v] & p).bit_count()
            if degree > top:
                pivot, top = v, degree
        stack.append((p & ~(1 << pivot | neighbours[pivot]), size + 1))
        stack.append((p & ~(1 << pivot), size))
    return best


def maximal_independent_sets(g: Graph) -> tuple[frozenset[str], ...]:
    """All inclusion-maximal independent sets, lexicographically ordered;
    enumerated once per graph."""
    return g._maximal_independent_sets


def minimal_vertex_covers(g: Graph) -> tuple[frozenset[str], ...]:
    """All inclusion-minimal vertex covers.

    These are exactly the complements of the maximal independent sets,
    which is also how they are computed (once per graph).
    """
    return g._minimal_vertex_covers


def height(g: Graph) -> int:
    """Minimum cardinality of a vertex cover (0 for edgeless graphs): the
    complement of a largest independent set, whose size is searched for
    directly on the neighbour masks (memoized on the graph), without
    enumerating the maximal independent sets."""
    return len(g.vertices) - g._independence_number


@dataclass(frozen=True)
class ClassMembership:
    vertex_count: int
    height: int
    has_isolated: bool
    in_class: bool

    def to_dict(self) -> dict:
        return asdict(self)


def classify(g: Graph) -> ClassMembership:
    """Decide membership in the supported class: nonempty, no isolated
    vertex, and minimum cover size equal to half the vertex count.

    Membership does not require unmixedness; that is checked separately.
    """
    n_vertices = len(g.vertices)
    h = height(g)
    isolated = 0 in vertex_bits(g).neighbours
    in_class = n_vertices > 0 and n_vertices == 2 * h and not isolated
    return ClassMembership(n_vertices, h, isolated, in_class)


def is_unmixed_bruteforce(g: Graph) -> Verdict:
    """True iff all minimal vertex covers share one cardinality.

    The certificate always carries the multiset of cover sizes; a false
    verdict adds the first cover of the smallest size and the last of the
    largest, in the covers' order (by sorted names).
    """
    covers = minimal_vertex_covers(g)
    sizes = sorted(len(c) for c in covers)
    if sizes[0] == sizes[-1]:
        return Verdict(True, "cover-sizes", {"cover_sizes": sizes})
    small = next(c for c in covers if len(c) == sizes[0])
    large = next(c for c in reversed(covers) if len(c) == sizes[-1])
    return Verdict(
        False,
        "cover-sizes",
        {
            "cover_sizes": sizes,
            "witness_small": sorted(small),
            "witness_large": sorted(large),
        },
    )


def iter_perfect_matchings(g: Graph):
    """Yield all perfect matchings by backtracking on the neighbour masks:
    the lowest uncovered bit is matched to each uncovered neighbour in
    ascending bit order.  Bit order is sorted-name order, so the pairs
    chosen down one branch come out sorted, and each matching is a sorted
    tuple of sorted pairs.  An explicit stack holds, per depth, the
    uncovered bits left after that depth's lowest one and the partners
    still to try, so depth is unbounded."""
    names, _, neighbours = vertex_bits(g)

    def choices(uncovered):
        low = uncovered & -uncovered
        v = low.bit_length() - 1
        return [uncovered ^ low, v, neighbours[v] & uncovered]

    if not names:
        yield ()
        return
    acc: list[tuple[str, str]] = []  # the pair chosen at each open depth
    stack = [choices((1 << len(names)) - 1)]
    while stack:
        top = stack[-1]
        rest, v, partners = top
        if not partners:
            stack.pop()
            if acc:
                acc.pop()
            continue
        low = partners & -partners
        top[2] = partners ^ low
        pair = (names[v], names[low.bit_length() - 1])
        rest ^= low
        if not rest:
            yield (*acc, pair)
            continue
        acc.append(pair)
        stack.append(choices(rest))


def lex_min_matching(g: Graph, left, right):
    """Lexicographically smallest matching of `left` into `right` that
    covers every vertex of `left`, along edges of `g`.

    Returns a dict, or None together with a deficient set
    (sorted S, sorted N(S)) violating Hall's condition when no such
    matching exists.

    A maximum matching is grown first, by augmenting paths from each
    left vertex in sorted order.  The left vertices are then fixed in
    sorted order, each to its smallest partner that still leaves a
    matching of the rest: giving l a partner r held by l' frees l's old
    partner, and r is possible exactly when an augmenting path leads
    from l' to a free right vertex without the partners already fixed.
    """
    adj, right, lefts = adjacency(g), frozenset(right), sorted(left)
    allowed = {l: sorted(adj[l] & right) for l in lefts}
    match_of_left: dict[str, str] = {}
    match_of_right: dict[str, str] = {}

    def augment(start, blocked) -> bool:
        """Depth-first search for an augmenting path from `start` that
        avoids `blocked`, trying partners in sorted order; the matching
        changes only when a path is found.  An explicit stack holds the
        left vertices of the path and the partners they still have to
        try, `path` the right vertex each one reached through."""
        seen: set[str] = set()
        stack = [(start, iter(allowed[start]))]
        path: list[str] = []
        while stack:
            options = stack[-1][1]
            r = next((r for r in options if r not in blocked and r not in seen), None)
            if r is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen.add(r)
            path.append(r)
            owner = match_of_right.get(r)
            if owner is None:
                for (l, _), r in zip(stack, path):
                    match_of_left[l] = r
                    match_of_right[r] = l
                return True
            stack.append((owner, iter(allowed[owner])))
        return False

    for l in lefts:
        augment(l, ())
    if len(match_of_left) < len(lefts):
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

    used: set[str] = set()
    for l in lefts:
        old = match_of_left[l]
        for r in allowed[l]:
            if r in used:
                continue
            owner = match_of_right.get(r)
            if owner == l:  # l keeps its partner
                break
            del match_of_right[old]  # l lets its partner go
            if owner is None:  # r was free: nothing else moves
                break
            del match_of_left[owner], match_of_right[r]
            if augment(owner, used | {r}):  # r's owner moves along a path
                break
            match_of_right[old] = l  # r is not possible: undo
            match_of_left[owner], match_of_right[r] = r, owner
        match_of_left[l], match_of_right[r] = r, l
        used.add(r)
    return {l: match_of_left[l] for l in lefts}, None
