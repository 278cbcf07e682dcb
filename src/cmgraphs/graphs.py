"""Finite simple graphs with exact enumeration of covers, independent sets
and perfect matchings.

Vertex names are opaque strings.  A `Graph` is its sorted vertex names
and one neighbour mask per vertex, where bit i of a mask stands for
`vertices[i]`; equality, hashing, repr and pickling see those two fields
only.  `Graph.build` makes a graph from named edges, `Graph(vertices,
neighbours)` from masks, as deformations and census members are made.
The masks are the graph's one adjacency: `position` (name to bit),
`edges`, `edge_list` and `has_edge` are views of them, and `adjacency`
names its neighbour sets off them on each call.  Every enumeration
returns a fixed deterministic order (lexicographic on sorted vertex
names) so reports and golden files are byte-stable.

A `Graph` is immutable, so the facts every analysis needs (the views
above, the independence number, the class membership, the maximal
independent sets, their count by size, the minimal vertex covers) are
computed on first use and memoized on that instance by `memoized`, a
descriptor that stores each value in the instance `__dict__`, as
`functools.cached_property` does but without its lock.  The memo holds
only immutable values and dies with the graph.

The one perfect-matching backtracker, `walk_perfect_matchings`, runs
on neighbour masks and yields bit positions: route d walks a labeling's
X-Y masks, and `iter_perfect_matchings` names a whole graph's matchings.
The height and class membership read only the neighbour masks: the
independence number comes from an exact reduce-and-branch search, so
deciding membership lists no independent set, and `classify` reads the
membership memo.  One caller outside this module writes that memo: the
census sweep gives a deformation whose masks pass its labeling's check
the draw's membership, which that check proves, so a census draw runs
one independence search.  The maximal independent sets are enumerated
only when the sets themselves are asked for (the labeling's cover,
complexes, invariants, the cover-shape check, and brute-force
unmixedness on a small or mixed graph), once per graph, as masks: one
iterative pivoted Bron-Kerbosch search per connected component, with an
explicit stack and a pivot scan that stops at the first vertex that
leaves at most one branch, and the components' sets joined as a
product.  The sets form an antichain, whose order by sorted names is
decided by the lowest bit in which two masks differ; `name_order` is
that order, the one place it is kept: a C-level sort of the masks'
binary strings, read lowest bit first, that walks no mask bit by bit.
The independence complex takes the masks in that order and names none;
`maximal_independent_sets` names them, once, for the callers that read
sets by name: the labeling's X, the invariants, and brute force's
witnesses on a mixed graph.

The minimal vertex covers are the complements of those sets;
complementing flips the lowest differing bit, so the covers' order is
the sets' order reversed.  So a cover's size is |V| minus its set's.
Brute-force unmixedness needs the sizes only.  On a graph with more than
`SIZE_COUNT_ABOVE` vertices whose sets are not listed yet it counts them
by size, memoized per graph: the same pivoted search per component, with
each distinct (candidates, excluded) subproblem expanded once, since the
sets below a node depend on that pair alone, and its count by size kept
as a polynomial packed in one int.  An unmixed graph then has no set
listed.  Otherwise brute force reads the sizes as popcounts of the
masks, so an unmixed graph has no set named; a mixed one names the sets
to report its two witnesses.  A labeling whose structural scan finds it
mixed has the masks listed before brute force runs
(`criteria._crosschecked_unmixed`), so its graph is listed, not
counted.  The labeling's X, the first cover of size n, is read off the
named sets; the cover-shape check tests the masks and names just the
cover it reports.  `minimal_vertex_covers` names every cover, for
callers that read covers by name.
"""

from dataclasses import asdict, dataclass
from itertools import compress
from types import MappingProxyType
from typing import Mapping

from .errors import InputFormatError
from .verdicts import Verdict

# Brute-force unmixedness counts the maximal independent sets of a graph
# with more vertices than this by size, without listing them, unless they
# are listed already.  At or below it the count costs about as much as
# the listing, and the census lists each member's sets for its other
# checks anyway.
SIZE_COUNT_ABOVE = 10


class memoized:
    """A value computed on first read and stored in the instance
    `__dict__` under the attribute's name, where later reads find it
    without calling the function again.  Nothing is stored when the
    function raises, and the function is `.func`.

    It is `functools.cached_property` without the lock that Python 3.11
    takes on every first read (1.1 µs a read against 0.38 µs, measured on
    a 2-core machine); 3.12 dropped that lock, and the census fans out to
    processes, not threads.
    """

    def __init__(self, func, name=None):
        self.func = func
        self.name = name or func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]  # sorted; bit i stands for vertices[i]
    neighbours: tuple[int, ...]  # per vertex, the mask of its neighbours

    @staticmethod
    def build(vertices=(), edges=()) -> "Graph":
        """Construct a graph from named edges, each a pair of names;
        edge endpoints are declared implicitly and loops are rejected.

        >>> g = Graph.build(edges=[("a", "b"), ("b", "c")])
        >>> g.vertices
        ('a', 'b', 'c')
        """
        vs = set(vertices)
        ends = []
        for a, b in edges:
            if a == b:
                raise InputFormatError(f"loop edge {a!r}-{a!r} is not allowed")
            ends.append((a, b))
            vs.add(a)
            vs.add(b)
        names = tuple(sorted(vs))
        position = dict(zip(names, range(len(names))))
        neighbours = [0] * len(names)
        for a, b in ends:
            i, j = position[a], position[b]
            neighbours[i] |= 1 << j
            neighbours[j] |= 1 << i
        return Graph(names, tuple(neighbours))

    @memoized
    def position(self) -> Mapping[str, int]:
        """Read-only map from each vertex name to its bit position."""
        return MappingProxyType(dict(zip(self.vertices, range(len(self.vertices)))))

    @memoized
    def edges(self) -> frozenset[frozenset[str]]:
        """The edges as unordered name pairs."""
        return frozenset(map(frozenset, self.edge_list()))

    def edge_list(self) -> list[tuple[str, str]]:
        """Edges as sorted (a, b) pairs, a < b, in lexicographic order:
        the names are sorted, so the order of the bit pairs is theirs."""
        names = self.vertices
        return [
            (names[i], names[j])
            for i, nb in enumerate(self.neighbours)
            for j in bit_positions(nb >> (i + 1) << (i + 1))
        ]

    def has_edge(self, a: str, b: str) -> bool:
        i, j = self.position.get(a), self.position.get(b)
        return i is not None and j is not None and bool(self.neighbours[i] >> j & 1)

    def __reduce__(self):
        return Graph, (self.vertices, self.neighbours)

    @memoized
    def _independence_number(self) -> int:
        return _independence_number(self.neighbours)

    @memoized
    def _membership(self) -> "ClassMembership":
        n_vertices = len(self.vertices)
        h = height(self)
        isolated = 0 in self.neighbours
        in_class = n_vertices > 0 and n_vertices == 2 * h and not isolated
        return ClassMembership(n_vertices, h, isolated, in_class)

    @memoized
    def _independent_masks(self) -> tuple[int, ...]:
        return _bron_kerbosch(self)

    @memoized
    def _set_size_counts(self) -> tuple[tuple[int, int], ...]:
        return _count_by_size(self.neighbours)

    @memoized
    def _maximal_independent_sets(self) -> tuple[frozenset[str], ...]:
        return spelled(self.vertices, name_order(self._independent_masks))

    @memoized
    def _minimal_vertex_covers(self) -> tuple[frozenset[str], ...]:
        verts = frozenset(self.vertices)
        return tuple(verts - s for s in reversed(maximal_independent_sets(self)))


def adjacency(g: Graph) -> Mapping[str, frozenset[str]]:
    """Read-only neighbour sets, named off the neighbour masks on each call."""
    return MappingProxyType(dict(zip(g.vertices, spelled(g.vertices, g.neighbours))))


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
    return tuple(v for v, nb in zip(g.vertices, g.neighbours) if not nb)


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
    return Graph.build(w, (e for e in g.edges if e <= w))


def remove_edges(g: Graph, f) -> Graph:
    """Drop a family of edges; the vertex set is unchanged."""
    gone = Graph.build(edges=f).edges
    return Graph.build(g.vertices, g.edges - gone)


def add_edges(g: Graph, f) -> Graph:
    """Add a family of edges between already declared vertices."""
    extra = []
    known = set(g.vertices)
    for a, b in f:
        if a not in known or b not in known:
            raise InputFormatError(f"edge {a!r}-{b!r} uses an undeclared vertex")
        extra.append((a, b))
    return Graph.build(g.vertices, [*g.edge_list(), *extra])


# binary digits to the 0/1 bytes that `itertools.compress` selects by
_SELECT = bytes.maketrans(b"01", b"\0\1")


def _low_first(mask: int) -> str:
    """A mask's binary digits read lowest bit first: `bin` less its
    "0b", reversed."""
    return bin(mask)[:1:-1]


def name_order(masks) -> list[int]:
    """An antichain of masks in the order of their sorted names, where
    bit i stands for the i-th name.

    Of two masks A and B of an antichain, A comes first exactly when the
    lowest bit of A ^ B is in A: below that bit they agree, and B must
    hold a higher bit, or it would lie inside A.  Written lowest bit
    first, both strings reach that bit and A's is the larger there, so
    the sort is on those strings, descending."""
    return sorted(masks, key=_low_first, reverse=True)


def selected(items, mask: int):
    """The items at the set bits of `mask`, in bit order, picked in C: the
    mask's digits read lowest bit first select them."""
    return compress(items, _low_first(mask).encode().translate(_SELECT))


def spelled(names, masks) -> tuple[frozenset[str], ...]:
    """Each mask, in the order given, as the set of the names its bits
    stand for."""
    return tuple(frozenset(selected(names, m)) for m in masks)


def _bron_kerbosch(g: Graph) -> tuple[int, ...]:
    """Maximal independent sets as masks, in no particular order, each
    once.  A maximal independent set of a graph is one maximal
    independent set of each connected component, joined, so the search
    runs once per component and the results are combined as a product:
    one set per component, OR-ed together.  A connected graph returns
    its one search as it is, and a graph with no vertex its one empty
    set.  A bare matching of n pairs takes n searches of two sets each,
    where one search over the whole graph walks a tree with 2**n leaves."""
    neighbours = g.neighbours
    nonadj = _non_neighbours(neighbours)
    parts = [_pivoted_search(nonadj, c) for c in _components(neighbours)]
    out = parts[0] if parts else [0]
    for sets in parts[1:]:
        out = [a | b for a in out for b in sets]
    return tuple(out)


def _count_by_size(neighbours) -> tuple[tuple[int, int], ...]:
    """The number of maximal independent sets of each size, as (size,
    count) pairs by ascending size, with no set listed.

    The counts are held as a lowest size and one int, a polynomial in
    2**w for the digit width w = |V| + 1: the count of sets of size
    lowest + s is the digit at bit s * w.  A graph has at most 2**|V|
    maximal independent sets, fewer than 2**w, so no digit carries into
    the next.
    A maximal independent set is one of each connected component, so the
    components' lowest sizes add and their polynomials multiply, and a
    graph with no vertex has its one empty set."""
    width = len(neighbours) + 1
    nonadj = _non_neighbours(neighbours)
    lowest, poly = 0, 1
    for c in _components(neighbours):
        low, part = _counted_search(neighbours, nonadj, c, width)
        lowest, poly = lowest + low, poly * part
    digit = (1 << width) - 1
    out = []
    while poly:
        s = ((poly & -poly).bit_length() - 1) // width
        count = poly >> s * width & digit
        out.append((lowest + s, count))
        poly ^= count << s * width
    return tuple(out)


def _non_neighbours(neighbours) -> list[int]:
    """Per vertex, the mask of the other vertices it is not adjacent to:
    its neighbours in the complement graph."""
    full = (1 << len(neighbours)) - 1
    return [full & ~nb & ~(1 << i) for i, nb in enumerate(neighbours)]


def _components(neighbours) -> list[int]:
    """The connected components as masks, in the order of their lowest
    bits.  Each vertex enters one frontier once, so a connected graph is
    scanned in one pass."""
    out = []
    rest = (1 << len(neighbours)) - 1
    while rest:
        component = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = neighbours[low.bit_length() - 1] & ~component
            component |= new
            frontier |= new
        out.append(component)
        rest ^= component
    return out


def _pivot(nonadj, p: int, x: int) -> int:
    """The Tomita pivot of a Bron-Kerbosch node with candidates P and
    excluded X: the first vertex of P | X, in ascending bit order, with
    the most non-neighbours in P, except that the scan stops at the first
    vertex with popcount(P) - 1 or more: no vertex of P has more, and
    such a pivot leaves at most one vertex to branch on.  On a long
    sparse graph this ends most scans at once, where a full scan costs
    one popcount per vertex of P | X at every node."""
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
    return pivot


def _pivoted_search(nonadj, component: int) -> list[int]:
    """The maximal independent sets inside `component`, as masks:
    the maximal cliques of the complement graph, by Bron-Kerbosch with
    Tomita pivoting (`_pivot`).  An explicit stack replaces recursion, so
    the depth of the search is not bounded by the interpreter's stack."""
    out: list[int] = []
    stack = [(0, component, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        branch = p & ~nonadj[_pivot(nonadj, p, x)]
        while branch:
            low = branch & -branch
            stay = nonadj[low.bit_length() - 1]
            stack.append((r | low, p & stay, x & stay))
            p ^= low
            x |= low
            branch ^= low
    return out


def _counted_search(neighbours, nonadj, component: int, width: int):
    """The lowest size and the size polynomial (`_count_by_size`) of the
    maximal independent sets inside `component`, by `_pivoted_search`'s
    search with each subproblem expanded once.  The sets found below a
    node depend only on its candidates P and excluded X, not on the set
    above it, so the polynomial of each distinct (P, X) is kept, and a
    node's is the sum of its children's, each one size up for the vertex
    it adds.  A polynomial starts at its own lowest size, so a node with
    one size below it holds one digit, however deep it lies.  When the
    pivot is a vertex of P with no neighbour in P, every such vertex lies
    in every set below, so they are added in one step, and X keeps only
    the vertices adjacent to none of them.  Post-order on an explicit
    stack: a node is expanded when first seen and summed when seen again,
    after its children."""
    memo: dict[tuple[int, int], tuple[int, int]] = {}
    pending: dict[tuple[int, int], tuple[int, list]] = {}
    stack = [(component, 0)]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        if key in pending:
            stack.pop()
            added, children = pending.pop(key)
            found = [memo[c] for c in children if memo[c][1]]
            base = min(size for size, _ in found) if found else 0
            memo[key] = base + added, sum(
                poly << (size - base) * width for size, poly in found
            )
            continue
        p, x = key
        if not p:
            stack.pop()
            memo[key] = 0, 0 if x else 1
            continue
        pivot = _pivot(nonadj, p, x)
        if p >> pivot & 1 and not neighbours[pivot] & p:
            alone = 0
            for v in bit_positions(p):
                if not neighbours[v] & p:
                    alone |= 1 << v
                    x &= ~neighbours[v]
            children = [(p ^ alone, x)]
            added = alone.bit_count()
        else:
            children = []
            branch = p & ~nonadj[pivot]
            while branch:
                low = branch & -branch
                stay = nonadj[low.bit_length() - 1]
                children.append((p & stay, x & stay))
                p ^= low
                x |= low
                branch ^= low
            added = 1
        pending[key] = (added, children)
        stack.extend(c for c in children if c not in memo)
    return memo[(component, 0)]


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
    It is decided once per graph and memoized on it.
    """
    return g._membership


def is_unmixed_bruteforce(g: Graph) -> Verdict:
    """True iff all minimal vertex covers share one cardinality.

    The certificate always carries the multiset of cover sizes; a false
    verdict adds the first cover of the smallest size and the last of the
    largest, in the covers' order (by sorted names).  The covers are the
    complements of the maximal independent sets, in reverse order, so a
    cover's size is |V| minus its set's.

    A graph with more than `SIZE_COUNT_ABOVE` vertices whose sets are not
    listed yet has them counted by size (`_count_by_size`); if they share
    one size, the graph is unmixed and no set is listed or named.
    Otherwise the sizes are popcounts of the listed masks, so an unmixed
    graph still has no set named, and a mixed one names its sets to take
    the two witnesses: the complement of the last largest set and that of
    the first smallest one.
    """
    k = len(g.vertices)
    if k > SIZE_COUNT_ABOVE and "_independent_masks" not in vars(g):
        counts = g._set_size_counts
        if len(counts) == 1:
            [(size, count)] = counts
            return Verdict(True, "cover-sizes", {"cover_sizes": [k - size] * count})
    sizes = sorted(k - m.bit_count() for m in g._independent_masks)
    if sizes[0] == sizes[-1]:
        return Verdict(True, "cover-sizes", {"cover_sizes": sizes})
    sets = maximal_independent_sets(g)
    largest = next(s for s in reversed(sets) if len(s) == k - sizes[0])
    smallest = next(s for s in sets if len(s) == k - sizes[-1])
    verts = frozenset(g.vertices)
    return Verdict(
        False,
        "cover-sizes",
        {
            "cover_sizes": sizes,
            "witness_small": sorted(verts - largest),
            "witness_large": sorted(verts - smallest),
        },
    )


def iter_perfect_matchings(g: Graph):
    """`walk_perfect_matchings` on the neighbour masks, named: bit order is
    name order, so each matching is a sorted tuple of sorted pairs."""
    names = g.vertices
    for matching in walk_perfect_matchings(g.neighbours):
        yield tuple((names[v], names[u]) for v, u in matching)


def walk_perfect_matchings(neighbours):
    """Yield all perfect matchings of the graph with these neighbour
    masks, each as a tuple of (v, u) bit positions, v < u, ascending in v:
    the one perfect-matching backtracker.  The lowest uncovered bit is
    matched to each uncovered neighbour in ascending bit order.  An
    explicit stack holds, per depth, the uncovered bits left after that
    depth's lowest one and the partners still to try, so depth is
    unbounded."""

    def choices(uncovered):
        low = uncovered & -uncovered
        v = low.bit_length() - 1
        return [uncovered ^ low, v, neighbours[v] & uncovered]

    if not neighbours:
        yield ()
        return
    acc: list[tuple[int, int]] = []  # the pair chosen at each open depth
    stack = [choices((1 << len(neighbours)) - 1)]
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
        pair = (v, low.bit_length() - 1)
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
