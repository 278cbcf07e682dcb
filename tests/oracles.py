"""Definitional brute-force oracles used to derive expected values.

The oracles work on raw (vertices, edges) data and iterate over all
subsets, straight from the definitions; nothing is shared with the package
implementation.  Only usable at desk scale.

The `*_def` references keep earlier, simpler implementations that the
package replaced, and tests compare the two: the recursive frozenset
Bron-Kerbosch enumerator, dense Gauss-Jordan ranks over F_p and Q,
strong connectivity by testing every facet pair, pair relations probed
pair by pair with `has_edge`, as the package did before a labeling
memoized them as masks, the labeling validator on adjacency name sets, every
labeling by a matching search of its own per minimum cover, the
recursive perfect-matching backtracker and lexicographic matcher, and
route e's walk that deforms and checks every subset it is given.  The
`*_named` references keep routes b and c as they ran on named frozensets
before the complex kept its facets as masks.
"""

import itertools
import random
from collections import deque
from fractions import Fraction

import cmgraphs.criteria as criteria
from cmgraphs.complexes import SHELLING_FACET_CAP
from cmgraphs.errors import CapacityError, PreconditionError
from cmgraphs.graphs import (
    Graph,
    adjacency,
    classify,
    is_unmixed_bruteforce,
    minimal_vertex_covers,
)
from cmgraphs.pairing import CycleWitness, PairedLabeling
from cmgraphs.verdicts import Verdict


def is_cover_def(edges, s):
    s = set(s)
    return all(a in s or b in s for a, b in edges)


def is_independent_def(edges, s):
    s = set(s)
    return all(not (a in s and b in s) for a, b in edges)


def all_subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def brute_minimal_covers(vertices, edges):
    covers = [set(s) for s in all_subsets(vertices) if is_cover_def(edges, s)]
    minimal = [
        c for c in covers if not any(other < c for other in covers)
    ]
    return sorted({frozenset(c) for c in minimal}, key=lambda c: tuple(sorted(c)))


def brute_maximal_independents(vertices, edges):
    indep = [
        set(s) for s in all_subsets(vertices) if is_independent_def(edges, s)
    ]
    maximal = [a for a in indep if not any(a < other for other in indep)]
    return sorted({frozenset(a) for a in maximal}, key=lambda a: tuple(sorted(a)))


def maximal_independent_sets_def(g):
    """Bron-Kerbosch with pivoting on frozensets of names, recursive:
    an independent set of g is a clique of the complement graph.  The
    pivot is the first vertex of P | X, in sorted order, with the most
    non-neighbours in P; the sets come back sorted by their sorted names."""
    adj = adjacency(g)
    verts = frozenset(g.vertices)
    nonadj = {v: verts - adj[v] - {v} for v in verts}
    out = []

    def extend(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & nonadj[u]))
        for v in sorted(p - nonadj[pivot]):
            extend(r | {v}, p & nonadj[v], x & nonadj[v])
            p = p - {v}
            x = x | {v}

    extend(frozenset(), verts, frozenset())
    return tuple(sorted(out, key=lambda s: tuple(sorted(s))))


def brute_height(vertices, edges):
    """The smallest size of a vertex cover, trying subsets by size."""
    return next(len(s) for s in all_subsets(vertices) if is_cover_def(edges, s))


def brute_perfect_matchings(vertices, edges):
    """All edge subsets that partition the vertex set into pairs."""
    vertices = set(vertices)
    out = []
    for subset in all_subsets(edges):
        touched = [v for e in subset for v in e]
        if len(touched) == len(set(touched)) and set(touched) == vertices:
            out.append(tuple(sorted(tuple(sorted(e)) for e in subset)))
    return sorted(out)


def iter_perfect_matchings_def(g):
    """Perfect matchings by recursive backtracking on the smallest
    uncovered vertex; each is a sorted tuple of sorted pairs."""
    adj = adjacency(g)

    def rec(uncovered, acc):
        if not uncovered:
            yield tuple(sorted(acc))
            return
        v = min(uncovered)
        for w in sorted(adj[v]):
            if w in uncovered:
                acc.append((min(v, w), max(v, w)))
                yield from rec(uncovered - {v, w}, acc)
                acc.pop()

    yield from rec(frozenset(g.vertices), [])


def lex_min_matching_def(g, left, right):
    """The lexicographically smallest matching of `left` into `right`,
    each feasibility test a maximum matching grown by recursive augmenting
    paths; None and Hall's deficient set (sorted S, sorted N(S)) when no
    matching covers `left`."""
    adj, right, lefts = adjacency(g), frozenset(right), sorted(left)
    allowed = {l: adj[l] & right for l in lefts}

    def max_matching(lefts, used_right):
        match_of_left, match_of_right = {}, {}

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

        for l in lefts:
            augment(l, set())
        return match_of_left, match_of_right

    match_of_left, match_of_right = max_matching(lefts, set())
    if len(match_of_left) < len(lefts):
        start = next(l for l in lefts if l not in match_of_left)
        s, ns, frontier = {start}, set(), [start]
        while frontier:
            for r in allowed[frontier.pop()]:
                if r not in ns:
                    ns.add(r)
                    owner = match_of_right.get(r)
                    if owner is not None and owner not in s:
                        s.add(owner)
                        frontier.append(owner)
        return None, (sorted(s), sorted(ns))
    chosen, used = {}, set()
    for pos, l in enumerate(lefts):
        rest = lefts[pos + 1:]
        for r in sorted(allowed[l]):
            if r not in used and len(max_matching(rest, used | {r})[0]) == len(rest):
                chosen[l] = r
                used.add(r)
                break
    return chosen, None


def brute_is_unmixed(vertices, edges):
    sizes = {len(c) for c in brute_minimal_covers(vertices, edges)}
    return len(sizes) <= 1


def rank_rational_def(rows):
    """Rank over Q by Gauss-Jordan elimination in Fraction arithmetic."""
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(a) for a in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        piv = m[rank][col]
        m[rank] = [a / piv for a in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank_mod_p_def(rows, p):
    """Rank of a dense integer matrix over F_p (p prime, 2 included) by
    Gauss-Jordan elimination."""
    if not rows or not rows[0]:
        return 0
    m = [[a % p for a in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(a * inv) % p for a in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def is_strongly_connected_def(c):
    """Strong connectivity with facets adjacent when every pair is tested
    for a codimension-one intersection; a BFS from facet 0 gives the
    chain, further BFS runs the other components."""
    sizes = sorted(len(f) for f in c.facets)
    if len(set(sizes)) > 1:
        raise PreconditionError(
            "strong connectedness is defined for pure complexes only",
            witness={"facet_sizes": sizes},
        )
    m = len(c.facets)
    if m <= 1:
        chain = [sorted(f) for f in c.facets]
        return Verdict(True, "facet-chain", {"chain": chain})
    k = len(c.facets[0])
    adj = {i: [] for i in range(m)}
    for i, j in itertools.combinations(range(m), 2):
        if len(c.facets[i] & c.facets[j]) == k - 1:
            adj[i].append(j)
            adj[j].append(i)
    parent = {0: None}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if j not in parent:
                parent[j] = i
                queue.append(j)
    if len(parent) < m:
        seen = set(parent)
        components = [sorted(seen)]
        rest = [i for i in range(m) if i not in seen]
        while rest:
            comp = {rest[0]}
            queue = deque([rest[0]])
            while queue:
                i = queue.popleft()
                for j in adj[i]:
                    if j not in comp:
                        comp.add(j)
                        queue.append(j)
            components.append(sorted(comp))
            rest = [i for i in rest if i not in comp]
        return Verdict(
            False,
            "facet-chain",
            {
                "components": [
                    [sorted(c.facets[i]) for i in comp] for comp in components
                ]
            },
        )
    path = [m - 1]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return Verdict(
        True, "facet-chain", {"chain": [sorted(c.facets[i]) for i in path]}
    )


def _require_pure_named(c, op):
    sizes = sorted(len(f) for f in c.facets)
    if len(set(sizes)) > 1:
        raise PreconditionError(
            f"{op} is defined for pure complexes only",
            witness={"facet_sizes": sizes},
        )


def is_strongly_connected_named(c):
    """Strong connectivity with ridges as named frozensets: each ridge
    f - {v} lists the facets that hold it, and a breadth-first search from
    each unvisited facet visits neighbours in ascending index order."""
    _require_pure_named(c, "strong connectedness")
    m = len(c.facets)
    if m <= 1:
        chain = [sorted(f) for f in c.facets]
        return Verdict(True, "facet-chain", {"chain": chain})
    ridges = {}
    for i, f in enumerate(c.facets):
        for v in f:
            ridges.setdefault(f - {v}, []).append(i)
    parent = {}
    components = []
    for root in range(m):
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for i in queue:
            f = c.facets[i]
            for j in sorted({k for v in f for k in ridges[f - {v}]} - {i}):
                if j not in parent:
                    parent[j] = i
                    queue.append(j)
        components.append(sorted(queue))
    if len(components) > 1:
        return Verdict(
            False,
            "facet-chain",
            {
                "components": [
                    [sorted(c.facets[i]) for i in comp] for comp in components
                ]
            },
        )
    path = [m - 1]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return Verdict(
        True, "facet-chain", {"chain": [sorted(c.facets[i]) for i in path]}
    )


def find_shelling_named(c):
    """The backtracking shelling search on named frozensets: a table of
    differences F_i - F_j, the single-vertex ones as names, and dead
    states keyed by the frozenset of placed indices."""
    _require_pure_named(c, "shelling")
    facets = list(c.facets)
    m = len(facets)
    if m > SHELLING_FACET_CAP:
        raise CapacityError(
            f"{m} facets exceed the shelling search bound {SHELLING_FACET_CAP}"
        )
    if m <= 1:
        return facets
    diff = [[fi - fj for fj in facets] for fi in facets]
    single = [
        [next(iter(d)) if len(d) == 1 else None for d in row] for row in diff
    ]
    dead = set()

    def attachable(i, placed):
        glue = {single[i][k] for k in placed if single[i][k] is not None}
        if not glue:
            return False
        return all(glue & diff[i][j] for j in placed)

    order = []

    def search(placed_set):
        if len(order) == m:
            return True
        if placed_set in dead:
            return False
        for i in range(m):
            if i in placed_set:
                continue
            if order and not attachable(i, order):
                continue
            order.append(i)
            if search(placed_set | {i}):
                return True
            order.pop()
        dead.add(placed_set)
        return False

    if search(frozenset()):
        return [facets[i] for i in order]
    return None


def check_shelling_named(c, order):
    """A shelling order by the definition on named frozensets: for every
    i and j < i, some v in F_i - F_j has F_i - F_k = {v} for some k < i."""
    facets = [frozenset(f) for f in order]
    if sorted(facets, key=lambda f: tuple(sorted(f))) != list(c.facets):
        return False
    for i in range(1, len(facets)):
        for j in range(i):
            ok = any(
                any(facets[i] - facets[k] == {v} for k in range(i))
                for v in facets[i] - facets[j]
            )
            if not ok:
                return False
    return True


def structural_scan_def(pl):
    """Both unmixedness pair conditions, every ordered pair then triple."""
    g, n = pl.graph, pl.n
    for i, j in itertools.permutations(range(1, n + 1), 2):
        if g.has_edge(pl.x(i), pl.y(j)) and g.has_edge(pl.x(i), pl.x(j)):
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
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        for z in (pl.x(i), pl.y(i)):
            if (
                g.has_edge(z, pl.x(j))
                and g.has_edge(pl.y(j), pl.x(k))
                and not g.has_edge(z, pl.x(k))
            ):
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


def find_cycle_def(pl, max_r=None):
    """Shortest alternating cycle, searched over the link arcs y_i x_j."""
    g, n = pl.graph, pl.n
    arcs = {
        i: [j for j in range(1, n + 1) if j != i and g.has_edge(pl.y(i), pl.x(j))]
        for i in range(1, n + 1)
    }
    limit = n if max_r is None else min(max_r, n)

    def extend(seq, used, r):
        last = seq[-1]
        if len(seq) == r:
            return list(seq) if seq[0] in arcs[last] else None
        for nxt in arcs[last]:
            if nxt > seq[0] and nxt not in used:
                found = extend(seq + [nxt], used | {nxt}, r)
                if found:
                    return found
        return None

    for r in range(2, limit + 1):
        for start in range(1, n + 1):
            found = extend([start], {start}, r)
            if found:
                return CycleWitness(tuple(found))
    return None


def relabel_for_double_star_def(pl):
    """Antisymmetry, then transitivity over every pair of related pairs,
    then the smallest topological order by x name."""
    g, n = pl.graph, pl.n
    rel = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if g.has_edge(pl.x(i), pl.y(j))
    }
    for i, j in sorted(rel):
        if i != j and (j, i) in rel:
            raise PreconditionError(
                f"antisymmetry fails: both cross edges between pairs {i} "
                f"and {j} are present",
                witness={"antisymmetry": [i, j]},
            )
    for (i, j), (j2, k) in itertools.product(sorted(rel), repeat=2):
        if j == j2 and i != j and j != k and i != k and (i, k) not in rel:
            raise PreconditionError(
                f"transitivity fails on pairs ({i}, {j}, {k})",
                witness={"transitivity": [i, j, k]},
            )
    succ = {i: {j for (i2, j) in rel if i2 == i and j != i} for i in range(1, n + 1)}
    pred_count = {i: 0 for i in range(1, n + 1)}
    for i in succ:
        for j in succ[i]:
            pred_count[j] += 1
    available = sorted(
        (i for i in range(1, n + 1) if pred_count[i] == 0), key=lambda i: pl.x(i)
    )
    order = []
    while available:
        i = available.pop(0)
        order.append(i)
        for j in sorted(succ[i]):
            pred_count[j] -= 1
            if pred_count[j] == 0:
                available.append(j)
        available.sort(key=lambda k: pl.x(k))
    return PairedLabeling(g, tuple(pl.pairs[i - 1] for i in order))


def validate_labeling_def(pl):
    """Every labeling invariant, read off the adjacency name sets."""
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


def relations_def(pl):
    """The pair relations probed pair by pair with `has_edge`: per pair i,
    the masks with bit j for each pair j != i with x_i y_j (cross), y_i
    x_j (links) or x_i x_j (cover) an edge; entry 0 is 0."""
    g, n = pl.graph, pl.n

    def related(a, b):
        return (0,) + tuple(
            sum(1 << j for j in range(1, n + 1) if j != i and g.has_edge(a(i), b(j)))
            for i in range(1, n + 1)
        )

    return related(pl.x, pl.y), related(pl.y, pl.x), related(pl.x, pl.x)


def satisfies_double_star_def(pl):
    g = pl.graph
    return all(
        i <= j
        for i in range(1, pl.n + 1)
        for j in range(1, pl.n + 1)
        if g.has_edge(pl.x(i), pl.y(j))
    )


def o_set_def(pl, t):
    """The rewiring operator applied pair by pair, each on the graph the
    previous one left."""
    g = pl.graph
    for i in sorted(set(t)):
        moved = [
            k for k in range(1, pl.n + 1) if k != i and g.has_edge(pl.x(k), pl.y(i))
        ]
        edges = set(g.edges)
        edges -= {frozenset((pl.x(k), pl.y(i))) for k in moved}
        edges |= {frozenset((pl.x(k), pl.x(i))) for k in moved}
        g = Graph.build(g.vertices, edges)
    return g


def route_e_def(pl):
    """Route e walking every subset: each one is deformed pair by pair
    and checked by brute force, up to the first mixed deformation; the
    subset cap is read when called, so a patched cap applies here too."""
    n = pl.n
    if n <= criteria.DEFORMATION_SUBSET_CAP:
        subsets = [
            t for size in range(n + 1)
            for t in itertools.combinations(range(1, n + 1), size)
        ]
        exhaustive = True
    else:
        rng = random.Random(0)
        subsets = [
            tuple(i for i in range(1, n + 1) if rng.random() < 0.5)
            for _ in range(256)
        ]
        exhaustive = False
    name = criteria.ROUTE_NAMES["e"]
    for t in subsets:
        verdict = is_unmixed_bruteforce(o_set_def(pl, t))
        if not verdict.value:
            return Verdict(
                False, name, {"subset": list(t), "deformed": verdict.certificate}
            )
    if exhaustive:
        return Verdict(True, name, {"subsets_checked": len(subsets)})
    return Verdict(None, name, {"subsets_sampled": len(subsets)})


def all_star_labelings_def(g):
    """Per minimum cover X, in cover order, every matching of X into
    V - X by recursion over the sorted x names."""
    membership = classify(g)
    if not membership.in_class:
        return
    n = membership.height
    adj = adjacency(g)
    for cover in minimal_vertex_covers(g):
        if len(cover) != n:
            continue
        y_set = frozenset(g.vertices) - cover
        xs = sorted(cover)

        def rec(pos, used, acc):
            if pos == len(xs):
                yield tuple(sorted(acc))
                return
            x = xs[pos]
            for y in sorted(adj[x] & y_set):
                if y not in used:
                    yield from rec(pos + 1, used | {y}, acc + [(x, y)])

        for pairs in rec(0, frozenset(), []):
            yield PairedLabeling(g, pairs)
