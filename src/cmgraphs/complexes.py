"""Simplicial complexes as facet lists: the independence complex of a
graph, purity, strong connectedness, shellability, and exact reduced
homology backing a Cohen-Macaulayness oracle.

Dimension conventions: dim F = |F| - 1, so the empty face has dimension
-1 and the complex whose only facet is the empty face has dimension -1.
"""

from dataclasses import dataclass

from .errors import CapacityError, InputFormatError, PreconditionError
from .graphs import Graph, maximal_independent_sets
from .linalg import rank_mod_p, rank_rational
from .verdicts import Verdict

SHELLING_FACET_CAP = 20
HOMOLOGY_FACE_CAP = 4096


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple[str, ...]
    facets: tuple[frozenset[str], ...]  # inclusion-incomparable, sorted

    @staticmethod
    def from_facets(faces, vertices=None) -> "SimplicialComplex":
        """Keep only the inclusion-maximal faces; vertices default to
        their union.  Declared vertices must all appear in some facet."""
        fs = {frozenset(f) for f in faces}
        facets = [f for f in fs if not any(f < g for g in fs)]
        facets.sort(key=lambda f: tuple(sorted(f)))
        covered: set[str] = set()
        for f in facets:
            covered |= f
        if vertices is None:
            vertices = sorted(covered)
        else:
            missing = set(vertices) - covered
            if missing:
                raise InputFormatError(
                    f"declared vertices lie in no facet: {sorted(missing)}"
                )
        return SimplicialComplex(tuple(sorted(vertices)), tuple(facets))

    @property
    def dim(self) -> int:
        if not self.facets:
            return -1
        return max(len(f) for f in self.facets) - 1

    def facet_lists(self) -> list[list[str]]:
        return [sorted(f) for f in self.facets]


def complementary_complex(g: Graph) -> SimplicialComplex:
    """The complex whose faces are the independent sets of the graph;
    its facets are the maximal independent sets, which are already
    incomparable, sorted, and cover every vertex."""
    return SimplicialComplex(
        tuple(sorted(g.vertices)), maximal_independent_sets(g)
    )


def is_pure(c: SimplicialComplex) -> Verdict:
    sizes = sorted(len(f) for f in c.facets)
    value = len(set(sizes)) <= 1
    return Verdict(value, "facet-sizes", {"facet_sizes": sizes})


def _require_pure(c: SimplicialComplex, op: str) -> None:
    pure = is_pure(c)
    if not pure.value:
        raise PreconditionError(
            f"{op} is defined for pure complexes only",
            witness=pure.certificate,
        )


def is_strongly_connected(c: SimplicialComplex) -> Verdict:
    """Facets pairwise joined by chains whose consecutive intersections
    have codimension one.  The certificate is a chain between the
    lexicographically first and last facets, or the component partition.

    Two facets are adjacent when they share a ridge (a facet minus one
    vertex); a breadth-first search from each unvisited facet in index
    order, visiting neighbours in ascending index order, yields the
    components and, from facet 0, the chain.
    """
    _require_pure(c, "strong connectedness")
    m = len(c.facets)
    if m <= 1:
        chain = [sorted(f) for f in c.facets]
        return Verdict(True, "facet-chain", {"chain": chain})
    ridges: dict[frozenset[str], list[int]] = {}
    for i, f in enumerate(c.facets):
        for v in f:
            ridges.setdefault(f - {v}, []).append(i)
    parent: dict[int, int | None] = {}
    components = []
    for root in range(m):
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for i in queue:  # the queue grows while it is walked
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


def find_shelling(c: SimplicialComplex) -> list[frozenset[str]] | None:
    """Backtracking search for a shelling order of a pure complex.

    Returns the first order found (deterministic) or None once the search
    space is exhausted, which proves there is none.  Subsets of already
    placed facets are memoized as dead states, so exhaustion does not
    revisit permutations.  More facets than the cap is a capacity error.
    """
    _require_pure(c, "shelling")
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
    dead: set[frozenset[int]] = set()

    def attachable(i: int, placed: list[int]) -> bool:
        glue = {single[i][k] for k in placed if single[i][k] is not None}
        if not glue:
            return False
        return all(glue & diff[i][j] for j in placed)

    order: list[int] = []

    def search(placed_set: frozenset[int]) -> bool:
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


def check_shelling(c: SimplicialComplex, order) -> bool:
    """Independent validation of a shelling order, straight from the
    definition (no incremental bookkeeping shared with the search)."""
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


def field_label(field) -> str:
    if field == "Q":
        return "Q"
    return f"F{int(field)}"


def _rank(rows, field) -> int:
    if field == "Q":
        return rank_rational(rows)
    return rank_mod_p(rows, int(field))


def _bit_order(faces) -> dict[str, int]:
    """One bit per vertex of the faces, in sorted-name order, so a face's
    bits read upward are its names in sorted order."""
    return {v: 1 << i for i, v in enumerate(sorted(set().union(*faces)))}


def _mask(face, bits: dict[str, int]) -> int:
    return sum(bits[v] for v in face)


def _submask_closure(generators) -> set[int]:
    """Every submask of the generator masks: the faces of the complex they
    span.  The face cap is checked on each new face, so the walk stops at
    face HOMOLOGY_FACE_CAP + 1 however large a generator is."""
    faces: set[int] = set()
    for g in generators:
        s = g
        while True:
            if s not in faces:
                faces.add(s)
                if len(faces) > HOMOLOGY_FACE_CAP:
                    raise CapacityError(
                        f"face count exceeds the homology bound {HOMOLOGY_FACE_CAP}"
                    )
            if not s:
                break
            s = (s - 1) & g
    return faces


def all_faces(c: SimplicialComplex) -> list[frozenset[str]]:
    """Every face, from the empty set up, deduplicated across facets and
    sorted by (dimension, vertex names)."""
    bits = _bit_order(c.facets)
    vertices = list(bits)
    spelled = []  # each face's names, read off its bits upward: sorted
    for s in _submask_closure(_mask(f, bits) for f in c.facets):
        names = []
        while s:
            low = s & -s
            names.append(vertices[low.bit_length() - 1])
            s ^= low
        spelled.append(tuple(names))
    spelled.sort(key=lambda t: (len(t), t))
    return [frozenset(t) for t in spelled]


def _betti(faces: set[int], field) -> list[int]:
    """Reduced homology ranks of a downward-closed nonempty set of face
    masks, dimensions -1 through the maximum face dimension.

    The boundary of a face drops one bit at a time, with sign (-1)^(the
    number of the face's bits below it): one sparse row per face, with a
    column per face one smaller.
    """
    by_size: dict[int, list[int]] = {}
    for s in faces:
        by_size.setdefault(s.bit_count(), []).append(s)
    top = max(by_size)  # the largest face size, dimension top - 1
    ranks = [0] * (top + 2)  # ranks[k]: boundary of the size-k faces
    for k in range(1, top + 1):
        column = {s: j for j, s in enumerate(by_size[k - 1])}
        rows = []
        for s in by_size[k]:
            row, rest, sign = {}, s, 1
            while rest:
                low = rest & -rest
                row[column[s ^ low]] = sign
                rest ^= low
                sign = -sign
            rows.append(row)
        ranks[k] = _rank(rows, field)
    return [
        len(by_size[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)
    ]


def _link_betti(link: frozenset[int], field) -> list[int]:
    """Reduced homology ranks of the complex generated by the link's facet
    masks, dimensions -1 through its top.  When every facet shares a
    vertex the link is a cone over it, so contractible: all ranks vanish
    and no matrix is eliminated."""
    common = -1
    for h in link:
        common &= h
    if common:
        return [0] * (max(h.bit_count() for h in link) + 1)
    return _betti(_submask_closure(link), field)


def _ranks_from_faces(faces: list[frozenset[str]], field) -> list[int]:
    """Reduced homology ranks from a downward-closed nonempty face set,
    dimensions -1 through the maximum face dimension."""
    bits = _bit_order(faces)
    return _betti({_mask(f, bits) for f in faces}, field)


def reduced_homology_ranks(c: SimplicialComplex, field=2) -> list[int]:
    """Reduced homology ranks of the whole complex, dimensions -1..dim,
    over F_p (exact modular arithmetic) or the rationals (fraction-free
    integer elimination)."""
    return _ranks_from_faces(all_faces(c), field)


def reisner_cm(c: SimplicialComplex, field=2) -> Verdict:
    """Cohen-Macaulayness oracle: every face's link must have vanishing
    reduced homology strictly below the link's own dimension.

    Faces and facets are bitmasks over the vertices.  The link of F is
    generated by the masks G & ~F over the facets G containing F;
    homology is computed once per distinct link, and a cone link is
    settled without elimination.  A false verdict carries the first
    offending face's full homology profile.
    """
    label = field_label(field)
    face_list = all_faces(c)
    bits = _bit_order(c.facets)
    facets = [_mask(g, bits) for g in c.facets]
    link_betti: dict[frozenset[int], list[int]] = {}
    for f in face_list:
        fm = _mask(f, bits)
        link = frozenset(g & ~fm for g in facets if g & fm == fm)
        betti = link_betti.get(link)
        if betti is None:
            betti = link_betti[link] = _link_betti(link, field)
        if any(b != 0 for b in betti[:-1]):
            profile = {  # reduced homology of the link, dimension -1 upward
                "face": sorted(f),
                "link_dim": max(h.bit_count() for h in link) - 1,
                "reduced_betti": list(betti),
                "field": label,
            }
            return Verdict(
                False,
                "homology",
                {
                    "profile": profile,
                    "offending_dim": next(
                        d for d, b in enumerate(betti, start=-1) if b != 0
                    ),
                },
            )
    return Verdict(
        True, "homology", {"faces_checked": len(face_list), "field": label}
    )


def format_complex(c: SimplicialComplex) -> str:
    """Facet export: one facet per line, space-separated vertex names."""
    return "\n".join(" ".join(f) for f in c.facet_lists()) + "\n"
