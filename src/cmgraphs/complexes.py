"""Simplicial complexes as facet lists: the independence complex of a
graph, purity, strong connectedness, shellability, and exact reduced
homology backing a Cohen-Macaulayness oracle.

Names stay at the boundary.  Each complex memoizes one bit order (its
facets' vertices in sorted-name order, `bit_order`) and its facets as
masks in that order (`facet_masks`), and routes b, c and f read them:
strong connectedness indexes ridges by mask, the shelling search keeps
its difference table and dead states as masks, `check_shelling` tests
the definition on the masks with no table of the search's, and the
homology oracle lists its faces as masks (`face_masks`).  Names are
spelled only in certificates, shelling orders and `all_faces`.

The oracle (`reisner_cm`) ranks each distinct link once.  Each link is
first strongly collapsed (dominated vertices deleted, Barmak-Minian), so
only a core with two or more vertices is eliminated.
`reduced_homology_ranks` stays unreduced, the reference for the oracle.

Dimension conventions: dim F = |F| - 1, so the empty face has dimension
-1 and the complex whose only facet is the empty face has dimension -1.
"""

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import CapacityError, InputFormatError, PreconditionError
from .graphs import Graph, bit_positions, maximal_independent_sets, memoized
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
        their union.  Declared vertices must all appear in some facet; a
        name declared twice is kept once."""
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
        return SimplicialComplex(tuple(sorted(set(vertices))), tuple(facets))

    @property
    def dim(self) -> int:
        if not self.facets:
            return -1
        return max(len(f) for f in self.facets) - 1

    def facet_lists(self) -> list[list[str]]:
        return [sorted(f) for f in self.facets]

    # The memo below lives in the instance `__dict__` (`graphs.memoized`):
    # equality, hashing and repr see the two fields only, and pickling
    # sends them alone.

    @memoized
    def bit_order(self) -> Mapping[str, int]:
        """Read-only map from each vertex of the facets to its bit, in
        sorted-name order, so a mask's bits read upward are its names
        in sorted order."""
        return MappingProxyType(_bit_order(self.facets))

    @memoized
    def facet_masks(self) -> tuple[int, ...]:
        """The facets as masks over `bit_order`, in `facets` order."""
        bits = self.bit_order
        return tuple(_mask(f, bits) for f in self.facets)

    @memoized
    def face_masks(self) -> tuple[int, ...]:
        """Every face as a mask, in `all_faces` order: by size, then by
        sorted names.  Of two masks of one size the first holds the
        lowest bit in which they differ, so a sort of the masks' binary
        strings read lowest bit first, descending, gives the name order."""
        width = f"0{len(self.bit_order)}b"
        masks = sorted(
            _submask_closure(self.facet_masks),
            key=lambda s: format(s, width)[::-1],
            reverse=True,
        )
        masks.sort(key=int.bit_count)
        return tuple(masks)

    def __reduce__(self):
        return SimplicialComplex, (self.vertices, self.facets)


def complementary_complex(g: Graph) -> SimplicialComplex:
    """The complex whose faces are the independent sets of the graph;
    its facets are the maximal independent sets, which are already
    incomparable, sorted, and cover every vertex."""
    return SimplicialComplex(g.vertices, maximal_independent_sets(g))


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
    vertex).  On the complex's facet masks each ridge `f ^ bit` maps to
    the mask of the indices of the facets that hold it, so a facet's
    neighbours are one mask of indices.  A breadth-first search from
    each unvisited facet in index order, visiting neighbours in
    ascending index order, yields the components and, from facet 0, the
    chain.
    """
    _require_pure(c, "strong connectedness")
    m = len(c.facets)
    if m <= 1:
        chain = [sorted(f) for f in c.facets]
        return Verdict(True, "facet-chain", {"chain": chain})
    masks = c.facet_masks
    ridges: dict[int, int] = {}
    for i, f in enumerate(masks):
        index, rest = 1 << i, f
        while rest:
            low = rest & -rest
            rest ^= low
            ridges[f ^ low] = ridges.get(f ^ low, 0) | index
    parent: list[int | None] = [None] * m
    seen = 0
    components = []
    for root in range(m):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        queue = [root]
        for i in queue:  # the queue grows while it is walked
            f = rest = masks[i]
            near = 0
            while rest:
                low = rest & -rest
                rest ^= low
                near |= ridges[f ^ low]
            near &= ~seen
            seen |= near
            for j in bit_positions(near):
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
    space is exhausted, which proves there is none.  It runs on the
    complex's facet masks: the differences F_i - F_j are masks, a facet
    attaches when the OR of its single-vertex differences to the placed
    facets meets its difference to each of them, and the sets of placed
    facets are index masks, memoized as dead states so exhaustion does
    not revisit permutations.  More facets than the cap is a capacity
    error.
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
    masks = c.facet_masks
    diff = [[fi & ~fj for fj in masks] for fi in masks]
    single = [[d if d & (d - 1) == 0 else 0 for d in row] for row in diff]
    dead: set[int] = set()

    def attachable(i: int, placed: list[int]) -> bool:
        glue, ones = 0, single[i]
        for k in placed:
            glue |= ones[k]
        if not glue:
            return False
        row = diff[i]
        return all(glue & row[j] for j in placed)

    order: list[int] = []

    def search(placed: int) -> bool:
        if len(order) == m:
            return True
        if placed in dead:
            return False
        for i in range(m):
            if placed >> i & 1:
                continue
            if order and not attachable(i, order):
                continue
            order.append(i)
            if search(placed | 1 << i):
                return True
            order.pop()
        dead.add(placed)
        return False

    if search(0):
        return [facets[i] for i in order]
    return None


def check_shelling(c: SimplicialComplex, order) -> bool:
    """Independent validation of a shelling order, straight from the
    definition: for every i and every j < i, some v in F_i - F_j has
    F_i - F_k = {v} for some k < i.  It reads the complex's facet masks
    and shares no table or bookkeeping with the search."""
    facets = [frozenset(f) for f in order]
    if sorted(facets, key=lambda f: tuple(sorted(f))) != list(c.facets):
        return False
    mask = dict(zip(c.facets, c.facet_masks))
    masks = [mask[f] for f in facets]
    for i in range(1, len(masks)):
        fi = masks[i]
        drops = {fi & ~masks[k] for k in range(i)}  # F_i - F_k, k < i
        for j in range(i):
            if not any(1 << v in drops for v in bit_positions(fi & ~masks[j])):
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


def _mask(face, bits: Mapping[str, int]) -> int:
    return sum(map(bits.__getitem__, face))


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
    sorted by (dimension, vertex names): the complex's `face_masks`,
    spelled.  The face cap is read on each call, so a listing memoized
    under a larger cap raises too."""
    masks = c.face_masks
    if len(masks) > HOMOLOGY_FACE_CAP:
        raise CapacityError(
            f"face count exceeds the homology bound {HOMOLOGY_FACE_CAP}"
        )
    # a face is spelled as its mask less the lowest bit, a smaller face
    # spelled before it, joined with that bit's name
    spelled = {0: frozenset()}
    names = {1 << i: frozenset([v]) for i, v in enumerate(c.bit_order)}
    for s in masks:
        if s:
            low = s & -s
            spelled[s] = spelled[s ^ low] | names[low]
    return [spelled[s] for s in masks]


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


def _strong_core(facets) -> list[int]:
    """The facets left once no vertex is dominated: v is dominated when
    another vertex lies in every facet containing v.  Deleting v keeps
    the homotopy type (a strong collapse); the facets of what is left are
    the maximal masks among the facets minus v.  Facets without v stay
    maximal, and the facets with v, less v, stay incomparable, so only
    the latter are checked against the former."""
    facets = list(facets)
    vertices = 0
    for h in facets:
        vertices |= h
    collapsed = True
    while collapsed:
        collapsed = False
        rest = vertices
        while rest:
            v = rest & -rest
            rest ^= v
            common, star, kept = -1, [], []
            for h in facets:
                if h & v:
                    common &= h
                    star.append(h ^ v)
                else:
                    kept.append(h)
            if common == v:
                continue
            facets = kept + [
                h for h in star if not any(h & g == h for g in kept)
            ]
            vertices ^= v
            collapsed = True
    return facets


def _link_betti(link: frozenset[int], field) -> list[int]:
    """Reduced homology ranks of the complex generated by the link's facet
    masks, dimensions -1 through its top.

    The link is strongly collapsed to its core, which has the same
    homology over every field.  A core of one vertex is contractible (a
    cone, whose facets share a vertex, always collapses to one): all
    ranks vanish and no matrix is eliminated.  Any other core is
    eliminated and its ranks padded with zeros to the link's top.
    """
    top = max(h.bit_count() for h in link)  # the link's dimension + 1
    core = _strong_core(link)
    if len(core) == 1 and core[0].bit_count() == 1:
        return [0] * (top + 1)
    betti = _betti(_submask_closure(core), field)
    return betti + [0] * (top + 1 - len(betti))


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

    Faces and facets are the complex's masks (`face_masks`,
    `facet_masks`), listed through `all_faces`.  The link of F is
    generated by the masks G & ~F over the facets G containing F;
    homology is computed once per distinct link (`_link_betti`), and a
    link that strongly collapses to a point, a cone among them, is
    settled without elimination.  A false verdict carries the first
    offending face's full homology profile.
    """
    label = field_label(field)
    face_list = all_faces(c)
    facets = c.facet_masks
    link_betti: dict[frozenset[int], list[int]] = {}
    for f, fm in zip(face_list, c.face_masks):
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
