"""Simplicial complexes as facet masks: the independence complex of a
graph, purity, strong connectedness, shellability, and exact reduced
homology backing a Cohen-Macaulayness oracle.

A `SimplicialComplex` is its sorted vertex names and its facets as
masks, where bit i stands for `vertices[i]`, kept as an antichain in
`graphs.name_order`, the order of the facets' sorted names.
`from_facets` makes one from named faces, as `Graph.build` makes a
graph.  A graph's complex (`complementary_complex`) is the graph's own
maximal independent set masks put in that order, built once and kept on
the graph, so routes b, c and f read one object and no set is named to
build it.  Purity, strong connectedness (ridges indexed by mask), the
shelling search and `check_shelling` read the facet masks and their
popcounts, and the homology oracle lists its faces as masks
(`face_masks`).  Names are spelled only where a result is reported:
the memoized `facets` view, which certificates, shelling orders and
`format_complex` read, and `all_faces`.

The oracle (`reisner_cm`) keeps each face's star as a mask over facet
indices and builds a link only where it can break Reisner's condition:
a link of dimension 0 or less is nonempty, a cone (the face is not the
intersection of its star) is contractible, and a connected
1-dimensional link has no reduced homology below its top, so none of
them is built or ranked.  Each other distinct link is ranked once,
after a strong collapse (dominated vertices deleted, Barmak-Minian), so
only a core with two or more vertices is eliminated.
`reduced_homology_ranks` stays unreduced, the reference for the oracle.

Dimension conventions: dim F = |F| - 1, so the empty face has dimension
-1 and the complex whose only facet is the empty face has dimension -1.
"""

from dataclasses import dataclass

from .errors import CapacityError, InputFormatError, PreconditionError
from .graphs import Graph, bit_positions, memoized, name_order, spelled
from .linalg import rank_mod_p, rank_rational
from .verdicts import Verdict

SHELLING_FACET_CAP = 20
HOMOLOGY_FACE_CAP = 4096


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple[str, ...]  # sorted; bit i stands for vertices[i]
    facet_masks: tuple[int, ...]  # an antichain, in `name_order`

    @staticmethod
    def from_facets(faces, vertices=None) -> "SimplicialComplex":
        """Keep only the inclusion-maximal faces; vertices default to
        their union.  Declared vertices must be exactly the vertices of
        the facets; a name declared twice is kept once."""
        fs = {frozenset(f) for f in faces}
        covered = set().union(*fs)
        names = sorted(covered if vertices is None else set(vertices))
        for problem, found in (
            ("declared vertices lie in no facet", set(names) - covered),
            ("facets use undeclared vertices", covered - set(names)),
        ):
            if found:
                raise InputFormatError(f"{problem}: {sorted(found)}")
        bit = {v: 1 << i for i, v in enumerate(names)}
        masks = {sum(map(bit.__getitem__, f)) for f in fs}
        facets: list[int] = []  # largest first, each kept unless a kept one holds it
        for f in sorted(masks, key=int.bit_count, reverse=True):
            if not any(f & g == f for g in facets):
                facets.append(f)
        return SimplicialComplex(tuple(names), tuple(name_order(facets)))

    @property
    def dim(self) -> int:
        return max((f.bit_count() for f in self.facet_masks), default=0) - 1

    def facet_lists(self) -> list[list[str]]:
        return [sorted(f) for f in self.facets]

    # The memos below live in the instance `__dict__` (`graphs.memoized`):
    # equality, hashing and repr see the two fields only, and pickling
    # sends them alone.

    @memoized
    def facets(self) -> tuple[frozenset[str], ...]:
        """The facets by name, in `facet_masks` order, which is the order
        of their sorted names; certificates and listings read them."""
        return spelled(self.vertices, self.facet_masks)

    @memoized
    def face_masks(self) -> tuple[int, ...]:
        """Every face as a mask, in `all_faces` order: by size, then by
        sorted names.  The faces of one size are an antichain, so a
        stable sort by size of their `name_order` gives it."""
        masks = name_order(_submask_closure(self.facet_masks))
        masks.sort(key=int.bit_count)
        return tuple(masks)

    def __reduce__(self):
        return SimplicialComplex, (self.vertices, self.facet_masks)


def complementary_complex(g: Graph) -> SimplicialComplex:
    """The complex whose faces are the independent sets of the graph:
    its vertices are the graph's, and its facet masks the graph's
    maximal independent sets as masks, which are incomparable and cover
    every vertex, in `name_order`; no set is named.  It is built once
    per graph and kept in the graph's instance `__dict__`, beside the
    graph's own memos, so routes b, c and f share one complex and its
    masks; equality, hashing, repr and pickling do not see it."""
    if "complex" not in vars(g):
        vars(g)["complex"] = SimplicialComplex(
            g.vertices, tuple(name_order(g._independent_masks))
        )
    return vars(g)["complex"]


def is_pure(c: SimplicialComplex) -> Verdict:
    sizes = sorted(f.bit_count() for f in c.facet_masks)
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
    the list of the indices of the facets that hold it, one entry per
    facet and vertex, so the table holds F * d entries for F facets of
    size d; each facet's ridge keys are computed once, for the table and
    the walk.  A breadth-first search from each unvisited facet in index
    order, visiting neighbours in ascending index order, yields the
    components and, from facet 0, the chain.
    """
    _require_pure(c, "strong connectedness")
    masks = c.facet_masks
    m = len(masks)
    if m <= 1:
        return Verdict(True, "facet-chain", {"chain": c.facet_lists()})
    keys = [[f ^ 1 << v for v in bit_positions(f)] for f in masks]
    ridges: dict[int, list[int]] = {}
    for i, own in enumerate(keys):
        for key in own:
            ridges.setdefault(key, []).append(i)
    parent: list[int | None] = [None] * m
    seen = bytearray(m)
    components = []
    for root in range(m):
        if seen[root]:
            continue
        seen[root] = 1
        queue = [root]
        for i in queue:  # the queue grows while it is walked
            near = {j for key in keys[i] for j in ridges[key] if not seen[j]}
            for j in sorted(near):
                seen[j] = 1
                parent[j] = i
                queue.append(j)
        components.append(sorted(queue))
    facets = c.facets
    if len(components) > 1:
        return Verdict(
            False,
            "facet-chain",
            {"components": [[sorted(facets[i]) for i in comp] for comp in components]},
        )
    path = [m - 1]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return Verdict(True, "facet-chain", {"chain": [sorted(facets[i]) for i in path]})


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
    masks = c.facet_masks
    m = len(masks)
    if m > SHELLING_FACET_CAP:
        raise CapacityError(
            f"{m} facets exceed the shelling search bound {SHELLING_FACET_CAP}"
        )
    if m <= 1:
        return list(c.facets)
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
        return [c.facets[i] for i in order]
    return None


def check_shelling(c: SimplicialComplex, order) -> bool:
    """Independent validation of a shelling order, straight from the
    definition: for every i and every j < i, some v in F_i - F_j has
    F_i - F_k = {v} for some k < i.  The order must hold each facet
    once; it is read as the complex's facet masks, and shares no table
    or bookkeeping with the search."""
    index = {f: i for i, f in enumerate(c.facets)}
    picks = [index.get(frozenset(f)) for f in order]
    if None in picks or sorted(picks) != list(range(len(index))):
        return False
    masks = [c.facet_masks[i] for i in picks]
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
    names = {1 << i: frozenset([v]) for i, v in enumerate(c.vertices)}
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
    homology over every field.  A core of one vertex is contractible:
    all ranks vanish and no matrix is eliminated.  Any other core is
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
    dimensions -1 through the maximum face dimension: the faces of the
    complex its maximal faces generate."""
    return _betti(set(SimplicialComplex.from_facets(faces).face_masks), field)


def reduced_homology_ranks(c: SimplicialComplex, field=2) -> list[int]:
    """Reduced homology ranks of the whole complex, dimensions -1..dim,
    over F_p (exact modular arithmetic) or the rationals (fraction-free
    integer elimination)."""
    return _ranks_from_faces(all_faces(c), field)


def _connected(masks) -> bool:
    """Whether nonempty vertex masks form one piece, two masks joined
    when they share a vertex."""
    reach, rest = masks[0], masks[1:]
    while rest:
        joined = [h for h in rest if h & reach]
        if not joined:
            return False
        for h in joined:
            reach |= h
        rest = [h for h in rest if not h & reach]
    return True


def reisner_cm(c: SimplicialComplex, field=2) -> Verdict:
    """Cohen-Macaulayness oracle: every face's link must have vanishing
    reduced homology strictly below the link's own dimension.

    Faces and facets are the complex's masks (`face_masks`,
    `facet_masks`), listed through `all_faces`.  The link of F is
    generated by the masks G & ~F over the facets G containing F, its
    star, kept as a mask over facet indices: the star of F is its
    parent's (F less its lowest bit, listed before F) cut to the facets
    holding that bit.  A face is settled without building its link when
    the link cannot break the condition:
    - its link has dimension at most 0 (no star facet has more than
      |F| + 1 vertices): a nonempty link has no homology below that;
    - its link is a cone: F is not the intersection of its star's
      facets (memoized per star), and any vertex of that intersection
      outside F is an apex, so the link is contractible;
    - its link is 1-dimensional and its facets form one connected
      piece, so its reduced homology in dimensions -1 and 0 vanishes.
    Any other link, a disconnected 1-dimensional one or one of dimension
    2 or more, is ranked once per distinct link (`_link_betti`).  A
    false verdict carries the first offending face's full homology
    profile.
    """
    label = field_label(field)
    face_list = all_faces(c)
    facets = c.facet_masks
    every = (1 << len(facets)) - 1
    holding = {0: every}  # vertex bit -> the facets holding it; 0 -> all
    wider = [0] * (c.dim + 3)  # wider[k]: facets of more than k vertices
    for i, g in enumerate(facets):
        for v in bit_positions(g):
            holding[1 << v] = holding.get(1 << v, 0) | 1 << i
        for k in range(g.bit_count()):
            wider[k] |= 1 << i
    stars = {0: every}  # face -> its star
    meets: dict[int, int] = {}  # star -> the intersection of its facets
    link_betti: dict[frozenset[int], list[int]] = {}
    for f, fm in zip(face_list, c.face_masks):
        low = fm & -fm
        star = stars[fm] = stars[fm ^ low] & holding[low]
        size = fm.bit_count()
        if not star & wider[size + 1]:
            continue
        meet = meets.get(star)
        if meet is None:
            meet = -1
            for i in bit_positions(star):
                meet &= facets[i]
            meets[star] = meet
        if meet != fm:
            continue
        link = [facets[i] ^ fm for i in bit_positions(star)]
        if not star & wider[size + 2] and _connected(link):
            continue
        link = frozenset(link)
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
