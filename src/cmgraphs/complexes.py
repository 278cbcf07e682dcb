"""Simplicial complexes as facet lists: the independence complex of a
graph, purity, strong connectedness, shellability, and exact reduced
homology backing a Cohen-Macaulayness oracle.

Dimension conventions: dim F = |F| - 1, so the empty face has dimension
-1 and the complex whose only facet is the empty face has dimension -1.
"""

import itertools
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


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced homology ranks of one face's link, dimension -1 upward."""

    face: tuple[str, ...]
    link_dim: int
    reduced_betti: tuple[int, ...]
    field: str

    def to_dict(self) -> dict:
        return {
            "face": list(self.face),
            "link_dim": self.link_dim,
            "reduced_betti": list(self.reduced_betti),
            "field": self.field,
        }


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
    if field in ("Q", "q", "rational", 0):
        return "Q"
    return f"F{int(field)}"


def _rank(rows, field) -> int:
    if field_label(field) == "Q":
        return rank_rational(rows)
    return rank_mod_p(rows, int(field))


def all_faces(c: SimplicialComplex) -> list[frozenset[str]]:
    """Every face, from the empty set up, deduplicated across facets and
    sorted by (dimension, vertex names)."""
    faces: set[frozenset[str]] = set()
    for facet in c.facets:
        elems = sorted(facet)
        for r in range(len(elems) + 1):
            for combo in itertools.combinations(elems, r):
                faces.add(frozenset(combo))
        if len(faces) > HOMOLOGY_FACE_CAP:
            raise CapacityError(
                f"face count exceeds the homology bound {HOMOLOGY_FACE_CAP}"
            )
    return sorted(faces, key=lambda f: (len(f), tuple(sorted(f))))


def _ranks_from_faces(faces: list[frozenset[str]], field) -> list[int]:
    """Reduced homology ranks from a downward-closed nonempty face set,
    dimensions -1 through the maximum face dimension."""
    top = max(len(f) for f in faces) - 1
    by_dim: dict[int, list[tuple[str, ...]]] = {d: [] for d in range(-1, top + 1)}
    for f in faces:
        by_dim[len(f) - 1].append(tuple(sorted(f)))
    for d in by_dim:
        by_dim[d].sort()
    index = {
        d: {f: i for i, f in enumerate(by_dim[d])} for d in range(-1, top + 1)
    }

    boundary_rank = {}
    for d in range(0, top + 1):
        below = index[d - 1]
        rows = [  # one sparse row per d-face: its boundary
            {below[f[:pos] + f[pos + 1:]]: (-1) ** pos for pos in range(len(f))}
            for f in by_dim[d]
        ]
        boundary_rank[d] = _rank(rows, field)
    boundary_rank[top + 1] = 0

    betti = []
    for d in range(-1, top + 1):
        kernel = len(by_dim[d]) - (boundary_rank[d] if d >= 0 else 0)
        betti.append(kernel - boundary_rank[d + 1])
    return betti


def reduced_homology_ranks(c: SimplicialComplex, field=2) -> list[int]:
    """Reduced homology ranks of the whole complex, dimensions -1..dim,
    over F_p (exact modular arithmetic) or the rationals (fraction-free
    integer elimination)."""
    return _ranks_from_faces(all_faces(c), field)


def reisner_cm(c: SimplicialComplex, field=2) -> Verdict:
    """Cohen-Macaulayness oracle: every face's link must have vanishing
    reduced homology strictly below the link's own dimension.

    The link of F is generated by the sets G - F over the facets G
    containing F; homology is computed once per distinct link.  A false
    verdict carries the first offending face's full homology profile.
    """
    label = field_label(field)
    face_list = all_faces(c)
    link_betti: dict[frozenset[frozenset[str]], list[int]] = {}
    for f in face_list:
        link = frozenset(g - f for g in c.facets if f <= g)
        betti = link_betti.get(link)
        if betti is None:
            faces = {
                frozenset(combo)
                for h in link
                for r in range(len(h) + 1)
                for combo in itertools.combinations(h, r)
            }
            betti = link_betti[link] = _ranks_from_faces(list(faces), field)
        if any(b != 0 for b in betti[:-1]):
            profile = HomologyProfile(
                tuple(sorted(f)),
                max(len(h) for h in link) - 1,
                tuple(betti),
                label,
            )
            return Verdict(
                False,
                "homology",
                {
                    "profile": profile.to_dict(),
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
