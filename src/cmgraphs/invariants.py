"""Type, level and Gorenstein invariants of Cohen-Macaulay graphs.

All three are read off the fully deformed graph restricted to the cover
side: the socle generators are its maximal independent sets, the type
counts its minimal vertex covers, level-ness is its unmixedness, and
type one is equivalent to the graph being nothing but its matching.
These formulas hold only for Cohen-Macaulay inputs, so every operation
verifies that first and refuses otherwise.
"""

from dataclasses import dataclass

from .errors import PreconditionError, RouteDisagreementError
from .graphs import (
    Graph,
    is_unmixed_bruteforce,
    maximal_independent_sets,
    minimal_vertex_covers,
)
from .pairing import PairedLabeling, find_cycle
from .transform import restricted_o_full
from .verdicts import Verdict


def _require_cm(pl: PairedLabeling) -> None:
    unmixed = is_unmixed_bruteforce(pl.graph)
    if not unmixed.value:
        raise PreconditionError(
            "invariants are defined for Cohen-Macaulay graphs; this one is "
            "not even unmixed",
            witness=unmixed.certificate,
        )
    cycle = find_cycle(pl, max_r=2)
    if cycle is not None:
        raise PreconditionError(
            "invariants are defined for Cohen-Macaulay graphs only",
            witness={"cycle": cycle.to_list()},
        )


def _socle(restricted: Graph) -> list[tuple[str, ...]]:
    return sorted(tuple(sorted(s)) for s in maximal_independent_sets(restricted))


def _type(pl: PairedLabeling, restricted: Graph) -> int:
    covers = minimal_vertex_covers(restricted)
    generators = maximal_independent_sets(restricted)
    if len(covers) != len(generators):
        raise RouteDisagreementError(
            "type and socle generator count disagree",
            dump=pl.dump(covers=len(covers), generators=len(generators)),
        )
    return len(covers)


def _level(restricted: Graph) -> Verdict:
    v = is_unmixed_bruteforce(restricted)
    return Verdict(v.value, "level", v.certificate)


def _gorenstein(pl: PairedLabeling, cm_type_value: int) -> Verdict:
    matching = {frozenset(p) for p in pl.pairs}
    extra = sorted(
        sorted(e) for e in pl.graph.edges - matching
    )
    value = not extra
    if value != (cm_type_value == 1):
        raise RouteDisagreementError(
            "matching-only and type one disagree",
            dump=pl.dump(extra_edges=extra, cm_type=cm_type_value),
        )
    certificate = {"extra_edges": extra} if extra else None
    return Verdict(value, "matching-only", certificate)


def socle_generators(pl: PairedLabeling) -> list[tuple[str, ...]]:
    """Socle monomials as x-vertex subsets: the maximal independent sets
    of the restricted deformation, sorted."""
    _require_cm(pl)
    return _socle(restricted_o_full(pl))


def cm_type(pl: PairedLabeling) -> int:
    """Number of minimal vertex covers of the restricted deformation.

    Always equals the socle generator count (complement duality); a
    mismatch raises `RouteDisagreementError`.
    """
    _require_cm(pl)
    return _type(pl, restricted_o_full(pl))


def is_level(pl: PairedLabeling) -> Verdict:
    """Level iff the restricted deformation is unmixed."""
    _require_cm(pl)
    return _level(restricted_o_full(pl))


def is_gorenstein(pl: PairedLabeling) -> Verdict:
    """Gorenstein iff the edge set is exactly the matching; equivalently
    the type is one (checked: a mismatch raises `RouteDisagreementError`)."""
    _require_cm(pl)
    return _gorenstein(pl, _type(pl, restricted_o_full(pl)))


@dataclass(frozen=True)
class InvariantReport:
    cm_type: int
    socle_monomials: tuple[tuple[str, ...], ...]
    level: bool
    gorenstein: bool
    complete_intersection: bool

    def to_dict(self) -> dict:
        return {
            "cm_type": self.cm_type,
            "socle_monomials": [list(s) for s in self.socle_monomials],
            "level": self.level,
            "gorenstein": self.gorenstein,
            "complete_intersection": self.complete_intersection,
        }


def invariant_report(pl: PairedLabeling) -> InvariantReport:
    """All invariants from one precondition check and one restricted
    deformation."""
    _require_cm(pl)
    restricted = restricted_o_full(pl)
    t = _type(pl, restricted)
    gorenstein = _gorenstein(pl, t).value
    return InvariantReport(
        cm_type=t,
        socle_monomials=tuple(_socle(restricted)),
        level=bool(_level(restricted).value),
        gorenstein=gorenstein,
        complete_intersection=gorenstein,
    )
