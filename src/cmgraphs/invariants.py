"""Type, level and Gorenstein invariants of Cohen-Macaulay graphs.

All three are read off the fully deformed graph restricted to the cover
side: the socle generators are its maximal independent sets, the type
counts its minimal vertex covers, level-ness is its unmixedness, and
type one is equivalent to the graph being nothing but its matching.
`invariant_report` is the one entry point: it builds that restriction
once and reads every invariant off it.  The formulas hold only for
Cohen-Macaulay inputs, so it reads the labeling's unmixedness verdict and
short cycle first and refuses otherwise; an unmixedness disagreement
raises `RouteDisagreementError` (`cmgraphs invariants` exits 3).
"""

from dataclasses import dataclass

from .criteria import _crosschecked_unmixed
from .errors import PreconditionError, RouteDisagreementError
from .graphs import (
    is_unmixed_bruteforce,
    maximal_independent_sets,
    minimal_vertex_covers,
)
from .pairing import PairedLabeling
from .transform import restricted_o_full


def _require_cm(pl: PairedLabeling) -> None:
    unmixed = _crosschecked_unmixed(pl)
    if not unmixed.value:
        raise PreconditionError(
            "invariants are defined for Cohen-Macaulay graphs; this one is "
            "not even unmixed",
            witness=unmixed.certificate,
        )
    cycle = pl.short_cycle
    if cycle is not None:
        raise PreconditionError(
            "invariants are defined for Cohen-Macaulay graphs only",
            witness={"cycle": cycle.to_list()},
        )


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
    deformation.

    The type counts the minimal covers of the restriction and always
    equals its number of maximal independent sets (complement duality);
    Gorenstein-ness is the edge set being exactly the matching, which
    always equals type one.  Either mismatch raises
    `RouteDisagreementError`.
    """
    _require_cm(pl)
    restricted = restricted_o_full(pl)
    covers = minimal_vertex_covers(restricted)
    generators = maximal_independent_sets(restricted)
    if len(covers) != len(generators):
        raise RouteDisagreementError(
            "type and socle generator count disagree",
            dump=pl.dump(covers=len(covers), generators=len(generators)),
        )
    cm_type = len(covers)
    matching = {frozenset(p) for p in pl.pairs}
    gorenstein = pl.graph.edges <= matching
    if gorenstein != (cm_type == 1):
        extra = sorted(sorted(e) for e in pl.graph.edges - matching)
        raise RouteDisagreementError(
            "matching-only and type one disagree",
            dump=pl.dump(extra_edges=extra, cm_type=cm_type),
        )
    return InvariantReport(
        cm_type=cm_type,
        socle_monomials=tuple(tuple(sorted(s)) for s in generators),
        level=bool(is_unmixed_bruteforce(restricted).value),
        gorenstein=gorenstein,
        complete_intersection=gorenstein,
    )
