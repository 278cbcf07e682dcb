"""Combinatorial Cohen-Macaulayness toolkit for graphs whose minimum
vertex cover is half the vertex count.

The package decides unmixedness, Cohen-Macaulayness (six cross-validated
routes), type, level-ness and Gorenstein-ness, entirely by exact
combinatorics plus an exact-arithmetic homology oracle.
"""

from .census import CensusReport, cross_validate, enumerate_class
from .complexes import (
    SimplicialComplex,
    complementary_complex,
    find_shelling,
    is_pure,
    is_strongly_connected,
    reduced_homology_ranks,
    reisner_cm,
)
from .criteria import (
    cm_structural_doublestar,
    cm_verdict,
    degree_one_exists,
    generator_bounds,
    minimal_prime_shape,
    unmixed_verdict,
)
from .errors import (
    CapacityError,
    CmGraphsError,
    InputFormatError,
    NotInClassError,
    PreconditionError,
    RouteDisagreementError,
    StructureError,
)
from .graphs import (
    ClassMembership,
    Graph,
    add_edges,
    classify,
    induced_subgraph,
    is_unmixed_bruteforce,
    maximal_independent_sets,
    minimal_vertex_covers,
    pairs_graph,
    perfect_matchings,
    remove_edges,
    remove_vertices,
)
from .graphio import format_graph, parse_graph, parse_graph_file
from .invariants import InvariantReport, invariant_report
from .pairing import (
    CycleWitness,
    PairedLabeling,
    find_cycle,
    find_star_labeling,
    make_labeling,
    relabel_for_double_star,
    unique_perfect_matching,
)
from .transform import (
    BGraftSpec,
    BipartiteBlock,
    b_graft,
    o_operator,
    o_set,
    restricted_o_full,
)
from .verdicts import Verdict

__version__ = "0.1.0"
