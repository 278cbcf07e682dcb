"""Graph deformations: the per-pair rewiring operator, its composition
over index sets, the restriction to the cover side, and the block-graft
constructor.

The rewiring operator for pair i detaches every cross edge x_k y_i
(k != i) from y_i and reattaches it as x_k x_i; the matching edge is kept,
so the vertex set, the class membership and the labeling all survive.
"""

import itertools
from dataclasses import dataclass

from .errors import InputFormatError, RouteDisagreementError, StructureError
from .graphs import (
    Graph,
    induced_subgraph,
    isolated_vertices,
    lex_min_matching,
    rewired,
    vertex_bits,
)
from .pairing import PairedLabeling, validate_labeling


def o_operator(pl: PairedLabeling, i: int) -> Graph:
    """Rewire all cross edges into y_i onto x_i; pair index is 1-based."""
    return o_set(pl, (i,))


def o_set(pl: PairedLabeling, t) -> Graph:
    """Compose the rewiring operator over an index set.

    The operators touch disjoint y-stars, so the composition is one
    rewrite of the original edges: each link y_i x_k (i in t) becomes the
    cover edge x_k x_i.  The labeling builds each pair's rewiring once
    (`PairedLabeling.rewirings`); here the pieces for t are combined.
    The edges are E minus the removed links, plus the added cover edges.
    The deformed graph's neighbour masks are the parent's with the same
    rewrite applied: the bits y_i and x_k are cleared on each other and
    x_i and x_k set on each other.  The masks are set and cleared, never
    toggled, so a cover edge x_k x_i that is already there, or that two
    links produce, stays one edge.  The new graph gets them as its bitset
    view and builds none from its edges.  When no pair in t has a link,
    the input graph itself is returned.
    """
    t, n = set(t), pl.n
    out_of_range = {i for i in t if not 1 <= i <= n}
    if out_of_range:
        raise InputFormatError(
            f"pair indices {sorted(out_of_range)} out of range 1..{n}"
        )
    rewirings = pl.rewirings
    pieces = [rewirings[i - 1] for i in t if rewirings[i - 1].moves]
    g = pl.graph
    if not pieces:
        return g
    edges, masks = set(g.edges), list(vertex_bits(g).neighbours)
    for p in pieces:
        edges.difference_update(p.removed)  # x-y edges; the added are x-x
        edges.update(p.added)
        for k, i, y in p.moves:
            masks[k] = masks[k] & ~(1 << y) | 1 << i
            masks[y] &= ~(1 << k)
            masks[i] |= 1 << k
    return rewired(g, frozenset(edges), masks)


def index_subsets(n: int):
    """Every subset of the pair indices 1..n as a sorted tuple, by size
    and then lexicographically."""
    for size in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def restricted_o_full(pl: PairedLabeling) -> Graph:
    """Apply the rewiring over all pairs, then restrict to the cover side.

    The covers and independent sets of this graph on the x vertices drive
    the type, level and Gorenstein computations.
    """
    full = o_set(pl, range(1, pl.n + 1))
    return induced_subgraph(full, pl.x_names)


@dataclass(frozen=True)
class BipartiteBlock:
    """A bipartite graph with a designated equal-size partition and no
    isolated vertex."""

    graph: Graph
    x_side: tuple[str, ...]
    y_side: tuple[str, ...]

    def validate(self) -> None:
        xs, ys = set(self.x_side), set(self.y_side)
        if len(xs) != len(self.x_side) or len(ys) != len(self.y_side):
            raise InputFormatError("block side declares a vertex twice")
        if xs & ys:
            raise InputFormatError("block sides must be disjoint")
        if xs | ys != set(self.graph.vertices):
            raise InputFormatError("block sides must partition the vertices")
        if len(xs) != len(ys) or not xs:
            raise InputFormatError("block sides must be nonempty and equal-size")
        for e in self.graph.edges:
            if len(e & xs) != 1:
                a, b = sorted(e)
                raise InputFormatError(
                    f"block edge {a}-{b} does not join the two sides"
                )
        isolated = isolated_vertices(self.graph)
        if isolated:
            raise InputFormatError(f"block has isolated vertices: {list(isolated)}")


@dataclass(frozen=True)
class BGraftSpec:
    """A base graph on vertices named 1..p plus one bipartite block per
    base vertex."""

    h0: Graph
    blocks: tuple[BipartiteBlock, ...]

    def validate(self) -> None:
        labels = []
        for v in self.h0.vertices:
            if not v.isdigit():
                raise InputFormatError(
                    f"base graph vertices must be numbered 1..p, got {v!r}"
                )
            labels.append(int(v))
        if sorted(labels) != list(range(1, len(labels) + 1)):
            raise InputFormatError("base graph vertices must be exactly 1..p")
        if len(self.blocks) != len(labels):
            raise InputFormatError(
                f"base graph has {len(labels)} vertices but "
                f"{len(self.blocks)} blocks were given"
            )
        seen: set[str] = set()
        for b in self.blocks:
            b.validate()
            overlap = seen & set(b.graph.vertices)
            if overlap:
                raise InputFormatError(
                    f"block vertex names reused: {sorted(overlap)}"
                )
            seen |= set(b.graph.vertices)


def b_graft(spec: BGraftSpec) -> tuple[Graph, PairedLabeling]:
    """Join the cover sides of the blocks along the base graph's edges.

    Two x vertices are adjacent when their blocks' labels are adjacent in
    the base graph; inside each block the original bipartite edges remain.
    The returned labeling pairs each x with a block-matched y (the
    lexicographically smallest block matching), which exists for every
    unmixed block; a block with no perfect matching is an error.
    """
    spec.validate()
    p = len(spec.blocks)
    edges: set[tuple[str, str]] = set()
    for b in spec.blocks:
        edges.update(b.graph.edge_list())
    for a, bb in spec.h0.edge_list():
        bi, bj = spec.blocks[int(a) - 1], spec.blocks[int(bb) - 1]
        for u in bi.x_side:
            for v in bj.x_side:
                edges.add((u, v))
    graph = Graph.build(edges=sorted(edges))

    pairs: list[tuple[str, str]] = []
    for idx, b in enumerate(spec.blocks, start=1):
        matching, deficiency = lex_min_matching(b.graph, b.x_side, b.y_side)
        if matching is None:
            s, ns = deficiency
            raise StructureError(
                f"block {idx} has no perfect matching: {s} can only be "
                f"matched into {ns}",
                hall_set=s,
                neighborhood=ns,
            )
        pairs.extend(sorted((x, matching[x]) for x in b.x_side))

    pl = PairedLabeling(graph, tuple(pairs))
    problems = validate_labeling(pl)
    if problems:
        raise RouteDisagreementError(
            "grafted labeling and labeling validator disagree",
            dump=pl.dump(problems=problems),
        )
    return graph, pl
