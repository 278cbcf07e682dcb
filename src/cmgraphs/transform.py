"""Graph deformations: the per-pair rewiring operator, its composition
over index sets, the walk over every index subset, the restriction to
the cover side, and the block-graft constructor.

The rewiring operator for pair i detaches every cross edge x_k y_i
(k != i) from y_i and reattaches it as x_k x_i; the matching edge is kept,
so the vertex set, the class membership and the labeling all survive.
The deformations are written on neighbour masks, by the labeling's bit
positions, in one place (`rewire`), and the graphs are built from those
masks; only the block graft, which joins named blocks, builds its graph
from named edges.
"""

import functools
import itertools
from dataclasses import dataclass

from .errors import InputFormatError, RouteDisagreementError, StructureError
from .graphs import Graph, isolated_vertices, lex_min_matching, selected
from .pairing import PairedLabeling, validate_labeling


def rewire(pl: PairedLabeling, g: Graph, pairs) -> Graph:
    """`g`, which is `pl.graph` or its deformation `o_set(pl, s)`, with
    the rewiring operator applied for each pair index in `pairs`: the
    deformation `o_set(pl, s | pairs)`.

    Each link y_i x_k of `pl` (i in `pairs`) becomes the cover edge
    x_k x_i.  Only the neighbour masks are written: `g`'s, with the bits
    y_i and x_k cleared on each other and x_i and x_k set on each other,
    as the labeling's `row_writes` for pair i list them.  The masks are
    set and cleared, never toggled, so a cover edge x_k x_i that is
    already there, or that two links produce, stays one edge, and a pair
    rewired twice is rewired once.  The new graph is built from them on
    `g`'s vertices; when no pair in `pairs` has a link, `g` itself is
    returned.
    """
    writes, masks, moved = pl.row_writes, list(g.neighbours), False
    for i in pairs:
        for row, cleared, added in writes[i]:
            masks[row] = masks[row] & ~cleared | added
            moved = True
    return Graph(g.vertices, tuple(masks)) if moved else g


def o_set(pl: PairedLabeling, t) -> Graph:
    """Compose the rewiring operator over an index set.

    The operators touch disjoint y-stars, so the composition is one
    rewrite of the original edges: each link y_i x_k (i in t, k in
    `pl.relations.links[i]`) becomes the cover edge x_k x_i.  The removed
    edges are x-y and the added ones x-x, so the order of the rewrites
    does not matter, and rewiring one pair leaves the links of every
    other pair as they were.  Hence `o_set(pl, s | t)` is t's rewiring
    applied to `o_set(pl, s)`, with the links read from the original
    graph: `o_set` is `rewire` on `pl.graph`, and `deformations` builds
    each subset's graph from a smaller one.  When no pair in t has a
    link, the input graph itself is returned.
    """
    t, n = set(t), pl.n
    out_of_range = {i for i in t if not 1 <= i <= n}
    if out_of_range:
        raise InputFormatError(
            f"pair indices {sorted(out_of_range)} out of range 1..{n}"
        )
    return rewire(pl, pl.graph, t)


def index_subsets(n: int):
    """Every subset of the pair indices 1..n as a sorted tuple, by size
    and then lexicographically."""
    for size in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


@functools.cache
def _subset_bits(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """`index_subsets(n)`, each subset with its mask, bit i for pair i;
    built once per pair count."""
    return tuple((t, sum(1 << i for i in t)) for t in index_subsets(n))


def deformations(pl: PairedLabeling):
    """Each subset t of `index_subsets(pl.n)`, in that order, with its
    deformation `o_set(pl, t)` and whether this is the first time that
    graph is built.

    The deformation depends only on the linked pairs of t, those i with a
    link y_i x_k, so the subsets are walked as a lattice keyed by their
    linked pairs, as a mask.  A key first occurs as a subset of its own
    (every later subset with that key is larger), so its graph is built
    there, by one `rewire` from the graph of the key without its last
    pair, which came earlier; every later subset with that key gets the
    same object.  The key of no pair is the input graph, never built.
    """
    linked = sum(1 << i for i, m in enumerate(pl.relations.links) if m)
    built = {0: pl.graph}
    for t, bits in _subset_bits(pl.n):
        key = bits & linked
        g = built.get(key)
        if g is None:
            last = key.bit_length() - 1
            g = built[key] = rewire(pl, built[key ^ 1 << last], (last,))
            yield t, g, True
        else:
            yield t, g, False


def restricted_o_full(pl: PairedLabeling) -> Graph:
    """The rewiring over all pairs, restricted to the cover side.

    On the x vertices that graph keeps every cover edge x_i x_j and gains
    x_k x_i for each link y_i x_k, so it is read off the pair relations:
    x_i meets x_j for each bit j of `cover[i] | links[i] | cross[i]`
    (`cross` is the transpose of `links`), on the sorted x names, whose
    bits the row's pair bits select.  Its covers and independent sets
    drive the type, level and Gorenstein computations.
    """
    cross, links, cover = pl.relations
    names = tuple(sorted(pl.x_names))
    rank = dict(zip(names, range(len(names))))
    at = [rank[x] for x in pl.x_names]  # bit of x_i, at index i - 1
    bit = [0] + [1 << a for a in at]  # by pair index
    masks = [0] * len(names)
    for i in range(1, pl.n + 1):  # distinct bits, so their sum is their union
        masks[at[i - 1]] = sum(selected(bit, cover[i] | links[i] | cross[i]))
    return Graph(names, tuple(masks))


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
        for a, b in self.graph.edge_list():
            if (a in xs) == (b in xs):
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
            if not v.isdecimal():
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
