"""The memoized pair relations of a labeling, pinned to the has_edge scans
they replaced (`oracles.*_def`) on seeded random labelings."""

import pickle
import random

import pytest

import cmgraphs.pairing as pairing
from cmgraphs.criteria import _structural_scan
from cmgraphs.errors import PreconditionError
from cmgraphs.graphs import Graph, add_edges, induced_subgraph, pairs_graph
from cmgraphs.pairing import (
    PairedLabeling,
    find_cycle,
    make_labeling,
    relabel_for_double_star,
    satisfies_double_star,
)
from cmgraphs.transform import o_set, restricted_o_full
from oracles import (
    find_cycle_def,
    o_set_def,
    relabel_for_double_star_def,
    satisfies_double_star_def,
    structural_scan_def,
)

CASES = 5000


def random_labeling(rng):
    """A labeled member with distinct names; some draws swap the sides of
    some pairs, add y-y edges or shuffle the pair order, which makes the
    labeling invalid without making the relations undefined."""
    n = rng.randint(1, 7)
    names = rng.sample([f"{c}{d}" for c in "abuvz" for d in range(6)], 2 * n)
    pairs = [(names[i], names[n + i]) for i in range(n)]
    density = rng.random()
    yy = rng.random() < 0.2
    edges = list(pairs)
    for i in range(n):
        for j in range(n):
            if i < j and rng.random() < density:
                edges.append((pairs[i][0], pairs[j][0]))
            if i != j and rng.random() < density:
                edges.append((pairs[i][0], pairs[j][1]))
            if yy and i < j and rng.random() < density / 4:
                edges.append((pairs[i][1], pairs[j][1]))
    if rng.random() < 0.3:
        pairs = [(y, x) if rng.random() < 0.5 else (x, y) for x, y in pairs]
    if rng.random() < 0.3:
        rng.shuffle(pairs)
    return PairedLabeling(Graph.build(edges=edges), tuple(pairs))


def outcome(fn, pl):
    try:
        return fn(pl).pairs
    except PreconditionError as exc:
        return type(exc), str(exc), exc.witness


def test_relations_match_the_has_edge_scans():
    rng = random.Random(20090731)
    for _ in range(CASES):
        pl = random_labeling(rng)
        assert _structural_scan(pl).to_dict() == structural_scan_def(pl).to_dict()
        for max_r in (2, None):
            assert find_cycle(pl, max_r) == find_cycle_def(pl, max_r)
        assert outcome(relabel_for_double_star, pl) == outcome(
            relabel_for_double_star_def, pl
        )
        assert satisfies_double_star(pl) == satisfies_double_star_def(pl)
        t = [i for i in range(1, pl.n + 1) if rng.random() < 0.5]
        assert o_set(pl, t) == o_set_def(pl, t)
        full = o_set_def(pl, range(1, pl.n + 1))
        assert restricted_o_full(pl) == induced_subgraph(full, pl.x_names)


def std_labeling():
    # x1 -> x2 -> x3 upward cross edges plus one cover edge
    g = add_edges(pairs_graph(3), [("x1", "y2"), ("x2", "y3"), ("x1", "y3"), ("x2", "x3")])
    return make_labeling(g, [(f"x{i}", f"y{i}") for i in range(1, 4)])


def test_relations_are_built_once_per_labeling(monkeypatch):
    pl = std_labeling()
    read = []
    real = pairing.adjacency

    def counted(g):
        read.append(g)
        return real(g)

    monkeypatch.setattr(pairing, "adjacency", counted)
    _structural_scan(pl)
    _structural_scan(pl)
    upward = relabel_for_double_star(pl)
    # once for pl, once for the relabeled copy the result check reads
    assert len(read) == 2
    satisfies_double_star(upward)
    find_cycle(pl)
    assert len(read) == 2
    assert pl.relations.cross == {1: {2, 3}, 2: {3}, 3: set()}
    assert pl.relations.cover == {1: set(), 2: {3}, 3: {2}}
    with pytest.raises(TypeError):
        pl.relations.links[1] = frozenset()


def test_with_graph_gets_fresh_relations():
    pl = std_labeling()
    assert pl.relations.links[3] == {1, 2}
    deformed = pl.with_graph(o_set(pl, (3,)))
    assert deformed.relations.links[3] == frozenset()
    assert deformed.relations.cover[1] == {3}
    assert pl.relations.links[3] == {1, 2}


def test_labeling_identity_ignores_the_memo():
    pl = std_labeling()
    fresh = PairedLabeling(pl.graph, pl.pairs)
    pl.relations
    assert pl == fresh and hash(pl) == hash(fresh) and repr(pl) == repr(fresh)
    assert pickle.dumps(pl) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(pl))
    assert restored == pl and "relations" not in vars(restored)
