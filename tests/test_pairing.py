import itertools
import random
import sys

import pytest

import cmgraphs.pairing as pairing
from cmgraphs.errors import (
    InputFormatError,
    NotInClassError,
    PreconditionError,
    RouteDisagreementError,
    StructureError,
)
from cmgraphs.graphs import Graph, add_edges, pairs_graph
from cmgraphs.graphio import parse_graph_file
from cmgraphs.pairing import (
    CycleWitness,
    PairedLabeling,
    all_star_labelings,
    cycle_witness_holds,
    find_cycle,
    find_star_labeling,
    make_labeling,
    relabel_for_double_star,
    satisfies_double_star,
    unique_perfect_matching,
    validate_labeling,
)
from conftest import fixture_path, std_pairs
from oracles import all_star_labelings_def


def test_find_star_labeling_examples(ex31, c4):
    pl = find_star_labeling(ex31)
    assert pl.pairs == (("x1", "y1"), ("x2", "y2"), ("x3", "y3"))

    single = Graph.build(edges=[("a", "b")])
    pl = find_star_labeling(single)
    assert pl.n == 1 and pl.pairs == (("a", "b"),)

    pl = find_star_labeling(c4)
    assert pl.x_names == ("x1", "x2") and pl.y_names == ("y1", "y2")


def test_find_star_labeling_not_in_class():
    path = Graph.build(edges=[("a", "b"), ("b", "c")])
    with pytest.raises(NotInClassError):
        find_star_labeling(path)


def test_find_star_labeling_reports_deficient_set():
    g = parse_graph_file(fixture_path("no_matching.graph")).graph
    with pytest.raises(StructureError) as err:
        find_star_labeling(g)
    assert err.value.hall_set == ["d", "e"]
    assert err.value.neighborhood == ["f"]


def test_labeling_validator_rejects_bad_pairings(ex31):
    # y side not independent: swap one pair the wrong way round
    with pytest.raises(InputFormatError):
        make_labeling(ex31, [("y1", "x1"), ("x2", "y2"), ("x3", "y3")])
    # missing matching edge
    g = Graph.build(edges=[("x1", "y2"), ("x2", "y1"), ("x1", "y1"), ("x2", "y2")])
    with pytest.raises(InputFormatError):
        make_labeling(g, [("x1", "y2"), ("x2", "y2")])


def test_validator_accepts_all_discovered_labelings(ex31, c4):
    for g in (ex31, c4, pairs_graph(2)):
        for pl in all_star_labelings(g):
            assert validate_labeling(pl) == []


def _renamed_members(rng, count):
    """Random class members (matching plus random cover-side and cross
    edges) under random vertex names, so x and y names interleave."""
    names = [f"{c}{k}" for c in "abvwxyz" for k in range(1, 5)]
    for _ in range(count):
        n = rng.randint(1, 4)
        edges = [(f"x{i}", f"y{i}") for i in range(1, n + 1)]
        for i, j in itertools.permutations(range(1, n + 1), 2):
            if i < j and rng.random() < 0.4:
                edges.append((f"x{i}", f"x{j}"))
            if rng.random() < 0.4:
                edges.append((f"x{i}", f"y{j}"))
        old = sorted({v for e in edges for v in e})
        rename = dict(zip(old, rng.sample(names, len(old))))
        yield Graph.build(edges=[(rename[a], rename[b]) for a, b in edges])


def test_all_star_labelings_matches_reference(ex31, c4):
    rng = random.Random(41)
    graphs = [ex31, c4, pairs_graph(3)] + list(_renamed_members(rng, 400))
    for k in range(200):
        vs = [f"v{i}" for i in range(rng.randint(2, 7))]
        edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.4]
        graphs.append(Graph.build(vertices=vs, edges=edges))
    labelings = 0
    for g in graphs:
        got = list(all_star_labelings(g))
        assert got == list(all_star_labelings_def(g)), g
        labelings += len(got)
    assert labelings > 1000


def test_find_cycle_examples(ex31_pl, c4_pl):
    assert find_cycle(ex31_pl) is None
    assert find_cycle(ex31_pl, max_r=3) is None

    w = find_cycle(c4_pl)
    assert w.indices == (1, 2)
    assert cycle_witness_holds(c4_pl, w)


def test_find_cycle_long_cycle_only():
    g = add_edges(pairs_graph(3), [("y1", "x2"), ("y2", "x3"), ("y3", "x1")])
    pl = make_labeling(g, std_pairs(3))
    assert find_cycle(pl, max_r=2) is None
    w = find_cycle(pl)
    assert w.indices == (1, 2, 3)
    assert cycle_witness_holds(pl, w)


def test_find_cycle_through_more_pairs_than_the_recursion_limit():
    # the only cycle is y_i x_{i+1} for i < n and y_n x_1, through all n pairs
    n = 300
    pairs = [(f"x{i}", f"y{i}") for i in range(1, n + 1)]
    links = [(f"y{i}", f"x{i % n + 1}") for i in range(1, n + 1)]
    pl = PairedLabeling(Graph.build(edges=pairs + links), tuple(pairs))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(n - 50)
    try:
        w = find_cycle(pl)
    finally:
        sys.setrecursionlimit(limit)
    assert w.indices == tuple(range(1, n + 1))
    assert find_cycle(pl, max_r=n - 1) is None


def test_cycle_witness_holds_rejects_junk(c4_pl):
    assert not cycle_witness_holds(c4_pl, CycleWitness((1,)))
    assert not cycle_witness_holds(c4_pl, CycleWitness((1, 1)))


def test_cycle_witness_check_on_masks_matches_the_named_edges():
    # every sequence of distinct pair indices on every member with
    # n <= 3, and on members whose matching edge is dropped: the masks
    # give the verdict the named edges x_i y_i and y_i x_j give
    from cmgraphs.census import enumerate_class
    from cmgraphs.graphs import remove_edges

    def by_name(pl, idx):
        g = pl.graph
        return all(
            g.has_edge(pl.x(i), pl.y(i)) and g.has_edge(pl.y(i), pl.x(j))
            for i, j in zip(idx, idx[1:] + idx[:1])
        )

    held = checked = 0
    for n in (2, 3):
        for pl in enumerate_class(n):
            broken = pl.with_graph(remove_edges(pl.graph, [pl.pairs[0]]))
            for r in range(2, n + 1):
                for idx in itertools.permutations(range(1, n + 1), r):
                    for v in (pl, broken):
                        got = cycle_witness_holds(v, CycleWitness(idx))
                        assert got == by_name(v, idx)
                        held += got
                        checked += 1
    assert checked > 10000 and 0 < held < checked // 2


def test_relabel_identity(ex31_pl):
    assert relabel_for_double_star(ex31_pl).pairs == ex31_pl.pairs


def test_relabel_restores_forced_order(ex31):
    shuffled = PairedLabeling(
        ex31, (("x3", "y3"), ("x1", "y1"), ("x2", "y2"))
    )
    assert validate_labeling(shuffled) == []
    relabeled = relabel_for_double_star(shuffled)
    assert relabeled.pairs == (("x1", "y1"), ("x2", "y2"), ("x3", "y3"))
    assert satisfies_double_star(relabeled)


def test_relabel_antichain_keeps_lexicographic_order():
    pl = make_labeling(pairs_graph(2), std_pairs(2))
    assert relabel_for_double_star(pl).pairs == pl.pairs


def test_relabel_is_isomorphism_on_edges(ex31):
    shuffled = PairedLabeling(
        ex31, (("x2", "y2"), ("x3", "y3"), ("x1", "y1"))
    )
    relabeled = relabel_for_double_star(shuffled)
    assert relabeled.graph == ex31  # same graph, only pair order changes
    assert set(relabeled.pairs) == set(shuffled.pairs)


def test_relabel_rejects_antisymmetry_violation(c4_pl):
    with pytest.raises(PreconditionError) as err:
        relabel_for_double_star(c4_pl)
    assert err.value.witness == {"antisymmetry": [1, 2]}


def test_relabel_rejects_transitivity_violation():
    # cross edges x1y2 and x2y3 without x1y3: the relation is not transitive
    g = add_edges(pairs_graph(3), [("x1", "y2"), ("x2", "y3")])
    pl = make_labeling(g, std_pairs(3))
    with pytest.raises(PreconditionError) as err:
        relabel_for_double_star(pl)
    assert err.value.witness == {"transitivity": [1, 2, 3]}


def test_unique_perfect_matching(ex31_pl, c4_pl):
    assert unique_perfect_matching(ex31_pl).value is True
    for n in (1, 2, 3, 4):
        pl = make_labeling(pairs_graph(n), std_pairs(n))
        assert unique_perfect_matching(pl).value is True

    verdict = unique_perfect_matching(c4_pl)
    assert verdict.value is False
    assert verdict.certificate["cycle"] == [1, 2]
    assert verdict.certificate["second_matching"] == [["x1", "y2"], ["x2", "y1"]]


def test_rejected_second_matching_cycle_raises(c4_pl, monkeypatch):
    monkeypatch.setattr(pairing, "cycle_witness_holds", lambda pl, w: False)
    with pytest.raises(RouteDisagreementError) as err:
        unique_perfect_matching(c4_pl)
    assert err.value.dump["cycle"] == [1, 2]
    assert err.value.dump["pairs"] == [list(p) for p in c4_pl.pairs]


def test_second_matching_certificate_is_a_real_matching():
    g = add_edges(pairs_graph(3), [("y1", "x2"), ("y2", "x3"), ("y3", "x1")])
    pl = make_labeling(g, std_pairs(3))
    verdict = unique_perfect_matching(pl)
    assert verdict.value is False
    second = [tuple(p) for p in verdict.certificate["second_matching"]]
    touched = [v for e in second for v in e]
    assert sorted(touched) == sorted(g.vertices)
    for a, b in second:
        assert g.has_edge(a, b)
    assert set(second) != {tuple(sorted(p)) for p in pl.pairs}
