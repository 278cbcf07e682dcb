import itertools
import json
import random

import pytest

from cmgraphs.census import enumerate_class
from cmgraphs.complexes import (
    SimplicialComplex,
    all_faces,
    check_shelling,
    complementary_complex,
    field_label,
    find_shelling,
    format_complex,
    is_pure,
    is_strongly_connected,
    reduced_homology_ranks,
    reisner_cm,
)
from cmgraphs.errors import CapacityError, InputFormatError, PreconditionError
from cmgraphs.graphs import (
    Graph,
    maximal_independent_sets,
    minimal_vertex_covers,
    pairs_graph,
)
from cmgraphs.verdicts import Verdict
from conftest import RP2_FACETS
from oracles import brute_maximal_independents, is_strongly_connected_def


def _random_graphs(rng, count):
    """Seeded graphs on up to 7 vertices, isolated vertices included."""
    graphs = [Graph((), frozenset()), Graph(("b", "a"), frozenset())]
    for _ in range(count):
        vs = [f"u{i}" for i in range(rng.randint(1, 7))]
        p = rng.choice([0.2, 0.4, 0.6])
        edges = [e for e in itertools.combinations(vs, 2) if rng.random() < p]
        graphs.append(Graph.build(vertices=vs, edges=edges))
    return graphs


def test_from_facets_keeps_maximal_only():
    c = SimplicialComplex.from_facets([{"a"}, {"a", "b"}, {"b", "c"}])
    assert c.facet_lists() == [["a", "b"], ["b", "c"]]
    with pytest.raises(InputFormatError):
        SimplicialComplex.from_facets([{"a"}], vertices=["a", "b"])


def test_complementary_complex_examples(c4, ex31):
    assert complementary_complex(c4).facet_lists() == [
        ["x1", "x2"],
        ["y1", "y2"],
    ]
    assert complementary_complex(ex31).facet_lists() == [
        ["x1", "x2", "x3"],
        ["x2", "x3", "y1"],
        ["x3", "y1", "y2"],
        ["y1", "y2", "y3"],
    ]
    edgeless = Graph.build(vertices=["a", "b"])
    assert complementary_complex(edgeless).facet_lists() == [["a", "b"]]


def test_complementary_complex_is_the_maximal_independent_sets():
    for g in _random_graphs(random.Random(53), 300):
        assert complementary_complex(g) == SimplicialComplex.from_facets(
            maximal_independent_sets(g), vertices=g.vertices
        )


def test_facets_complement_minimal_covers_small_sweep(ex31, c4):
    graphs = [ex31, c4, pairs_graph(2)]
    vertices = [f"v{i}" for i in range(4)]
    candidates = list(itertools.combinations(vertices, 2))
    for mask in range(1 << len(candidates)):
        edges = [candidates[b] for b in range(len(candidates)) if mask >> b & 1]
        graphs.append(Graph.build(vertices=vertices, edges=edges))
    for g in graphs:
        facets = set(complementary_complex(g).facets)
        verts = frozenset(g.vertices)
        assert facets == {verts - c for c in minimal_vertex_covers(g)}
        assert facets == set(
            brute_maximal_independents(g.vertices, g.edge_list())
        )


def test_is_pure(c4, ex31, graft_spec):
    from cmgraphs.transform import b_graft

    assert is_pure(complementary_complex(c4)).value
    path = Graph.build(edges=[("a", "b"), ("b", "c")])
    verdict = is_pure(complementary_complex(path))
    assert verdict.value is False
    assert verdict.certificate["facet_sizes"] == [1, 2]
    g, _ = b_graft(graft_spec)
    verdict = is_pure(complementary_complex(g))
    assert verdict.value and verdict.certificate["facet_sizes"] == [4, 4, 4, 4, 4]


def test_strong_connectivity(c4, ex31):
    verdict = is_strongly_connected(complementary_complex(c4))
    assert verdict.value is False
    assert verdict.certificate["components"] == [
        [["x1", "x2"]],
        [["y1", "y2"]],
    ]

    verdict = is_strongly_connected(complementary_complex(ex31))
    assert verdict.value is True
    chain = verdict.certificate["chain"]
    assert chain == [
        ["x1", "x2", "x3"],
        ["x2", "x3", "y1"],
        ["x3", "y1", "y2"],
        ["y1", "y2", "y3"],
    ]
    for a, b in zip(chain, chain[1:]):
        assert len(set(a) & set(b)) == len(a) - 1

    single = SimplicialComplex.from_facets([{"a", "b"}])
    assert is_strongly_connected(single).value is True

    path = Graph.build(edges=[("a", "b"), ("b", "c")])
    with pytest.raises(PreconditionError):
        is_strongly_connected(complementary_complex(path))


def test_strong_connectivity_matches_facet_pair_reference():
    rng = random.Random(47)
    verts = [f"v{i}" for i in range(7)]
    cases = [complementary_complex(g) for g in _random_graphs(rng, 300)]
    for _ in range(300):
        size = rng.choice([1, 2, 3])
        facets = {
            frozenset(rng.sample(verts, size)) for _ in range(rng.randint(1, 9))
        }
        cases.append(SimplicialComplex.from_facets(facets))
    values = []
    for c in cases:
        try:
            want = is_strongly_connected_def(c)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as got:
                is_strongly_connected(c)
            assert str(got.value) == str(exc)
            assert got.value.witness == exc.witness
            continue
        got = is_strongly_connected(c)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        values.append(got.value)
    assert values.count(True) > 100 and values.count(False) > 50


def test_find_shelling(ex31, c4):
    complex_ = complementary_complex(ex31)
    order = find_shelling(complex_)
    assert order is not None
    assert check_shelling(complex_, order)

    assert find_shelling(complementary_complex(c4)) is None

    single = SimplicialComplex.from_facets([{"a", "b"}])
    assert find_shelling(single) == list(single.facets)

    with pytest.raises(PreconditionError):
        find_shelling(
            complementary_complex(Graph.build(edges=[("a", "b"), ("b", "c")]))
        )


def test_find_shelling_capacity():
    big = complementary_complex(pairs_graph(5))  # 32 facets
    with pytest.raises(CapacityError):
        find_shelling(big)


def test_check_shelling_rejects_bad_orders(c4, ex31):
    c = complementary_complex(c4)
    for order in (list(c.facets), list(reversed(c.facets))):
        assert not check_shelling(c, order)
    good = complementary_complex(ex31)
    order = find_shelling(good)
    assert not check_shelling(good, order[:2])  # wrong facet set


def test_shellable_implies_strongly_connected():
    from cmgraphs.census import enumerate_class

    for n in (2, 3):
        for pl in enumerate_class(n):
            complex_ = complementary_complex(pl.graph)
            if not is_pure(complex_).value:
                continue
            order = find_shelling(complex_)
            if order is not None:
                assert is_strongly_connected(complex_).value


def test_shelling_search_matches_permutation_bruteforce():
    # random small pure complexes: the memoized search must agree with
    # trying every facet order through the independent checker, and any
    # shellable complex must pass the homology oracle over both fields
    rng = random.Random(123)
    verts = ["a", "b", "c", "d", "e", "f"]
    checked = 0
    for _ in range(120):
        size = rng.choice([2, 3])
        facets = set()
        while len(facets) < rng.randint(1, 5):
            facets.add(frozenset(rng.sample(verts, size)))
        c = SimplicialComplex.from_facets(facets)
        if not is_pure(c).value:
            continue
        checked += 1
        found = find_shelling(c)
        brute = any(
            check_shelling(c, list(p))
            for p in itertools.permutations(c.facets)
        )
        assert (found is not None) == brute
        if found is not None:
            assert check_shelling(c, found)
            assert reisner_cm(c, 2).value is True
            assert reisner_cm(c, "Q").value is True
            assert is_strongly_connected(c).value is True
    assert checked > 60


def test_homology_known_complexes():
    circle = SimplicialComplex.from_facets([{"a", "b"}, {"b", "c"}, {"a", "c"}])
    assert reduced_homology_ranks(circle, 2) == [0, 0, 1]
    assert reduced_homology_ranks(circle, "Q") == [0, 0, 1]

    two_edges = SimplicialComplex.from_facets([{"a", "b"}, {"c", "d"}])
    assert reduced_homology_ranks(two_edges, 2) == [0, 1, 0]

    simplex = SimplicialComplex.from_facets([{"a", "b", "c"}])
    assert reduced_homology_ranks(simplex, 2) == [0, 0, 0, 0]

    point_pair = SimplicialComplex.from_facets([{"a"}, {"b"}])
    assert reduced_homology_ranks(point_pair, 2) == [0, 1]

    empty_facet = SimplicialComplex.from_facets([set()])
    assert reduced_homology_ranks(empty_facet, 2) == [1]


def test_homology_of_matching_complex_is_a_sphere():
    # the independence complex of n matched pairs is the boundary of the
    # n-dimensional cross-polytope: one sphere class on top, nothing else
    for n, field in ((2, 2), (3, 2), (3, "Q")):
        c = complementary_complex(pairs_graph(n))
        ranks = reduced_homology_ranks(c, field)
        assert ranks == [0] * n + [1]


def test_homology_detects_field_dependence():
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    assert reduced_homology_ranks(rp2, 2) == [0, 0, 1, 1]
    assert reduced_homology_ranks(rp2, "Q") == [0, 0, 0, 0]
    assert reduced_homology_ranks(rp2, 3) == [0, 0, 0, 0]


def test_field_label_spells_the_rationals_one_way():
    assert field_label("Q") == "Q"
    assert [field_label(p) for p in (2, 3)] == ["F2", "F3"]
    for other in ("q", "rational"):
        with pytest.raises(ValueError):
            field_label(other)


def test_boundary_composition_vanishes():
    # rank argument: d(d(x)) = 0 forces rank B_d + rank B_{d+1} <= dim C_d
    from cmgraphs.complexes import _ranks_from_faces

    c = complementary_complex(pairs_graph(3))
    faces = all_faces(c)
    betti = _ranks_from_faces(faces, 2)
    euler = sum((-1) ** (len(f) + 1) for f in faces)  # (-1)^dim, dim = |f|-1
    assert euler == sum(
        (-1) ** (d + 2) * b for d, b in enumerate(betti, start=-1)
    )


def test_reisner_examples(ex31, c4):
    assert reisner_cm(complementary_complex(ex31), 2).value is True
    assert reisner_cm(complementary_complex(ex31), "Q").value is True

    verdict = reisner_cm(complementary_complex(c4), 2)
    assert verdict.value is False
    profile = verdict.certificate["profile"]
    assert profile["face"] == []
    assert profile["reduced_betti"][1] == 1  # two components
    assert verdict.certificate["offending_dim"] == 0

    for n in (1, 2, 3):
        assert reisner_cm(complementary_complex(pairs_graph(n)), 2).value


def _reisner_by_definition(c, field):
    """Reisner's criterion face by face, each link found by scanning every
    face of the complex: H is in lk(F) when H and F are disjoint and their
    union is a face."""
    from cmgraphs.complexes import _ranks_from_faces

    label = "Q" if field == "Q" else f"F{field}"
    faces = all_faces(c)
    face_set = set(faces)
    for f in faces:
        link = [h for h in face_set if not (h & f) and (h | f) in face_set]
        betti = _ranks_from_faces(link, field)
        if any(b != 0 for b in betti[:-1]):
            profile = {
                "face": sorted(f),
                "link_dim": max(len(h) for h in link) - 1,
                "reduced_betti": betti,
                "field": label,
            }
            offending = next(d for d, b in enumerate(betti, start=-1) if b)
            return Verdict(
                False,
                "homology",
                {"profile": profile, "offending_dim": offending},
            )
    return Verdict(True, "homology", {"faces_checked": len(faces), "field": label})


def test_reisner_link_memo_matches_definition():
    # the oracle's cone shortcut and mask signs against full elimination of
    # every link, over F2, F3 and Q: random complexes, RP2, and the
    # complexes of every class member with at most three pairs
    rng = random.Random(31)
    verts = ["a", "b", "c", "d", "e", "f"]
    complexes = [SimplicialComplex.from_facets([{"a", "b", "c"}, {"a", "d", "e"}])]
    for _ in range(150):
        sizes = [rng.choice([2, 3])] if rng.random() < 0.5 else [1, 2, 3, 4]
        facets = [
            rng.sample(verts, rng.choice(sizes)) for _ in range(rng.randint(1, 6))
        ]
        complexes.append(SimplicialComplex.from_facets(facets))
    complexes.append(SimplicialComplex.from_facets(RP2_FACETS))
    members = {
        complementary_complex(pl.graph) for n in (1, 2, 3) for pl in enumerate_class(n)
    }
    assert len(members) > 50
    complexes += sorted(members, key=lambda c: (c.vertices, c.facet_lists()))
    values = set()
    for c in complexes:
        for field in (2, 3, "Q"):
            got, want = reisner_cm(c, field), _reisner_by_definition(c, field)
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
            values.add((is_pure(c).value, got.value))
    assert values == {(True, True), (True, False), (False, False)}

    # the empty face passes (two triangles glued at a point are contractible)
    # and the first offending face is a, whose link is two disjoint edges
    verdict = reisner_cm(complexes[0], "Q")
    assert verdict.certificate == {
        "profile": {
            "face": ["a"],
            "link_dim": 1,
            "reduced_betti": [0, 1, 0],
            "field": "Q",
        },
        "offending_dim": 0,
    }


def test_reisner_settles_cone_links_without_elimination(monkeypatch):
    # the 8-pair upward chain is Cohen-Macaulay, so every face is checked;
    # each distinct link that is not a cone ranks its boundary maps in
    # dimensions 0 through its own, and a cone (all facets sharing a
    # vertex) ranks none
    g = Graph.build(
        edges=[(f"x{i}", f"y{j}") for i in range(1, 9) for j in range(i, 9)]
    )
    c = complementary_complex(g)
    links = {frozenset(h - f for h in c.facets if f <= h) for f in all_faces(c)}
    cones = [link for link in links if frozenset.intersection(*link)]
    expected = sum(
        max(len(h) for h in link) for link in links - set(cones)
    )
    assert len(links) == 960 and len(cones) == 923 and expected == 120

    import cmgraphs.complexes as complexes

    rank = complexes._rank
    calls = []

    def counted(rows, field):
        calls.append(field)
        return rank(rows, field)

    monkeypatch.setattr(complexes, "_rank", counted)
    for field in (2, "Q"):
        calls.clear()
        assert reisner_cm(c, field).value is True
        assert len(calls) == expected


def test_reisner_rejects_nonpure_complexes():
    path = Graph.build(edges=[("a", "b"), ("b", "c")])
    assert reisner_cm(complementary_complex(path), 2).value is False


def test_all_faces_capacity(monkeypatch):
    c = complementary_complex(pairs_graph(3))
    assert len(all_faces(c)) == 27  # one of x, y or neither per pair
    monkeypatch.setattr("cmgraphs.complexes.HOMOLOGY_FACE_CAP", 10)
    with pytest.raises(CapacityError):
        all_faces(c)


def test_all_faces_cap_bounds_work(monkeypatch):
    # one 40-vertex facet has 2^40 faces; the cap stops the walk at face 11
    monkeypatch.setattr("cmgraphs.complexes.HOMOLOGY_FACE_CAP", 10)
    c = SimplicialComplex.from_facets([{f"v{i:02d}" for i in range(40)}])
    with pytest.raises(CapacityError, match="homology bound 10"):
        all_faces(c)
    with pytest.raises(CapacityError):
        reisner_cm(c, 2)


def test_format_complex(ex31):
    text = format_complex(complementary_complex(ex31))
    assert text == "x1 x2 x3\nx2 x3 y1\nx3 y1 y2\ny1 y2 y3\n"
