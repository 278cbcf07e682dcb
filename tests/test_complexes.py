import itertools
import json
import pickle
import random
from collections import Counter
from pathlib import Path

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
from cmgraphs.graphio import parse_graph, parse_graph_file
from cmgraphs.graphs import (
    Graph,
    maximal_independent_sets,
    minimal_vertex_covers,
    pairs_graph,
)
from cmgraphs.verdicts import Verdict
from conftest import FIXTURES, RP2_FACETS, perfbench_module
from oracles import (
    brute_maximal_independents,
    check_shelling_named,
    find_shelling_named,
    is_strongly_connected_def,
    is_strongly_connected_named,
)


def _random_graphs(rng, count):
    """Seeded graphs on up to 7 vertices, isolated vertices included."""
    graphs = [Graph.build(), Graph.build(("b", "a"))]
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


def test_from_facets_keeps_a_repeated_declared_vertex_once():
    # as `Graph.build` does, so the complex's one bit order sees each
    # name once
    c = SimplicialComplex.from_facets(
        [("a", "b"), ("b", "c")], vertices=["a", "b", "c", "a"]
    )
    assert c.vertices == ("a", "b", "c")
    assert c == SimplicialComplex.from_facets([("a", "b"), ("b", "c")])


def test_a_complex_memoizes_one_bit_order_outside_its_fields():
    # the bit order and the masks are computed once per complex, and
    # equality, hashing, repr and pickling see the two fields alone
    c = SimplicialComplex.from_facets([("b", "c"), ("a", "b"), ("c", "d")])
    fresh = SimplicialComplex(c.vertices, c.facets)
    assert dict(c.bit_order) == {"a": 1, "b": 2, "c": 4, "d": 8}
    assert c.facet_masks == (0b0011, 0b0110, 0b1100)
    assert c.face_masks == (0, 1, 2, 4, 8, 0b0011, 0b0110, 0b1100)
    assert c.facet_masks is c.facet_masks
    assert c.bit_order is c.bit_order
    with pytest.raises(TypeError):
        c.bit_order["e"] = 16
    assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)
    assert pickle.dumps(c) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(c))
    assert restored == c and "facet_masks" not in vars(restored)
    assert all_faces(c) == [
        frozenset(n for n, bit in c.bit_order.items() if s & bit)
        for s in c.face_masks
    ]


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


def _route_inputs(monkeypatch):
    """The complexes of every member with at most three pairs, of the
    fixtures and of the benchmark's oracle_routes inputs for seeds 1-3,
    then seeded `from_facets` complexes that are not flag, pure or not."""
    members = {
        complementary_complex(pl.graph) for n in (1, 2, 3) for pl in enumerate_class(n)
    }
    cases = sorted(members, key=lambda c: (c.vertices, c.facet_lists()))
    graphs = [
        parse_graph_file(path).graph for path in sorted(Path(FIXTURES).glob("*.graph"))
    ]
    perfbench_module("checks", monkeypatch)
    inputs = perfbench_module("inputs", monkeypatch)
    texts = {
        item.text
        for seed in (1, 2, 3)
        for item in inputs.oracle_routes(seed, Path(FIXTURES))
    }
    graphs += [parse_graph(text).graph for text in sorted(texts)]
    cases += [complementary_complex(g) for g in graphs]
    rng = random.Random(61)
    verts = ["a", "b", "c", "d", "e", "f", "g"]
    non_flag = []
    while len(non_flag) < 120:
        sizes = [rng.choice([2, 3])] if rng.random() < 0.6 else [2, 3, 3, 4]
        facets = [
            rng.sample(verts, rng.choice(sizes)) for _ in range(rng.randint(2, 8))
        ]
        c = SimplicialComplex.from_facets(facets)
        if not _is_flag(c):
            non_flag.append(c)
    return cases + non_flag


def test_strong_connectivity_matches_facet_pair_reference(monkeypatch):
    # the mask route against the facet-pair reference and the named route
    # it replaced: random graphs and complexes, every member with at most
    # three pairs, the fixtures, the oracle_routes inputs and non-flag
    # complexes; a non-pure complex raises the same error from all three
    rng = random.Random(47)
    verts = [f"v{i}" for i in range(7)]
    cases = [complementary_complex(g) for g in _random_graphs(rng, 300)]
    for _ in range(300):
        size = rng.choice([1, 2, 3])
        facets = {
            frozenset(rng.sample(verts, size)) for _ in range(rng.randint(1, 9))
        }
        cases.append(SimplicialComplex.from_facets(facets))
    cases += _route_inputs(monkeypatch)
    values, impure = [], 0
    for c in cases:
        try:
            want = is_strongly_connected_def(c)
        except PreconditionError as exc:
            for route in (is_strongly_connected, is_strongly_connected_named):
                with pytest.raises(PreconditionError) as got:
                    route(c)
                assert str(got.value) == str(exc)
                assert got.value.witness == exc.witness
            impure += 1
            continue
        want = json.dumps(want.to_dict())
        assert json.dumps(is_strongly_connected_named(c).to_dict()) == want
        got = is_strongly_connected(c)
        assert json.dumps(got.to_dict()) == want
        values.append(got.value)
    assert values.count(True) > 100 and values.count(False) > 50
    assert impure > 100


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
        orders = [list(p) for p in itertools.permutations(c.facets)]
        valid = [check_shelling(c, order) for order in orders]
        assert valid == [check_shelling_named(c, order) for order in orders]
        brute = any(valid)
        assert (found is not None) == brute
        if found is not None:
            assert check_shelling(c, found)
            assert reisner_cm(c, 2).value is True
            assert reisner_cm(c, "Q").value is True
            assert is_strongly_connected(c).value is True
    assert checked > 60


def test_shelling_matches_the_named_reference(monkeypatch):
    # the mask search finds the named search's order, or proves there is
    # none, or raises its error, on every route input; the mask validator
    # agrees with the named one on the found order and on seeded
    # permutations and a short order of each complex with at most 8 facets
    rng = random.Random(73)
    outcomes, checks = Counter(), Counter()
    big = complementary_complex(pairs_graph(5))  # 32 facets
    for c in _route_inputs(monkeypatch) + [big]:
        try:
            want = find_shelling_named(c)
        except (PreconditionError, CapacityError) as exc:
            with pytest.raises(type(exc)) as got:
                find_shelling(c)
            assert str(got.value) == str(exc)
            assert getattr(got.value, "witness", None) == getattr(exc, "witness", None)
            outcomes[type(exc).__name__] += 1
            continue
        got = find_shelling(c)
        assert got == want
        outcomes[got is not None] += 1
        orders = [] if want is None else [want]
        if len(c.facets) <= 8:
            orders += [rng.sample(c.facets, len(c.facets)) for _ in range(8)]
            orders.append(list(c.facets)[1:])
        for order in orders:
            valid = check_shelling(c, order)
            assert valid == check_shelling_named(c, order)
            checks[valid] += 1
    assert outcomes[True] > 80 and outcomes[False] > 50
    assert outcomes["PreconditionError"] > 400 and outcomes["CapacityError"] == 1
    assert checks[True] > 300 and checks[False] > 800


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


def _matches_definition(c, field):
    got, want = reisner_cm(c, field), _reisner_by_definition(c, field)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    return got


def test_reisner_link_memo_matches_definition():
    # the oracle's strong-collapse cores and mask signs against full
    # elimination of every link, over F2, F3 and Q: random complexes, RP2,
    # and the complexes of every class member with at most three pairs
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
    values = {
        (is_pure(c).value, _matches_definition(c, field).value)
        for c in complexes
        for field in (2, 3, "Q")
    }
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


def _is_flag(c):
    """Every vertex set whose pairs are all faces is itself a face."""
    faces = set(all_faces(c))
    return all(
        frozenset(s) in faces
        for k in range(3, len(c.vertices) + 1)
        for s in itertools.combinations(c.vertices, k)
        if all(frozenset(e) in faces for e in itertools.combinations(s, 2))
    )


def test_reisner_on_non_flag_complexes_matches_definition():
    # independence complexes are flag, so the graph inputs never show the
    # core of a complex with a minimal non-face of three or more vertices
    # (a skeleton of a simplex is shellable, so Cohen-Macaulay, and not
    # flag below the top)
    rng = random.Random(59)
    verts = ["a", "b", "c", "d", "e", "f", "g"]
    complexes = []
    while len(complexes) < 60:
        if rng.random() < 0.25:
            span = rng.sample(verts, rng.randint(4, 6))
            facets = itertools.combinations(span, rng.randint(2, len(span) - 2))
        else:
            facets = [
                rng.sample(verts, rng.choice([2, 3, 3, 4]))
                for _ in range(rng.randint(2, 8))
            ]
        c = SimplicialComplex.from_facets(facets)
        if not _is_flag(c):
            complexes.append(c)
    values = {
        _matches_definition(c, field).value
        for c in complexes
        for field in (2, 3, "Q")
    }
    assert values == {True, False}


def test_reisner_keeps_the_torsion_of_a_suspended_projective_plane():
    # the suspension of RP2 has no dominated vertex, so its core is itself:
    # over F2 the empty face's link carries RP2's classes one dimension up,
    # and over F3 and Q every link is acyclic below its top
    srp2 = SimplicialComplex.from_facets(
        [f | {pole} for f in RP2_FACETS for pole in ("n", "s")]
    )
    verdict = _matches_definition(srp2, 2)
    assert verdict.value is False
    assert verdict.certificate["profile"]["face"] == []
    assert verdict.certificate["profile"]["reduced_betti"] == [0, 0, 0, 1, 1]
    for field in (3, "Q"):
        verdict = _matches_definition(srp2, field)
        assert verdict.value is True
        assert verdict.certificate["faces_checked"] == 96


def _strong_core(facets):
    """Delete one dominated vertex at a time, on vertex names: v goes when
    another vertex lies in every facet containing v, and the facets left
    are the maximal sets among the facets minus v."""
    facets = set(facets)
    while True:
        for v in sorted(set().union(*facets)):
            if len(frozenset.intersection(*(h for h in facets if v in h))) > 1:
                rest = {h - {v} for h in facets}
                facets = {h for h in rest if not any(h < g for g in rest)}
                break
        else:
            return facets


def _counted_ranks(monkeypatch):
    import cmgraphs.complexes as complexes

    rank = complexes._rank
    calls = []

    def counted(rows, field):
        calls.append(field)
        return rank(rows, field)

    monkeypatch.setattr(complexes, "_rank", counted)
    return calls


def test_reisner_settles_cone_links_without_elimination(monkeypatch):
    # the 8-pair upward chain is Cohen-Macaulay, so every face is checked;
    # a link that strongly collapses to one vertex ranks nothing, and a
    # cone (all facets sharing a vertex) always does; any other distinct
    # link ranks the boundary maps of its core in dimensions 0 through
    # the core's own
    g = Graph.build(
        edges=[(f"x{i}", f"y{j}") for i in range(1, 9) for j in range(i, 9)]
    )
    c = complementary_complex(g)
    links = {frozenset(h - f for h in c.facets if f <= h) for f in all_faces(c)}
    cones = [link for link in links if frozenset.intersection(*link)]
    cores = {link: _strong_core(link) for link in links}
    assert all(len(set().union(*cores[link])) == 1 for link in cones)
    eliminated = [
        core for core in cores.values() if len(set().union(*core)) != 1
    ]
    expected = sum(max(len(h) for h in core) for core in eliminated)
    assert (len(links), len(cones), len(eliminated)) == (960, 923, 9)
    assert expected == 8

    calls = _counted_ranks(monkeypatch)
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


def test_reisner_counts_every_face_before_any_link(monkeypatch):
    calls = _counted_ranks(monkeypatch)
    monkeypatch.setattr("cmgraphs.complexes.HOMOLOGY_FACE_CAP", 10)
    with pytest.raises(CapacityError, match="homology bound 10"):
        reisner_cm(complementary_complex(pairs_graph(3)), 2)
    assert calls == []


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
