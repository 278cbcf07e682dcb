"""The memoized pair relations of a labeling, pinned to the has_edge scans
they replaced (`oracles.*_def`) on seeded random labelings."""

import itertools
import pickle
import random

import pytest

import cmgraphs.transform as transform
from cmgraphs.census import enumerate_class
from cmgraphs.criteria import _crosschecked_unmixed, _structural_scan
from cmgraphs.errors import PreconditionError
from cmgraphs.graphs import (
    Graph,
    add_edges,
    bit_positions,
    induced_subgraph,
    pairs_graph,
    remove_edges,
)
from cmgraphs.pairing import (
    PairedLabeling,
    find_cycle,
    make_labeling,
    mask_check,
    relabel_for_double_star,
    satisfies_double_star,
    validate_labeling,
    xy_matchings,
)
from cmgraphs.transform import index_subsets, o_set, restricted_o_full
from conftest import count_builds
from oracles import (
    find_cycle_def,
    iter_perfect_matchings_def,
    o_set_def,
    relabel_for_double_star_def,
    relations_def,
    satisfies_double_star_def,
    structural_scan_def,
    validate_labeling_def,
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
        assert pl.relations == relations_def(pl)
        assert _structural_scan(pl).to_dict() == structural_scan_def(pl).to_dict()
        for max_r in (2, 3, None):
            assert find_cycle(pl, max_r) == find_cycle_def(pl, max_r)
        assert outcome(relabel_for_double_star, pl) == outcome(
            relabel_for_double_star_def, pl
        )
        assert satisfies_double_star(pl) == satisfies_double_star_def(pl)
        t = [i for i in range(1, pl.n + 1) if rng.random() < 0.5]
        assert o_set(pl, t) == o_set_def(pl, t)
        full = o_set_def(pl, range(1, pl.n + 1))
        assert restricted_o_full(pl) == induced_subgraph(full, pl.x_names)


def renamed(pl, rng):
    """`pl` with its vertices renamed at random and its pairs shuffled, so
    that the names sort out of pair order."""
    names = rng.sample([f"v{k:02d}" for k in range(40)], len(pl.graph.vertices))
    new = dict(zip(pl.graph.vertices, names))
    edges = [(new[a], new[b]) for a, b in pl.graph.edge_list()]
    pairs = [(new[x], new[y]) for x, y in pl.pairs]
    rng.shuffle(pairs)
    return PairedLabeling(Graph.build(names, edges), tuple(pairs))


def test_mask_relations_and_the_x_y_walk_match_the_definitions():
    # every member with n <= 3, and seeded n = 4-6 members renamed so
    # that their names sort out of pair order, with their pairs shuffled
    rng = random.Random(30909)
    members = [pl for n in (1, 2, 3) for pl in enumerate_class(n)]
    for n, count in ((4, 300), (5, 120), (6, 40)):
        drawn = enumerate_class(n, mode="sample", seed=n, count=count)
        members += [renamed(pl, rng) for pl in drawn]
    unsorted = second = 0
    for pl in members:
        assert validate_labeling(pl) == []
        assert pl.relations == relations_def(pl)
        names = pl.graph.vertices
        walked = [
            tuple((names[v], names[u]) for v, u in m)
            for m in itertools.islice(xy_matchings(pl), 2)
        ]
        assert walked == list(itertools.islice(iter_perfect_matchings_def(pl.graph), 2))
        unsorted += list(pl.x_names) != sorted(pl.x_names)
        second += len(walked) == 2
    assert len(members) > 900 and unsorted > 400 and second > 600


def test_validator_reads_the_masks_as_the_adjacency_did():
    # each labeling also without one of its edges, with its last pair
    # dropped or its first pair repeated, and with its first pair's sides
    # swapped
    rng = random.Random(9094368)
    for _ in range(CASES // 5):
        pl = random_labeling(rng)
        g, pairs = pl.graph, pl.pairs
        variants = [
            pl,
            pl.with_graph(remove_edges(g, [rng.choice(g.edge_list())])),
            PairedLabeling(g, pairs[:-1]),
            PairedLabeling(g, pairs + pairs[:1]),
            PairedLabeling(g, (pairs[0][::-1],) + pairs[1:]),
        ]
        for v in variants:
            assert validate_labeling(v) == validate_labeling_def(v)


def twelve_pairs(drop=(), add=()):
    """The labeling x_i y_i, i = 1..12, on the matching without `drop`
    plus `add`.  Bit order is sorted-name order, so x10 comes before x2."""
    pairs = tuple((f"x{i}", f"y{i}") for i in range(1, 13))
    edges = [p for p in pairs if p not in drop] + list(add)
    names = [v for p in pairs for v in p]
    return PairedLabeling(Graph.build(vertices=names, edges=edges), pairs)


def test_validator_reports_every_failed_check_in_order():
    dropped = [("x2", "y2"), ("x10", "y10")]
    cases = [
        (
            twelve_pairs(drop=[("x3", "y3")], add=[("y11", "y2"), ("y1", "y2")]),
            [
                "matching edge x3-y3 missing",
                "X is not a vertex cover",
                "Y is not independent",
            ],
        ),
        (
            twelve_pairs(drop=[("x12", "y12")], add=[("x3", "y1")]),
            [
                "matching edge x12-y12 missing",
                "X is not minimal: x12 is redundant",
                "Y is not maximal: x12 extends it",
            ],
        ),
    ]
    # x2 and x10 lose their only y neighbour, with or without a cover edge
    # between them: both are redundant and both extend Y, and x10 is named
    for add in ([], [("x2", "x10")]):
        cases.append(
            (
                twelve_pairs(drop=dropped, add=add),
                [
                    "matching edge x2-y2 missing",
                    "matching edge x10-y10 missing",
                    "X is not minimal: x10 is redundant",
                    "Y is not maximal: x10 extends it",
                ],
            )
        )
    full = twelve_pairs()
    cases += [
        (
            PairedLabeling(full.graph, full.pairs[:-1] + (("x1", "y12"),)),
            [
                "pair names must be distinct and the sides disjoint",
                "pairs must partition the vertex set",
            ],
        ),
        (
            PairedLabeling(full.graph, ()),
            [
                "labeling must have at least one pair",
                "pairs must partition the vertex set",
            ],
        ),
        (PairedLabeling(Graph.build(), ()), ["labeling must have at least one pair"]),
    ]
    for pl, problems in cases:
        assert validate_labeling(pl) == validate_labeling_def(pl) == problems


def test_validator_on_every_small_deformation_matches_the_adjacency():
    # every deformation of every member with n <= 3, also without its
    # first matching edge and with its first pair's sides swapped
    deformations = 0
    for n in (1, 2, 3):
        for pl in enumerate_class(n):
            for t in index_subsets(n):
                d = pl.with_graph(o_set(pl, t))
                first = d.pairs[0]
                for v in (
                    d,
                    d.with_graph(remove_edges(d.graph, [first])),
                    PairedLabeling(d.graph, (first[::-1],) + d.pairs[1:]),
                ):
                    assert validate_labeling(v) == validate_labeling_def(v)
                deformations += 1
    assert deformations == 1 * 2 + 8 * 4 + 512 * 8


def _joined(masks, a, b, on):
    """The masks with the edge between positions a and b set or cleared."""
    masks = list(masks)
    if on:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    else:
        masks[a] &= ~(1 << b)
        masks[b] &= ~(1 << a)
    return masks


def _cut(masks, a, others):
    """The masks with every edge between position a and `others` cleared."""
    for b in bit_positions(others):
        masks = _joined(masks, a, b, False)
    return masks


def corrupted_masks(pl, masks, rng):
    """`masks` (over `pl`'s vertices), and the same with one matching edge
    dropped, one y-y edge added, one x cut off from every vertex outside
    X, and one x cut off from Y."""
    position = pl.graph.position
    xs = [position[x] for x in pl.x_names]
    ys = [position[y] for y in pl.y_names]
    x_mask = sum(1 << p for p in xs)
    y_mask = sum(1 << p for p in ys)
    outside = (1 << len(masks)) - 1 & ~x_mask
    i = rng.randrange(pl.n)
    out = [masks, _joined(masks, xs[i], ys[i], False)]
    if pl.n > 1:
        a, b = rng.sample(ys, 2)
        out.append(_joined(masks, a, b, True))
    out.append(_cut(masks, rng.choice(xs), outside))
    out.append(_cut(masks, rng.choice(xs), y_mask))
    return out


def test_the_mask_check_of_a_deformation_agrees_with_both_validators():
    # every subset of every member with n <= 3 and of a seeded n = 4
    # sample, each deformation's masks also corrupted four ways
    rng = random.Random(9094368)
    members = [pl for n in (1, 2, 3) for pl in enumerate_class(n)]
    members += enumerate_class(4, mode="sample", seed=21, count=150)
    failed = checked = 0
    for pl in members:
        check = mask_check(pl)
        for t in index_subsets(pl.n):
            deformed = o_set(pl, t).neighbours
            for masks in corrupted_masks(pl, deformed, rng):
                v = pl.with_graph(Graph(pl.graph.vertices, tuple(masks)))
                got = check(masks)
                assert got == validate_labeling(v) == validate_labeling_def(v)
                failed += bool(got)
                checked += 1
    assert checked > 20000 and failed > checked // 2


def tangled_labeling(rng):
    """A labeling on at most six vertices whose pairs repeat names or put
    one name on both sides, so that Y need not be V - X; most draws still
    name every vertex, so the validator gets past the partition check."""
    names = [f"v{i}" for i in range(rng.randint(2, 6))]
    drawn = rng.sample(names, len(names)) + rng.choices(names, k=rng.randint(0, 4))
    if rng.random() < 0.1:
        drawn.pop(0)
    if len(drawn) % 2:
        drawn.append(rng.choice(names))
    rng.shuffle(drawn)
    p = rng.choice([0.2, 0.4, 0.7])
    edges = [e for e in itertools.combinations(names, 2) if rng.random() < p]
    pairs = tuple(zip(drawn[::2], drawn[1::2]))
    return PairedLabeling(Graph.build(vertices=names, edges=edges), pairs)


def test_validator_on_repeated_and_shared_names_matches_the_adjacency():
    rng = random.Random(4368090)
    tangled = 0
    for _ in range(CASES):
        pl = tangled_labeling(rng)
        xs, ys = set(pl.x_names), set(pl.y_names)
        if len(xs) < pl.n or len(ys) < pl.n or xs & ys:
            tangled += 1
        assert validate_labeling(pl) == validate_labeling_def(pl)
    assert tangled > CASES // 2


def std_labeling():
    # x1 -> x2 -> x3 upward cross edges plus one cover edge
    g = add_edges(pairs_graph(3), [("x1", "y2"), ("x2", "y3"), ("x1", "y3"), ("x2", "x3")])
    return make_labeling(g, [(f"x{i}", f"y{i}") for i in range(1, 4)])


def test_relations_are_built_once_per_labeling(monkeypatch):
    # the validator in make_labeling has read the pairs' bit positions
    # already; the relations read that record, not the names
    pl = std_labeling()
    assert "bits" in vars(pl)
    read = count_builds(monkeypatch, PairedLabeling, "bits")
    built = count_builds(monkeypatch, PairedLabeling, "relations")
    _structural_scan(pl)
    _structural_scan(pl)
    upward = relabel_for_double_star(pl)
    # the order is already upward, so the relabeling returns pl itself
    assert upward is pl and built == [pl]
    satisfies_double_star(upward)
    find_cycle(pl)
    assert read == [] and built == [pl]
    # bit j stands for pair j; entry 0 is no pair
    assert pl.relations.cross == (0, 0b1100, 0b1000, 0)
    assert pl.relations.cover == (0, 0, 0b1000, 0b100)
    with pytest.raises(TypeError):
        pl.relations.links[1] = 0


def test_o_set_on_a_deformed_labeling_matches_the_oracle():
    rng = random.Random(4368)
    members = [random_labeling(rng) for _ in range(CASES // 5)]
    members += enumerate_class(4, mode="sample", seed=14, count=400)
    for pl in members:
        s = [i for i in range(1, pl.n + 1) if rng.random() < 0.5]
        t = [i for i in range(1, pl.n + 1) if rng.random() < 0.5]
        deformed = pl.with_graph(o_set(pl, s))
        got = o_set(deformed, t)
        expected = o_set_def(pl.with_graph(o_set_def(pl, s)), t)
        assert got == expected


def test_restricted_deformation_reads_the_relations(monkeypatch):
    # built from the cover edges and the links alone: no deformation of
    # the whole graph and no restriction of one
    def refuse(*args):
        raise AssertionError("restricted_o_full deformed the whole graph")

    monkeypatch.setattr(transform, "o_set", refuse)
    monkeypatch.setattr(transform, "induced_subgraph", refuse, raising=False)
    for n in (1, 2, 3):
        for pl in enumerate_class(n):
            full = o_set_def(pl, range(1, n + 1))
            assert restricted_o_full(pl) == induced_subgraph(full, pl.x_names)


def test_with_graph_gets_fresh_relations():
    pl = std_labeling()
    assert pl.relations.links[3] == 0b110
    deformed = pl.with_graph(o_set(pl, (3,)))
    assert deformed.relations.links[3] == 0
    assert deformed.relations.cover[1] == 0b1000
    assert pl.relations.links[3] == 0b110


def test_labeling_identity_ignores_the_memo():
    pl = std_labeling()
    fresh = PairedLabeling(pl.graph, pl.pairs)
    memo = {"relations", "short_cycle", "unmixed"}
    pl.relations
    assert pl.short_cycle is None
    assert _crosschecked_unmixed(pl) is _crosschecked_unmixed(pl)
    assert memo <= set(vars(pl))
    assert pl == fresh and hash(pl) == hash(fresh) and repr(pl) == repr(fresh)
    assert pickle.dumps(pl) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(pl))
    assert restored == pl and not memo & set(vars(restored))
    assert not memo & set(vars(pl.with_graph(pl.graph)))
