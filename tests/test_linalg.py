import itertools
import random

import pytest

from cmgraphs.linalg import is_prime, rank_gf2, rank_mod_p, rank_rational
from conftest import RP2_FACETS
from oracles import rank_mod_p_def, rank_rational_def


def sparse(dense):
    """The `{column: value}` rows of a dense matrix, zeros left out."""
    return [{j: a for j, a in enumerate(row) if a} for row in dense]


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_rank_empty_and_zero():
    assert rank_mod_p([], 2) == 0
    assert rank_rational(sparse([[0, 0], [0, 0]])) == 0
    assert rank_gf2(sparse([[0, 0]])) == 0
    # explicit zeros, and entries that vanish mod p, carry no rank
    assert rank_rational([{0: 0}]) == rank_mod_p([{1: 6}], 3) == 0
    assert rank_gf2([{0: 2, 1: -4}]) == 0


def test_rank_identity_and_dependent_rows():
    eye = sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank_mod_p(eye, 2) == 3
    assert rank_mod_p(eye, 5) == 3
    assert rank_rational(eye) == 3

    dep = sparse([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank_rational(dep) == 2
    assert rank_mod_p(dep, 5) == 2


def test_rank_depends_on_characteristic():
    # 2 is invertible over Q and over F_3 but vanishes over F_2
    m = sparse([[2, 0], [0, 1]])
    assert rank_rational(m) == 2
    assert rank_mod_p(m, 3) == 2
    assert rank_mod_p(m, 2) == 1


def test_rank_mod_p_rejects_composites():
    with pytest.raises(ValueError):
        rank_mod_p([{0: 1}], 4)


def test_rank_rational_exactness():
    # the 3x3 Hilbert matrix scaled by 60: fragile pivots that floats
    # would misjudge
    m = [[60, 30, 20], [30, 20, 15], [20, 15, 12]]
    assert rank_rational(sparse(m)) == 3
    singular = [m[0], m[1], [a + b for a, b in zip(m[0], m[1])]]
    assert rank_rational(sparse(singular)) == 2


def _boundary_rows(facets, d):
    """Boundary matrix from the d-faces to the (d-1)-faces, one row per
    (d-1)-face, in sorted face order."""
    def faces(k):
        return sorted(
            {c for f in facets for c in itertools.combinations(sorted(f), k)}
        )

    cols, index = faces(d + 1), {s: i for i, s in enumerate(faces(d))}
    rows = [[0] * len(cols) for _ in index]
    for col, f in enumerate(cols):
        for pos in range(len(f)):
            rows[index[f[:pos] + f[pos + 1:]]][col] += (-1) ** pos
    return rows


def _random_matrix(rng):
    n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
    kind = rng.choice(["int", "big", "combination"])

    def entry():
        if rng.random() < 0.4:
            return 0
        if kind == "big":
            return rng.randint(-10**6, 10**6)
        return rng.randint(-3, 3)

    if kind != "combination":
        return [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    # rank deficient by construction: duplicates and integer combinations
    # of a few base rows, shuffled in among them
    base = [[entry() for _ in range(n_cols)] for _ in range(rng.randint(1, 3))]
    rows = [row[:] for row in base]
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            rows.append(rng.choice(base)[:])
        else:
            coeffs = [rng.randint(-3, 3) for _ in base]
            rows.append(
                [sum(k * r[j] for k, r in zip(coeffs, base)) for j in range(n_cols)]
            )
    rng.shuffle(rows)
    return rows


_EDGE_MATRICES = [[], [[]], [[], []], [[0]], [[0, 0, 0]] * 4]


def test_rank_rational_matches_fraction_elimination():
    rng = random.Random(20260)
    matrices = _EDGE_MATRICES + [_random_matrix(rng) for _ in range(1500)]
    for m in matrices:
        rows = sparse(m)
        before = [dict(row) for row in rows]
        assert rank_rational(rows) == rank_rational_def(m), m
        assert rows == before


def test_rank_mod_p_matches_dense_elimination():
    rng = random.Random(20261)
    matrices = _EDGE_MATRICES + [_random_matrix(rng) for _ in range(1000)]
    for m in matrices:
        rows = sparse(m)
        before = [dict(row) for row in rows]
        for p in (2, 3, 5, 7):
            assert rank_mod_p(rows, p) == rank_mod_p_def(m, p), (m, p)
        assert rank_gf2(rows) == rank_mod_p_def(m, 2), m
        assert rows == before


def test_rank_rational_on_rp2_boundaries():
    # H_2(RP^2) vanishes over Q and F_3 but not over F_2: the top boundary
    # map has full rank 10 over Q and F_3 and rank 9 over F_2; the
    # transpose (one row per face of the higher dimension) has the same rank
    d1, d2 = _boundary_rows(RP2_FACETS, 1), _boundary_rows(RP2_FACETS, 2)
    assert (len(d1), len(d2), len(d2[0])) == (6, 15, 10)
    for m, over_q, over_f2 in ((d1, 5, 5), (d2, 10, 9)):
        assert rank_rational_def(m) == over_q
        assert rank_mod_p_def(m, 3) == over_q
        assert rank_mod_p_def(m, 2) == over_f2
        for rows in (sparse(m), sparse(zip(*m))):
            assert rank_rational(rows) == rank_mod_p(rows, 3) == over_q
            assert rank_gf2(rows) == rank_mod_p(rows, 2) == over_f2
