"""Definitional brute-force oracles used to derive expected values.

Everything here works on raw (vertices, edges) data and iterates over all
subsets, straight from the definitions; nothing is shared with the package
implementation.  Only usable at desk scale.
"""

import itertools
from fractions import Fraction


def is_cover_def(edges, s):
    s = set(s)
    return all(a in s or b in s for a, b in edges)


def is_independent_def(edges, s):
    s = set(s)
    return all(not (a in s and b in s) for a, b in edges)


def all_subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def brute_minimal_covers(vertices, edges):
    covers = [set(s) for s in all_subsets(vertices) if is_cover_def(edges, s)]
    minimal = [
        c for c in covers if not any(other < c for other in covers)
    ]
    return sorted({frozenset(c) for c in minimal}, key=lambda c: tuple(sorted(c)))


def brute_maximal_independents(vertices, edges):
    indep = [
        set(s) for s in all_subsets(vertices) if is_independent_def(edges, s)
    ]
    maximal = [a for a in indep if not any(a < other for other in indep)]
    return sorted({frozenset(a) for a in maximal}, key=lambda a: tuple(sorted(a)))


def brute_height(vertices, edges):
    return min(len(c) for c in brute_minimal_covers(vertices, edges))


def brute_perfect_matchings(vertices, edges):
    """All edge subsets that partition the vertex set into pairs."""
    vertices = set(vertices)
    out = []
    for subset in all_subsets(edges):
        touched = [v for e in subset for v in e]
        if len(touched) == len(set(touched)) and set(touched) == vertices:
            out.append(tuple(sorted(tuple(sorted(e)) for e in subset)))
    return sorted(out)


def brute_is_unmixed(vertices, edges):
    sizes = {len(c) for c in brute_minimal_covers(vertices, edges)}
    return len(sizes) <= 1


def rank_rational_def(rows):
    """Rank over Q by Gauss-Jordan elimination in Fraction arithmetic."""
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(a) for a in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        piv = m[rank][col]
        m[rank] = [a / piv for a in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank
