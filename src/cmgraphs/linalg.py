"""Exact rank computation for sparse integer matrices.

A matrix is a list of rows, each a `{column: int}` map of its nonzero
entries; rank is the same for a matrix and its transpose, so callers may
emit whichever side is sparse.  Two coefficient domains are supported:
the prime field F_p (reduction against monic pivot rows, plus a bitmask
XOR basis for p = 2) and the rationals (fraction-free integer row
reduction).  Floating point is never used; these ranks feed a homology
oracle where rounding would be unsound.  Inputs are not modified.
"""

import functools
from math import gcd


@functools.cache
def is_prime(p: int) -> bool:
    """Trial division up to the square root, memoized: `rank_mod_p` asks
    again on every call."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def rank_gf2(rows: list[dict[int, int]]) -> int:
    """Rank over F_2.  Each row's odd entries are packed into a bitmask
    and reduced against the pivots, keyed by their lowest set bit."""
    pivots: dict[int, int] = {}  # lowest set bit -> pivot mask
    for row in rows:
        bits = sum(1 << j for j, a in row.items() if a % 2)
        while bits:
            low = bits & -bits
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = bits
                break
            bits ^= pivot
    return len(pivots)


def rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank over F_p.  Each row is reduced against monic pivot rows,
    keyed by their leading column; p = 2 uses `rank_gf2`."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return rank_gf2(rows)
    pivots: dict[int, dict[int, int]] = {}  # leading column -> pivot row
    for sparse in rows:
        row = {j: a % p for j, a in sparse.items() if a % p}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], p - 2, p)
                pivots[col] = {j: a * inv % p for j, a in row.items()}
                break
            f = row[col]
            for j, x in pivot.items():
                y = (row.get(j, 0) - f * x) % p
                if y:
                    row[j] = y
                else:
                    del row[j]
    return len(pivots)


def rank_rational(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of integer rows.

    Each row is reduced against the pivot rows by integer combinations
    `b*v - a*p` with `b != 0`, which keep the row space over Q; each new
    pivot row is divided by the gcd of its entries.  Unlike a reduction
    mod p this never loses rank.
    """
    pivots: dict[int, dict[int, int]] = {}  # leading column -> pivot row
    for sparse in rows:
        row = {j: a for j, a in sparse.items() if a}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                g = gcd(*row.values())
                pivots[col] = {j: a // g for j, a in row.items()}
                break
            g = gcd(row[col], pivot[col])
            a, b = row[col] // g, pivot[col] // g
            if b != 1:
                row = {j: b * x for j, x in row.items()}
            for j, x in pivot.items():
                y = row.get(j, 0) - a * x
                if y:
                    row[j] = y
                else:
                    del row[j]
    return len(pivots)
