"""Exact rank computation for dense integer matrices.

Two coefficient domains are supported: the prime field F_p (Gaussian
elimination with modular inverses, plus a bitmask fast path for p = 2)
and the rationals (fraction-free integer row reduction).  Floating point
is never used; these ranks feed a homology oracle where rounding would be
unsound.
"""

from math import gcd, lcm


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def rank_gf2(rows: list[list[int]]) -> int:
    """Rank over F_2; rows are packed into integers as bitmasks."""
    packed = []
    for row in rows:
        bits = 0
        for j, a in enumerate(row):
            if a % 2:
                bits |= 1 << j
        if bits:
            packed.append(bits)
    rank = 0
    while packed:
        pivot = packed.pop()
        rank += 1
        low = pivot & -pivot
        packed = [r ^ pivot if r & low else r for r in packed]
        packed = [r for r in packed if r]
    return rank


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over F_p.  The input is not modified."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not rows or not rows[0]:
        return 0
    if p == 2:
        return rank_gf2(rows)
    m = [[a % p for a in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(a * inv) % p for a in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank_rational(rows: list[list[int]]) -> int:
    """Rank over the rationals of dense rows of ints or Fractions.

    Each row is scaled by the lcm of its denominators to a sparse
    `{column: int}` row and reduced against the pivot rows by integer
    combinations `b*v - a*p` with `b != 0`, which keep the row space over
    Q; each new pivot row is divided by the gcd of its entries.  Unlike a
    reduction mod p this never loses rank.
    """
    pivots: dict[int, dict[int, int]] = {}  # leading column -> pivot row
    for dense in rows:
        scale = lcm(*(a.denominator for a in dense if a))
        row = {
            j: a.numerator * (scale // a.denominator)
            for j, a in enumerate(dense)
            if a
        }
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
