"""Reference exact kernel, kept only for the tests.

These are the straightforward per-entry routines the package used before
its matrices stored integer numerators over a common denominator: every
entry is a ``GaussRational`` holding two ``Fraction``s, the product is the
textbook triple loop, inverse and rank are Gauss-Jordan elimination with
division by each pivot, and the characteristic polynomial is first-row
cofactor expansion of det(tI - a).  They share no code with
``geodesy.gaussmat`` beyond the scalar class, so the property tests can
hold the fraction-free kernel to them entry by entry.

Matrices here are (rows, cols, entries) with ``entries`` a row-major
tuple of ``GaussRational``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from geodesy.gaussmat import GaussMatrix, GaussRational

ZERO = GaussRational(0)
ONE = GaussRational(1)


def unpack(m: GaussMatrix) -> tuple:
    return m.rows, m.cols, tuple(m[i, j] for i in range(m.rows) for j in range(m.cols))


def matmul(a: tuple, b: tuple) -> tuple:
    n, k, ea = a
    k2, m, eb = b
    assert k == k2
    out = []
    for i in range(n):
        arow = ea[i * k : (i + 1) * k]
        for j in range(m):
            acc = ZERO
            for t in range(k):
                x = arow[t]
                if x.is_zero():
                    continue
                acc = acc + x * eb[t * m + j]
            out.append(acc)
    return n, m, tuple(out)


def add(a: tuple, b: tuple) -> tuple:
    return a[0], a[1], tuple(x + y for x, y in zip(a[2], b[2]))


def sub(a: tuple, b: tuple) -> tuple:
    return a[0], a[1], tuple(x - y for x, y in zip(a[2], b[2]))


def neg(a: tuple) -> tuple:
    return a[0], a[1], tuple(-x for x in a[2])


def scale(a: tuple, s) -> tuple:
    s = GaussRational.of(s)
    return a[0], a[1], tuple(x * s for x in a[2])


def is_zero(a: tuple) -> bool:
    return all(x.is_zero() for x in a[2])


def inverse(a: tuple) -> tuple:
    """Gauss-Jordan on [a | I]; raises ValueError when a is singular."""
    n, cols, ents = a
    assert n == cols
    aug = [
        list(ents[i * n : (i + 1) * n]) + [ONE if j == i else ZERO for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return n, n, tuple(x for r in aug for x in r[n:])


def realify(matrices: Sequence[GaussMatrix]) -> List[List[Fraction]]:
    """One row per matrix: the real and imaginary parts of its entries."""
    rows = []
    for m in matrices:
        row: List[Fraction] = []
        for e in unpack(m)[2]:
            row.append(e.re)
            row.append(e.im)
        rows.append(row)
    return rows


def rational_rank(rows: List[List[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# Characteristic polynomial by cofactor expansion.  Polynomials are lists
# of GaussRational coefficients in ascending order.


def _poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _poly_add(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else ZERO
        b = q[i] if i < len(q) else ZERO
        out.append(a + b)
    return out


def _poly_neg(p):
    return [-a for a in p]


def _det_poly(m) -> list:
    """Determinant of a small matrix of polynomials by first-row expansion."""
    n = len(m)
    if n == 1:
        return list(m[0][0])
    total = [ZERO]
    for j in range(n):
        entry = m[0][j]
        if all(c.is_zero() for c in entry):
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        term = _poly_mul(entry, _det_poly(minor))
        if j % 2:
            term = _poly_neg(term)
        total = _poly_add(total, term)
    return total


def char_poly_cofactor(a: GaussMatrix) -> tuple:
    """Coefficients of det(tI - a), ascending; exponential in the size."""
    n = a.rows
    m = [[[-a[i, j], ONE if i == j else ZERO] for j in range(n)] for i in range(n)]
    return tuple(_det_poly(m))
