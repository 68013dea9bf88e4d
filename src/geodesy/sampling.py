"""Seeded exact random elements for the invariant suites.

Everything here produces Gaussian rational data from a stdlib Random
stream, so the property checks downstream run at zero tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import SuPQShape
from .gaussmat import GaussMatrix, GaussRational


def rational(rng: random.Random, span: int = 3, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def gauss_rational(rng: random.Random) -> GaussRational:
    return GaussRational(rational(rng), rational(rng))


def matrix(rng: random.Random, rows: int, cols: int | None = None) -> GaussMatrix:
    cols = rows if cols is None else cols
    return GaussMatrix([[gauss_rational(rng) for _ in range(cols)] for _ in range(rows)])


def skew_hermitian(rng: random.Random, n: int) -> GaussMatrix:
    m = matrix(rng, n)
    return (m - m.conj_transpose()) * Fraction(1, 2)


def su_pp(rng: random.Random, shape: SuPQShape) -> GaussMatrix:
    """A random element of su(p,p): a random k part plus a random p part."""
    return k_part(rng, shape) + p_part(rng, shape)


def p_part(rng: random.Random, shape: SuPQShape) -> GaussMatrix:
    p = shape.p
    z = matrix(rng, p)
    zero = GaussMatrix.zeros(p, p)
    return GaussMatrix.block([[zero, z], [z.conj_transpose(), zero]])


def k_part(rng: random.Random, shape: SuPQShape) -> GaussMatrix:
    p = shape.p
    a = skew_hermitian(rng, p)
    b = skew_hermitian(rng, p)
    excess = a.trace() + b.trace()
    rows = [list(b.row(i)) for i in range(p)]
    rows[0][0] = rows[0][0] - excess
    b = GaussMatrix(rows)
    zero = GaussMatrix.zeros(p, p)
    return GaussMatrix.block([[a, zero], [zero, b]])


def invertible(rng: random.Random, n: int) -> GaussMatrix:
    while True:
        m = matrix(rng, n)
        try:
            m.inverse()
            return m
        except ValueError:
            continue


def integer_diagonalizable(rng: random.Random, n: int, spread: int = 2):
    """A matrix with known integer spectrum: S diag(d) S^-1, plus the spectrum."""
    diag = [rng.randint(-spread, spread) for _ in range(n)]
    s = invertible(rng, n)
    a = s @ GaussMatrix.diagonal(diag) @ s.inverse()
    spectrum: dict = {}
    for d in diag:
        spectrum[d] = spectrum.get(d, 0) + 1
    return a, spectrum
