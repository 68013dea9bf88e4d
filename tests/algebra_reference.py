"""Reference sampling and su(p,p) maps, kept only for the tests.

These are the routines the package used before it drew, tested and split
su(p,p) elements on the integer form of ``GaussMatrix``: every sampled
entry became two ``Fraction``s and one ``GaussRational``, and every map
cut the matrix into its four quadrants and put them back with
``GaussMatrix.block``.  The property tests hold ``geodesy.sampling`` and
``geodesy.algebra`` to them: the same matrices, the same ``random``
stream afterwards, the same verdicts and the same exceptions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from geodesy.algebra import CartanSplit, MembershipError, SuPQShape
from geodesy.gaussmat import GaussMatrix, GaussRational, I

# -- sampling ------------------------------------------------------------


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
    diag = [rng.randint(-spread, spread) for _ in range(n)]
    s = invertible(rng, n)
    a = s @ GaussMatrix.diagonal(diag) @ s.inverse()
    spectrum: dict = {}
    for d in diag:
        spectrum[d] = spectrum.get(d, 0) + 1
    return a, spectrum


# -- su(p,p) maps ----------------------------------------------------------


def signature_matrix(shape: SuPQShape) -> GaussMatrix:
    """J = diag(I_p, -I_p)."""
    return GaussMatrix.diagonal([1] * shape.p + [-1] * shape.p)


def _quadrants(a: GaussMatrix, p: int):
    return (
        a.submatrix(0, p, 0, p),
        a.submatrix(0, p, p, 2 * p),
        a.submatrix(p, 2 * p, 0, p),
        a.submatrix(p, 2 * p, p, 2 * p),
    )


def in_su_pp(a: GaussMatrix, shape: SuPQShape) -> bool:
    n = shape.size
    if a.rows != n or a.cols != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {a.rows}x{a.cols}")
    ul, ur, ll, lr = _quadrants(a, shape.p)
    if not (ul.conj_transpose() + ul).is_zero():
        return False
    if not (lr.conj_transpose() + lr).is_zero():
        return False
    if not (ll - ur.conj_transpose()).is_zero():
        return False
    return (ul.trace() + lr.trace()).is_zero()


def cartan_involution(a: GaussMatrix, shape: SuPQShape) -> GaussMatrix:
    j = signature_matrix(shape)
    return j @ a @ j


def cartan_decompose(a: GaussMatrix, shape: SuPQShape) -> CartanSplit:
    if not in_su_pp(a, shape):
        raise MembershipError("element is not in su(p,p)")
    p = shape.p
    ul, ur, ll, lr = _quadrants(a, p)
    zero = GaussMatrix.zeros(p, p)
    k_part = GaussMatrix.block([[ul, zero], [zero, lr]])
    p_part = GaussMatrix.block([[zero, ur], [ll, zero]])
    return CartanSplit(k_part=k_part, p_part=p_part)


def in_p_part(a: GaussMatrix, shape: SuPQShape) -> bool:
    n = shape.size
    if a.rows != n or a.cols != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {a.rows}x{a.cols}")
    ul, ur, ll, lr = _quadrants(a, shape.p)
    return ul.is_zero() and lr.is_zero() and (ll - ur.conj_transpose()).is_zero()


def complex_structure(p_elem: GaussMatrix, shape: SuPQShape) -> GaussMatrix:
    if not in_p_part(p_elem, shape):
        raise MembershipError("complex structure is only defined on the p part")
    p = shape.p
    _, ur, ll, _ = _quadrants(p_elem, p)
    zero = GaussMatrix.zeros(p, p)
    return GaussMatrix.block([[zero, ur * I], [ll * (-I), zero]])
