"""Structure of su(1,1) and su(p,p) as matrix Lie algebras.

su(p,p) is realized with respect to the indefinite form J = diag(I_p, -I_p):

    su(p,p) = { (A  Z; Z* B) : A, B skew-Hermitian p x p, tr A + tr B = 0 }

The maximal-compact direction k consists of the block-diagonal elements,
the tangent direction p of the off-diagonal ones; the Cartan involution is
conjugation by J.  The complex structure on p sends the off-diagonal block
Z to iZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gaussmat import GaussMatrix, I, bracket


class MembershipError(ValueError):
    """Element does not belong to the algebra or subspace it was claimed in."""


@dataclass(frozen=True)
class SuPQShape:
    """Block sizes of the ambient algebra; only the balanced case q = p is allowed."""

    p: int
    q: int = -1

    def __post_init__(self):
        if self.q == -1:
            object.__setattr__(self, "q", self.p)
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.q != self.p:
            raise ValueError("only the balanced signature q = p is supported")

    @property
    def size(self) -> int:
        return 2 * self.p


@dataclass(frozen=True)
class CartanSplit:
    """Block-diagonal (k) and off-diagonal (p) components of an element."""

    k_part: GaussMatrix
    p_part: GaussMatrix


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
    """Exact membership test for su(p,p)."""
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
    """theta(X) = J X J: +1 on block-diagonal, -1 on off-diagonal."""
    j = signature_matrix(shape)
    return j @ a @ j


def cartan_decompose(a: GaussMatrix, shape: SuPQShape) -> CartanSplit:
    """Split an su(p,p) element into its k and p components."""
    if not in_su_pp(a, shape):
        raise MembershipError("element is not in su(p,p)")
    p = shape.p
    ul, ur, ll, lr = _quadrants(a, p)
    zero = GaussMatrix.zeros(p, p)
    k_part = GaussMatrix.block([[ul, zero], [zero, lr]])
    p_part = GaussMatrix.block([[zero, ur], [ll, zero]])
    return CartanSplit(k_part=k_part, p_part=p_part)


def in_p_part(a: GaussMatrix, shape: SuPQShape) -> bool:
    """True iff a = (0 Z; Z* 0) exactly."""
    n = shape.size
    if a.rows != n or a.cols != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {a.rows}x{a.cols}")
    ul, ur, ll, lr = _quadrants(a, shape.p)
    return ul.is_zero() and lr.is_zero() and (ll - ur.conj_transpose()).is_zero()


def complex_structure(p_elem: GaussMatrix, shape: SuPQShape) -> GaussMatrix:
    """Multiplication by i on the tangent space: (0 Z; Z* 0) -> (0 iZ; -iZ* 0)."""
    if not in_p_part(p_elem, shape):
        raise MembershipError("complex structure is only defined on the p part")
    p = shape.p
    _, ur, ll, _ = _quadrants(p_elem, p)
    zero = GaussMatrix.zeros(p, p)
    return GaussMatrix.block([[zero, ur * I], [ll * (-I), zero]])


class Su11Basis:
    """The fixed 2x2 basis of su(1,1) and of its complexification sl(2,C).

    u = (0 1; 1 0), v = (0 i; -i 0), w = (i 0; 0 -i) span the real form;
    x = (u - iv)/2, y = (u + iv)/2, h = -i w form the usual sl(2) triple
    with [h,x] = 2x, [h,y] = -2y, [x,y] = h.  The bracket tables are
    verified on construction, so a corrupted build fails immediately.
    """

    def __init__(self):
        self.u = GaussMatrix([[0, 1], [1, 0]])
        self.v = GaussMatrix([[0, 1j], [-1j, 0]])
        self.w = GaussMatrix([[1j, 0], [0, -1j]])
        half = Fraction(1, 2)
        self.x = (self.u - self.v * I) * half
        self.y = (self.u + self.v * I) * half
        self.h = self.w * (-I)
        table = [
            (bracket(self.w, self.u), self.v * 2),
            (bracket(self.w, self.v), self.u * (-2)),
            (bracket(self.u, self.v), self.w * (-2)),
            (bracket(self.h, self.x), self.x * 2),
            (bracket(self.h, self.y), self.y * (-2)),
            (bracket(self.x, self.y), self.h),
        ]
        for got, want in table:
            assert got == want, "su(1,1) bracket table failed at construction"


_BASIS = None


def su11_basis() -> Su11Basis:
    global _BASIS
    if _BASIS is None:
        _BASIS = Su11Basis()
    return _BASIS


def check_kH_irreducible() -> bool:
    """Confirm that ad(w) acts on span{u, v} with no real eigenvector.

    The matrix of ad(w) in the (u, v) coordinates is computed from exact
    brackets; irreducibility of the 2-dimensional real representation is
    equivalent to its characteristic polynomial having no real root.
    """
    basis = su11_basis()

    def coords(m: GaussMatrix):
        # an element a*u + b*v has upper-right entry a + b*i
        z = m[0, 1]
        return (z.re, z.im)

    col_u = coords(bracket(basis.w, basis.u))
    col_v = coords(bracket(basis.w, basis.v))
    trace = col_u[0] + col_v[1]
    det = col_u[0] * col_v[1] - col_v[0] * col_u[1]
    if col_u == (0, 0) and col_v == (0, 0):
        return False
    discriminant = trace * trace - 4 * det
    return discriminant < 0
