"""Structure of su(p,p) as a matrix Lie algebra.

su(p,p) is realized with respect to the indefinite form J = diag(I_p, -I_p):

    su(p,p) = { (A  Z; Z* B) : A, B skew-Hermitian p x p, tr A + tr B = 0 }

The maximal-compact direction k consists of the block-diagonal elements,
the tangent direction p of the off-diagonal ones; the Cartan involution is
conjugation by J.  The complex structure on p sends the off-diagonal block
Z to iZ.

Every map here works on the integer form of ``GaussMatrix`` (one
denominator, real and imaginary numerators), entry by entry, and builds no
quadrant or block matrix.  a is in su(p,p) exactly when a = -J a* J entry
by entry and its imaginary trace is zero: a* has the transposed real and
the negated transposed imaginary numerators, and -J . J negates the
diagonal blocks.  It is in p when it equals the off-diagonal part of a*.
The Cartan involution negates the off-diagonal blocks; the k and p parts
zero the off-diagonal or the diagonal blocks; and the complex structure
sends an entry x + yi to -y + xi above the diagonal blocks and to y - xi
below them.  Every sign pattern is one multiplication of the numerators
by a cached mask of quadrant signs; the masks and the adjoint test live in
``gaussmat``.  Membership of u(p,p) is ``gaussmat.in_u_pp``, the test that
``bracket`` uses, remembered on the matrix; the k and p parts of a member
are members, and ``cartan_decompose`` marks them so without a test, as
``cartan_involution`` marks the image of a known member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gaussmat import K_PART, P_PART, THETA, GaussMatrix, _is_signed_adjoint, _member, _signed, in_u_pp


class MembershipError(ValueError):
    """Element does not belong to the algebra or subspace it was claimed in."""


@dataclass(frozen=True)
class SuPQShape:
    """The ambient su(p,p): two diagonal blocks of size p >= 1.

    Only the balanced signature is modelled, so p is the one block size.
    """

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be at least 1")

    @property
    def size(self) -> int:
        return 2 * self.p


@dataclass(frozen=True)
class CartanSplit:
    """Block-diagonal (k) and off-diagonal (p) components of an element."""

    k_part: GaussMatrix
    p_part: GaussMatrix


def _check_shape(a: GaussMatrix, shape: SuPQShape) -> None:
    n = shape.size
    if a.rows != n or a.cols != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {a.rows}x{a.cols}")


def _blockwise(a: GaussMatrix, p: int, signs: tuple) -> GaussMatrix:
    """a with each quadrant multiplied by its sign."""
    return GaussMatrix._from_ints(a.rows, a.cols, a.den, _signed(a.re_num, p, signs), _signed(a.im_num, p, signs))


def in_su_pp(a: GaussMatrix, shape: SuPQShape) -> bool:
    """Exact membership test for su(p,p): a = -J a* J and tr a = 0."""
    _check_shape(a, shape)
    # a = -J a* J leaves the real part of the diagonal zero
    return in_u_pp(a) and not sum(a.im_num[:: shape.size + 1])


def cartan_involution(a: GaussMatrix, shape: SuPQShape) -> GaussMatrix:
    """theta(X) = J X J: +1 on block-diagonal, -1 on off-diagonal.

    theta is an automorphism of u(p,p), so the image of a matrix known to
    be a member is marked one."""
    _check_shape(a, shape)
    out = _blockwise(a, shape.p, THETA)
    return _member(out) if a._u_pp is True else out


def cartan_decompose(a: GaussMatrix, shape: SuPQShape) -> CartanSplit:
    """Split an su(p,p) element into its k and p components."""
    if not in_su_pp(a, shape):
        raise MembershipError("element is not in su(p,p)")
    return CartanSplit(
        k_part=_member(_blockwise(a, shape.p, K_PART)), p_part=_member(_blockwise(a, shape.p, P_PART))
    )


def in_p_part(a: GaussMatrix, shape: SuPQShape) -> bool:
    """True iff a = (0 Z; Z* 0) exactly: a is the off-diagonal part of a*."""
    _check_shape(a, shape)
    return _is_signed_adjoint(a, shape.p, P_PART)


def complex_structure(p_elem: GaussMatrix, shape: SuPQShape) -> GaussMatrix:
    """Multiplication by i on the tangent space: (0 Z; Z* 0) -> (0 iZ; -iZ* 0)."""
    if not in_p_part(p_elem, shape):
        raise MembershipError("complex structure is only defined on the p part")
    p, re, im = shape.p, p_elem.re_num, p_elem.im_num
    # x + yi -> -y + xi above the diagonal blocks, y - xi below them
    return GaussMatrix._from_ints(
        p_elem.rows, p_elem.cols, p_elem.den, _signed(im, p, (0, -1, 1, 0)), _signed(re, p, (0, 1, -1, 0)), reduced=True
    )
