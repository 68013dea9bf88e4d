"""The fraction-free kernel against the per-entry reference in kernel_reference.

Every property compares exact results entry by entry and demands that
every entry the kernel hands out is a Fraction in lowest terms.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from geodesy.gaussmat import GaussMatrix, GaussRational, bracket, char_poly
from kernel_strategies import SIZES, ZERO, gaussians, matrices, near_misses, rationals, upp_elements

scalars = st.one_of(st.integers(-7, 7), rationals, gaussians)


@st.composite
def shaped(draw, count):
    """count matrices of one shape, 1 x k and k x 1 included."""
    rows, cols = draw(SIZES), draw(SIZES)
    return [draw(matrices(rows, cols)) for _ in range(count)]


@st.composite
def squares(draw, max_size=4):
    """Square matrices, a third of them singular: one row a combination of others."""
    n = draw(st.integers(1, max_size))
    m = draw(matrices(n, n))
    if n > 1 and draw(st.integers(0, 2)) == 0:
        rows = [list(m.row(i)) for i in range(n)]
        a, b = draw(gaussians), draw(gaussians)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[n // 2])]
        m = GaussMatrix(rows)
    return m


def in_lowest_terms(x: Fraction) -> bool:
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def assert_canonical(m: GaussMatrix, expected: tuple) -> None:
    """m's entries equal the reference's and every one is in lowest terms.

    Entries are built when asked for, so ``row(i)`` must equal the slice
    of ``entries`` and ``m[i, j]`` the matching entry, on m and on the
    same integers passed to ``_from_ints``.
    """
    rows, cols, entries = expected
    assert (m.rows, m.cols) == (rows, cols)
    assert m.entries == entries
    for e in m.entries:
        assert in_lowest_terms(e.re) and in_lowest_terms(e.im)
    fresh = GaussMatrix._from_ints(m.rows, m.cols, m.den, m.re_num, m.im_num, reduced=True)
    for x in (m, fresh):
        for i in range(rows):
            assert x.row(i) == entries[i * cols : (i + 1) * cols]
            for j in range(cols):
                assert x[i, j] == entries[i * cols + j]


@settings(deadline=None)
@given(SIZES, SIZES, SIZES, st.data())
def test_matmul_matches_reference(n, k, m, data):
    a = data.draw(matrices(n, k))
    b = data.draw(matrices(k, m))
    assert_canonical(a @ b, ref.matmul(ref.unpack(a), ref.unpack(b)))


@st.composite
def bracket_pairs(draw):
    """Pairs of equal-size square matrices: generic ones; two elements of
    u(p,p), which take one product, both of size 2 included; one element
    and one near miss, in either order; skew-Hermitian ones of odd size."""
    kind = draw(st.sampled_from(["generic", "members", "near miss", "odd"]))
    if kind == "generic":
        n = draw(SIZES)
        return draw(matrices(n, n)), draw(matrices(n, n))
    p = draw(st.integers(1, 3))
    if kind == "members":
        return draw(upp_elements(p)), draw(upp_elements(p))
    if kind == "near miss":
        pair = draw(upp_elements(p)), draw(near_misses(p))
        return pair if draw(st.booleans()) else pair[::-1]
    n = 2 * p - 1
    a, b = draw(matrices(n, n)), draw(matrices(n, n))
    return a - a.conj_transpose(), b - b.conj_transpose()


def _gauss(re, im) -> GaussRational:
    return GaussRational(Fraction(re), Fraction(im))


# (i/2, 1/3 + i; 1/3 - i, -2i) and (i/5, 2 - i/5; 2 + i/5, 3i) lie in
# u(1,1); adding 1 to the lower left entry of the second takes it out
U11_A = GaussMatrix([[_gauss(0, "1/2"), _gauss("1/3", 1)], [_gauss("1/3", -1), _gauss(0, -2)]])
U11_B = GaussMatrix([[_gauss(0, "1/5"), _gauss(2, "-1/5")], [_gauss(2, "1/5"), _gauss(0, 3)]])
U11_OFF = GaussMatrix([[_gauss(0, "1/5"), _gauss(2, "-1/5")], [_gauss(3, "1/5"), _gauss(0, 3)]])


@settings(deadline=None)
@given(bracket_pairs())
@example((U11_A, U11_B))
@example((U11_A, U11_OFF))
@example((U11_OFF, U11_A))
def test_bracket_matches_reference(pair):
    # the two products, or one and its J (ab)* J, are subtracted as
    # integers over a.den * b.den and reduced once; unequal denominators
    # make that reduction do work
    a, b = pair
    assume(a.den != b.den)
    ra, rb = ref.unpack(a), ref.unpack(b)
    assert_canonical(bracket(a, b), ref.sub(ref.matmul(ra, rb), ref.matmul(rb, ra)))
    zero = bracket(a, a)
    assert zero == GaussMatrix.zeros(a.rows, a.rows) and zero.den == 1


@settings(deadline=None)
@given(shaped(2), scalars)
def test_linear_operations_match_reference(pair, s):
    a, b = pair
    ra, rb = ref.unpack(a), ref.unpack(b)
    assert_canonical(a + b, ref.add(ra, rb))
    assert_canonical(a - b, ref.sub(ra, rb))
    assert_canonical(-a, ref.neg(ra))
    assert_canonical(a * s, ref.scale(ra, s))
    assert_canonical(s * a, ref.scale(ra, s))
    # the other constructors: from GaussRationals, stacked blocks, a diagonal
    assert_canonical(GaussMatrix([list(a.row(i)) for i in range(a.rows)]), ra)
    assert_canonical(GaussMatrix.block([[a], [b]]), (2 * a.rows, a.cols, ra[2] + rb[2]))
    k = len(ra[2])
    diagonal = tuple(e if i == j else ZERO for i, e in enumerate(ra[2]) for j in range(k))
    assert_canonical(GaussMatrix.diagonal(a.entries), (k, k, diagonal))


@settings(deadline=None)
@given(shaped(2))
def test_equality_and_zero_test_match_reference(pair):
    a, b = pair
    assert (a == b) == (ref.unpack(a) == ref.unpack(b))
    assert a.is_zero() == ref.is_zero(ref.unpack(a))
    assert (a - b).is_zero() == (a == b)
    assert (a - a).is_zero() and a - a == GaussMatrix.zeros(a.rows, a.cols)
    # one value built along other routes is one matrix, with one hash
    twin = GaussMatrix([list(a.row(i)) for i in range(a.rows)])
    assert twin == a and hash(twin) == hash(a)
    rebuilt = (a + b) - b
    assert rebuilt == a and hash(rebuilt) == hash(a)


@settings(deadline=None)
@given(squares())
def test_inverse_matches_reference(a):
    try:
        expected = ref.inverse(ref.unpack(a))
    except ValueError:
        with pytest.raises(ValueError):
            a.inverse()
        return
    assert_canonical(a.inverse(), expected)


@settings(deadline=None)
@given(squares(max_size=5))
def test_char_poly_matches_cofactor(a):
    coeffs = char_poly(a)
    assert coeffs == ref.char_poly_cofactor(a)
    assert all(in_lowest_terms(c.re) and in_lowest_terms(c.im) for c in coeffs)


def test_large_unequal_denominators_reduce():
    a = GaussMatrix([[Fraction(1, 2**61 - 1), Fraction(3, 10**12)], [GaussRational(0, Fraction(7, 9)), 1]])
    b = GaussMatrix([[Fraction(2**61 - 1, 5), 0], [0, Fraction(10**12, 3)]])
    product = a @ b
    assert_canonical(product, ref.matmul(ref.unpack(a), ref.unpack(b)))
    assert product[0, 0] == GaussRational(Fraction(1, 5))
    assert product[0, 1] == GaussRational(1)
    assert_canonical(a.inverse() @ a, ref.unpack(GaussMatrix.identity(2)))
