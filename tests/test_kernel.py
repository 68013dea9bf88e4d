"""The fraction-free kernel against the per-entry reference in kernel_reference.

Every property compares exact results entry by entry and demands that
every entry the kernel hands out is a Fraction in lowest terms.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from geodesy import gaussmat
from geodesy.candidates import embedding_with_rank
from geodesy.checker import EmbeddingCandidate, check_conditions, equivariance_test
from geodesy.gaussmat import U_PP, GaussMatrix, GaussRational, I, _is_signed_adjoint, bracket, char_poly
from geodesy.selftest import (
    check_antisymmetry,
    check_cartan_inclusions,
    check_complex_structure,
    check_involution,
    check_jacobi,
)
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
    of the entries and ``m[i, j]`` the matching entry, on m and on the
    same integers passed to ``_from_ints``.
    """
    rows, cols, entries = expected
    assert (m.rows, m.cols) == (rows, cols)
    got = ref.unpack(m)[2]
    assert got == entries
    for e in got:
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
    assert_canonical(GaussMatrix.diagonal(ra[2]), (k, k, diagonal))


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
    # char_poly gives den^n det(tI - a) as Gaussian-integer pairs
    coeffs = char_poly(a)
    scale = a.den**a.rows
    assert coeffs == tuple((c.re * scale, c.im * scale) for c in ref.char_poly_cofactor(a))
    assert all(type(re) is int and type(im) is int for re, im in coeffs)


def test_large_unequal_denominators_reduce():
    a = GaussMatrix([[Fraction(1, 2**61 - 1), Fraction(3, 10**12)], [GaussRational(0, Fraction(7, 9)), 1]])
    b = GaussMatrix([[Fraction(2**61 - 1, 5), 0], [0, Fraction(10**12, 3)]])
    product = a @ b
    assert_canonical(product, ref.matmul(ref.unpack(a), ref.unpack(b)))
    assert product[0, 0] == GaussRational(Fraction(1, 5))
    assert product[0, 1] == GaussRational(1)
    assert_canonical(a.inverse() @ a, ref.unpack(GaussMatrix.identity(2)))


# -- the remembered u(p,p) test ------------------------------------------


def _fresh_member(m: GaussMatrix) -> bool:
    n = m.rows
    return n == m.cols and n % 2 == 0 and _is_signed_adjoint(m, n // 2, U_PP)


@contextmanager
def _watch():
    """Every matrix built inside, and a one-element list counting the
    exact products that brackets take."""
    made, products = [], [0]
    set_, product = GaussMatrix._set, gaussmat._product

    def tracking_set(self, *args):
        made.append(self)
        set_(self, *args)

    def counting_product(a, b):
        products[0] += 1
        return product(a, b)

    with patch.object(GaussMatrix, "_set", tracking_set), patch.object(gaussmat, "_product", counting_product):
        yield made, products


@settings(deadline=None)
@given(bracket_pairs())
@example((U11_A, U11_B))
@example((U11_A, U11_OFF))
def test_bracket_marks_its_result_a_member_only_for_two_members(pair):
    a, b = pair
    members = _fresh_member(a) and _fresh_member(b)
    with _watch() as (_, products):
        c = bracket(a, b)
    # a member's bracket is one product and a member; any other takes two
    # products and leaves the result untested
    assert products == [1 if members else 2]
    assert c._u_pp is (True if members else None)
    for m in (a, b, c):
        assert m._u_pp is None or m._u_pp == _fresh_member(m)


def _su11_and_sl2():
    """su(1,1)'s basis u, v, w, read off the rank-1 standard embedding, and
    the sl(2) triple x = (u - iv)/2, y = (u + iv)/2, h = -iw."""
    c = embedding_with_rank(1, 1)
    u, v, w = c.f_u, c.f_v, c.f_w
    half = Fraction(1, 2)
    return u, v, w, (u - v * I) * half, (u + v * I) * half, w * (-I)


def test_the_sl2_triple_is_no_member_and_its_brackets_take_two_products():
    u, v, w, x, y, h = _su11_and_sl2()
    for a, b in ((h, x), (h, y), (x, y)):
        with _watch() as (_, products):
            c = bracket(a, b)
        assert products == [2] and c._u_pp is None
    # a bracket tests its second argument only after a member first one
    assert [m._u_pp for m in (h, x, y)] == [False, False, None]
    # the embedding's members were tested when the candidate was built
    assert [m._u_pp for m in (u, v, w)] == [True] * 3


def test_every_remembered_membership_agrees_with_a_fresh_test():
    # sampled su(p,p) elements through the selftest checks, the sl(2)
    # triple, and passing and broken candidates through the checker: no
    # matrix may remember a membership its numerators do not have
    with _watch() as (made, _):
        _, _, _, x, y, h = _su11_and_sl2()
        for a, b in ((h, x), (h, y), (x, y)):
            bracket(a, b)
        checks = check_jacobi, check_antisymmetry, check_involution, check_cartan_inclusions, check_complex_structure
        for check in checks:
            check(samples=12)
        for p, m in ((2, 1), (3, 2)):
            c = embedding_with_rank(p, m)
            shift = GaussMatrix.diagonal([1j] + [0] * (p - 1) + [-1j] + [0] * (p - 1))
            broken = EmbeddingCandidate(c.shape, c.f_u + shift, c.f_v, c.f_w)
            for candidate in (c, broken):
                report = check_conditions(candidate)
                assert report.passed == (candidate is c)
                assert equivariance_test(candidate, report) == (candidate is c)
    remembered = [m for m in made if m._u_pp is not None]
    assert {m._u_pp for m in remembered} == {True, False}
    assert all(m._u_pp == _fresh_member(m) for m in remembered)
