import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

import algebra_reference
from geodesy import sampling
from geodesy.candidates import embedding_with_rank, load_candidate
from geodesy.checker import weight_operator
from geodesy.gaussmat import (
    GaussMatrix,
    GaussRational,
    I,
    NonIntegerSpectrum,
    NotSemisimple,
    bracket,
    char_poly,
    eigenprojections,
    integer_spectrum,
    poly_eval,
)

from kernel_reference import char_poly_cofactor  # cross-check oracle


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=9
)
gaussians = st.builds(GaussRational, rationals, rationals)


# -- scalar field ------------------------------------------------------


@given(gaussians, gaussians, gaussians)
def test_field_addition_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(gaussians)
def test_field_inverses(a):
    assert a + (-a) == GaussRational(0)
    if not a.is_zero():
        assert a * (GaussRational(1) / a) == GaussRational(1)


@given(gaussians, gaussians)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


def test_lowest_terms_after_arithmetic():
    a = GaussRational(Fraction(2, 4), Fraction(6, 8))
    assert a.re == Fraction(1, 2) and a.re.denominator == 2
    b = a + a
    assert b.re.denominator == 1 and b.im == Fraction(3, 2)


# -- brackets ----------------------------------------------------------


def su11_and_sl2():
    """su(1,1)'s basis u, v, w, read off the rank-1 standard embedding, and
    the sl(2) triple x = (u - iv)/2, y = (u + iv)/2, h = -iw."""
    c = embedding_with_rank(1, 1)
    u, v, w = c.f_u, c.f_v, c.f_w
    half = Fraction(1, 2)
    return u, v, w, (u - v * I) * half, (u + v * I) * half, w * (-I)


def test_bracket_on_basis():
    u, v, w, x, y, h = su11_and_sl2()
    assert bracket(w, u) == v * 2
    assert bracket(x, y) == h


def test_bracket_self_vanishes():
    rng = random.Random(0)
    a = sampling.matrix(rng, 3)
    assert bracket(a, a).is_zero()


def test_bracket_dimension_check():
    with pytest.raises(ValueError):
        bracket(GaussMatrix.zeros(2, 2), GaussMatrix.zeros(3, 3))
    with pytest.raises(ValueError):
        bracket(GaussMatrix.zeros(2, 3), GaussMatrix.zeros(2, 3))


def test_jacobi_identity_sampled():
    from geodesy.algebra import SuPQShape

    rng = random.Random(11)
    for i in range(100):
        shape = SuPQShape(1 + i % 3)
        a, b, c = (sampling.su_pp(rng, shape) for _ in range(3))
        total = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        assert total.is_zero()


def test_bracket_antisymmetry_sampled():
    from geodesy.algebra import SuPQShape

    rng = random.Random(12)
    for i in range(100):
        shape = SuPQShape(1 + i % 3)
        a, b = sampling.su_pp(rng, shape), sampling.su_pp(rng, shape)
        assert bracket(a, b) == -bracket(b, a)


@pytest.mark.parametrize("n", range(1, 7))
def test_identity_is_the_diagonal_of_ones(n):
    eye = GaussMatrix.identity(n)
    assert eye == GaussMatrix.diagonal([1] * n)
    assert (eye.den, eye.re_num, eye.im_num) == (1, tuple(int(i == j) for i in range(n) for j in range(n)), (0,) * n * n)


# -- conjugate transpose ----------------------------------------------


def test_conj_transpose_examples():
    d = GaussMatrix.diagonal([1j, -1j])
    assert d.conj_transpose() == GaussMatrix.diagonal([-1j, 1j])
    _, _, _, x, y, _ = su11_and_sl2()
    assert x.conj_transpose() == y


def test_conj_transpose_involution():
    rng = random.Random(13)
    for _ in range(25):
        a = sampling.matrix(rng, 3, 4)
        assert a.conj_transpose().conj_transpose() == a


# -- characteristic polynomial ----------------------------------------


def test_char_poly_examples():
    # den^n det(tI - a) as (re, im) pairs, ascending
    one, zero = (1, 0), (0, 0)
    assert char_poly(GaussMatrix.diagonal([1, -1])) == ((-1, 0), zero, one)
    assert char_poly(GaussMatrix.zeros(3, 3)) == (zero, zero, zero, one)
    u = GaussMatrix([[0, 1], [1, 0]])
    assert char_poly(u) == ((-1, 0), zero, one)
    # t^2 - 1/4 over den = 2: 4t^2 - 1
    assert char_poly(GaussMatrix.diagonal([Fraction(1, 2), Fraction(-1, 2)])) == ((-1, 0), zero, (4, 0))


def test_char_poly_berkowitz_matches_cofactor():
    # char_poly is Berkowitz at every size; first-row expansion is the
    # independent route
    rng = random.Random(14)
    for n in (1, 2, 3, 4, 5, 6):
        a = sampling.matrix(rng, n)
        scale = a.den**n
        assert char_poly(a) == tuple((c.re * scale, c.im * scale) for c in char_poly_cofactor(a))


def test_cayley_hamilton_sampled():
    rng = random.Random(15)
    for i in range(100):
        n = 1 + i % 6
        a = sampling.matrix(rng, n)
        assert poly_eval(char_poly(a), a).is_zero()


# -- integer spectra ----------------------------------------------------


def test_integer_spectrum_examples():
    assert integer_spectrum(GaussMatrix.diagonal([1, -1])) == {1: 1, -1: 1}
    assert integer_spectrum(GaussMatrix.diagonal([1, 1, -1, -1])) == {1: 2, -1: 2}
    with pytest.raises(NonIntegerSpectrum):
        integer_spectrum(GaussMatrix([[0, 2], [1, 0]]))  # char poly t^2 - 2
    with pytest.raises(NonIntegerSpectrum):
        integer_spectrum(GaussMatrix([[0, -1], [1, 0]]))  # char poly t^2 + 1
    with pytest.raises(NonIntegerSpectrum):
        integer_spectrum(GaussMatrix.diagonal([Fraction(1, 2), Fraction(-1, 2)]))


def test_integer_spectrum_zero_matrix():
    assert integer_spectrum(GaussMatrix.zeros(4, 4)) == {0: 4}


def test_integer_spectrum_of_conjugated_matrix():
    rng = random.Random(16)
    for _ in range(20):
        a, expected = sampling.integer_diagonalizable(rng, 3)
        assert integer_spectrum(a) == expected


# -- the kernel stays on integers ---------------------------------------


@contextmanager
def _counting(cls, name):
    """A one-element list counting the calls of cls.name made inside."""
    calls, original = [0], getattr(cls, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    with patch.object(cls, name, counted):
        yield calls


def test_weight_spectra_build_no_gauss_rational():
    # the weight blocks of H = -iF(w) that check reads: char_poly and
    # integer_spectrum work on integer pairs from the numerators to the
    # spectrum
    blocks = []
    for path in sorted((Path(__file__).resolve().parent.parent / "candidates").glob("*.json")):
        c = load_candidate(path)
        h, p = weight_operator(c), c.shape.p
        blocks += [h.submatrix(0, p, 0, p), h.submatrix(p, 2 * p, p, 2 * p)]
    assert len(blocks) == 4
    with _counting(GaussRational, "__init__") as built:
        spectra = [integer_spectrum(b) for b in blocks]
    assert built == [0] and all(sum(s.values()) == 2 for s in spectra)


def test_cayley_hamilton_builds_no_gauss_rational():
    # poly_eval adds char_poly's integer pairs to diagonal numerators
    from geodesy.selftest import check_cayley_hamilton

    with _counting(GaussRational, "__init__") as built:
        check_cayley_hamilton(samples=6)
    assert built == [0]


def test_integer_diagonalizable_inverts_each_draw_once():
    rng = random.Random(107)
    with _counting(sampling, "matrix") as drawn, _counting(GaussMatrix, "inverse") as inverted:
        for i in range(6):
            sampling.integer_diagonalizable(rng, 2 + i % 3)
    assert drawn[0] >= 6 and inverted == drawn


# -- eigenprojections ---------------------------------------------------


def test_eigenprojection_examples():
    d = GaussMatrix.diagonal([1, -1])
    assert eigenprojections(d, {1: 1, -1: 1}) == {1: GaussMatrix.diagonal([1, 0]), -1: GaussMatrix.diagonal([0, 1])}
    ident = GaussMatrix.identity(3)
    assert eigenprojections(ident, {1: 3}) == {1: ident}
    d3 = GaussMatrix.diagonal([1, 1, -1])
    projections = eigenprojections(d3, {1: 2, -1: 1})
    assert list(projections) == [1, -1]
    assert (projections[1] @ projections[-1]).is_zero()


def test_eigenprojection_resolution_of_identity():
    rng = random.Random(17)
    for i in range(100):
        n = 2 + i % 3
        a, _ = sampling.integer_diagonalizable(rng, n)
        spectrum = integer_spectrum(a)
        projections = eigenprojections(a, spectrum)
        assert list(projections) == list(spectrum)
        total = GaussMatrix.zeros(n, n)
        for lam, proj in projections.items():
            assert proj @ proj == proj
            assert a @ proj == proj * lam
            total = total + proj
        assert total == GaussMatrix.identity(n)


def test_eigenprojection_rejects_nilpotent():
    nilpotent = GaussMatrix([[0, 1], [0, 0]])
    with pytest.raises(NotSemisimple):
        eigenprojections(nilpotent, {0: 2})


def test_eigenprojections_refuse_a_spectrum_the_matrix_lacks():
    # the semisimplicity product certifies the caller's spectrum too
    for spectrum in ({5: 2}, {-1: 1, 2: 1}, {}):
        with pytest.raises(NotSemisimple):
            eigenprojections(GaussMatrix.identity(2), spectrum)


# -- misc matrix ops ----------------------------------------------------


def test_inverse_round_trip():
    rng = random.Random(18)
    for n in (1, 2, 3, 4):
        a = algebra_reference.invertible(rng, n)
        assert a @ a.inverse() == GaussMatrix.identity(n)


def test_singular_inverse_raises():
    singular = [
        GaussMatrix.zeros(2, 2),
        GaussMatrix([[0, 1], [0, 1]]),  # no pivot in the first column
        GaussMatrix([[1, 2], [2, 4]]),  # none in the last
        # the middle column is (1 + i) times the first: none in the middle
        GaussMatrix([[1, 1 + 1j, 1], [1j, -1 + 1j, 2], [2, 2 + 2j, 3]]),
    ]
    for a in singular:
        with pytest.raises(ValueError, match="matrix is singular"):
            a.inverse()
        with pytest.raises(ValueError, match="inverse of a non-square matrix"):
            a.submatrix(0, a.rows, 0, a.cols - 1).inverse()


def test_block_and_submatrix_round_trip():
    rng = random.Random(19)
    a, b, c, d = (sampling.matrix(rng, 2) for _ in range(4))
    m = GaussMatrix.block([[a, b], [c, d]])
    assert m.submatrix(0, 2, 0, 2) == a
    assert m.submatrix(0, 2, 2, 4) == b
    assert m.submatrix(2, 4, 0, 2) == c
    assert m.submatrix(2, 4, 2, 4) == d
