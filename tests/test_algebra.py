import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_reference as ref
from geodesy import algebra, sampling, selftest
from geodesy.algebra import (
    CartanSplit,
    MembershipError,
    SuPQShape,
    cartan_decompose,
    cartan_involution,
    complex_structure,
    in_p_part,
    in_su_pp,
)
from geodesy.candidates import embedding_with_rank
from geodesy.gaussmat import U_PP, GaussMatrix, I, _is_signed_adjoint, bracket


def test_shape_validation():
    assert SuPQShape(2).size == 4
    with pytest.raises(ValueError):
        SuPQShape(0)


def su11_images():
    """su(1,1)'s basis u, v, w: the images of the rank-1 standard embedding."""
    c = embedding_with_rank(1, 1)
    return c.f_u, c.f_v, c.f_w


def test_basis_constants():
    u, v, w = su11_images()
    assert u == GaussMatrix([[0, 1], [1, 0]])
    assert v == GaussMatrix([[0, 1j], [-1j, 0]])
    assert w == GaussMatrix([[1j, 0], [0, -1j]])
    half = Fraction(1, 2)
    x, y, h = (u - v * I) * half, (u + v * I) * half, w * (-I)
    assert x == GaussMatrix([[0, 1], [0, 0]])
    assert y == GaussMatrix([[0, 0], [1, 0]])
    assert h == GaussMatrix.diagonal([1, -1])


def test_membership_examples():
    shape = SuPQShape(1)
    assert in_su_pp(GaussMatrix.zeros(2, 2), shape)
    member = GaussMatrix([[1j, Fraction(3, 7)], [Fraction(3, 7), -1j]])
    assert in_su_pp(member, shape)
    assert not in_su_pp(GaussMatrix.diagonal([1, -1]), shape)
    with pytest.raises(ValueError):
        in_su_pp(GaussMatrix.zeros(3, 3), shape)


def test_membership_needs_matching_corner():
    shape = SuPQShape(1)
    bad = GaussMatrix([[1j, 1], [2, -1j]])  # lower-left is not the adjoint
    assert not in_su_pp(bad, shape)


def test_membership_trace_balance():
    shape = SuPQShape(2)
    a = GaussMatrix.diagonal([1j, 1j, -1j, -1j])
    assert in_su_pp(a, shape)
    unbalanced = GaussMatrix.diagonal([1j, 1j, -1j, 0])
    assert not in_su_pp(unbalanced, shape)


def test_cartan_decompose_examples():
    shape = SuPQShape(1)
    u, _, w = su11_images()
    split = cartan_decompose(w, shape)
    assert split.k_part == w and split.p_part.is_zero()
    split_u = cartan_decompose(u, shape)
    assert split_u.k_part.is_zero() and split_u.p_part == u
    with pytest.raises(MembershipError):
        cartan_decompose(GaussMatrix.diagonal([1, -1]), shape)


def test_su_pp_keeps_its_stream():
    # su_pp once drew a, b, the trace balance put into b's corner, then z;
    # k_part + p_part must give the same matrix and leave the stream in the
    # same state, so every seeded check downstream sees the same samples
    for p in (1, 2, 3, 4):
        shape = SuPQShape(p)
        for seed in range(200):
            rng, old = random.Random(seed), random.Random(seed)
            a, b = ref.skew_hermitian(old, p), ref.skew_hermitian(old, p)
            rows = [list(b.row(i)) for i in range(p)]
            rows[0][0] -= ref.trace(a) + ref.trace(b)
            b, z = GaussMatrix(rows), sampling.matrix(old, p)
            assert sampling.su_pp(rng, shape) == GaussMatrix.block([[a, z], [z.conj_transpose(), b]])
            assert rng.getstate() == old.getstate()


def test_draw_keeps_the_randint_stream():
    # _draw reads the stream through Random._randbelow; it must return what
    # four randint calls an entry return and leave the same state behind
    for seed in range(20):
        rng, old = random.Random(seed), random.Random(seed)
        re, im = sampling._draw(rng, 5000)
        want_re, want_im = [], []
        for _ in range(5000):
            for out in (want_re, want_im):
                out.append(old.randint(-sampling.SPAN, sampling.SPAN) * (sampling.DEN // old.randint(1, sampling.MAX_DEN)))
        assert (re, im) == (want_re, want_im)
        assert rng.getstate() == old.getstate()


def test_cartan_split_reassembles():
    rng = random.Random(21)
    for p in (1, 2, 3):
        shape = SuPQShape(p)
        a = sampling.su_pp(rng, shape)
        split = cartan_decompose(a, shape)
        assert split.k_part + split.p_part == a
        assert cartan_involution(split.k_part, shape) == split.k_part
        assert cartan_involution(split.p_part, shape) == -split.p_part


def test_involution_is_automorphism():
    rng = random.Random(22)
    for i in range(100):
        shape = SuPQShape(1 + i % 3)
        a, b = sampling.su_pp(rng, shape), sampling.su_pp(rng, shape)
        assert cartan_involution(cartan_involution(a, shape), shape) == a
        assert cartan_involution(bracket(a, b), shape) == bracket(
            cartan_involution(a, shape), cartan_involution(b, shape)
        )


def test_marked_members_pass_the_full_test(monkeypatch):
    # the sampled k, p and su(p,p) elements and the involution's images of
    # members are marked as members of u(p,p) untested, and bracket trusts
    # the mark; each one the sampled selftest checks meet is tested in full
    made = []

    def recording(fn):
        def wrapper(*args):
            out = fn(*args)
            made.append((fn.__name__, out))
            return out

        return wrapper

    for name in ("su_pp", "k_part", "p_part"):
        monkeypatch.setattr(sampling, name, recording(getattr(sampling, name)))
    monkeypatch.setattr(selftest, "cartan_involution", recording(cartan_involution))
    for check in (
        selftest.check_jacobi,
        selftest.check_antisymmetry,
        selftest.check_involution,
        selftest.check_cartan_inclusions,
        selftest.check_complex_structure,
    ):
        check()
    assert {name for name, _ in made} == {"su_pp", "k_part", "p_part", "cartan_involution"}
    for name, m in made:
        assert m._u_pp is True, name
        assert _is_signed_adjoint(m, m.rows // 2, U_PP), name
    # the image of a matrix not known to be a member is left untested
    image = cartan_involution(sampling.matrix(random.Random(5), 4), SuPQShape(2))
    assert image._u_pp is None


def test_cartan_bracket_inclusions():
    rng = random.Random(23)
    for i in range(100):
        shape = SuPQShape(1 + i % 3)
        k1, k2 = sampling.k_part(rng, shape), sampling.k_part(rng, shape)
        p1, p2 = sampling.p_part(rng, shape), sampling.p_part(rng, shape)
        assert cartan_decompose(bracket(k1, k2), shape).p_part.is_zero()
        assert cartan_decompose(bracket(k1, p1), shape).k_part.is_zero()
        assert cartan_decompose(bracket(p1, p2), shape).p_part.is_zero()


def test_complex_structure_examples():
    shape = SuPQShape(1)
    u, v, w = su11_images()
    assert complex_structure(u, shape) == v
    assert complex_structure(GaussMatrix.zeros(2, 2), shape).is_zero()
    with pytest.raises(MembershipError):
        complex_structure(w, shape)


def test_complex_structure_squares_to_minus_one():
    rng = random.Random(24)
    for i in range(100):
        shape = SuPQShape(1 + i % 3)
        a = sampling.p_part(rng, shape)
        assert in_p_part(a, shape)
        assert complex_structure(complex_structure(a, shape), shape) == -a


def test_complex_structure_commutes_with_center():
    rng = random.Random(25)
    for i in range(50):
        shape = SuPQShape(1 + i % 3)
        a = sampling.p_part(rng, shape)
        center = GaussMatrix.diagonal([1j] * shape.p + [-1j] * shape.p)
        assert complex_structure(bracket(center, a), shape) == bracket(
            center, complex_structure(a, shape)
        )


def test_rotation_action_has_no_real_eigenvector():
    selftest.check_bracket_table()
    # the action matrix itself, recomputed here: [w,u] = 2v, [w,v] = -2u
    u, v, w = su11_images()
    wu = bracket(w, u)
    wv = bracket(w, v)
    assert (wu[0, 1].re, wu[0, 1].im) == (0, 2)
    assert (wv[0, 1].re, wv[0, 1].im) == (-2, 0)
    trace = 0 + 0
    det = 0 * 0 - (-2) * 2
    assert trace == 0 and det == 4 and trace * trace - 4 * det < 0


# -- sampling and the su(p,p) maps against the quadrant and Fraction reference

# each sampler called on a module: geodesy.sampling or the reference
SAMPLERS = {
    "matrix": lambda mod, rng, p: mod.matrix(rng, p),
    "matrix_wide": lambda mod, rng, p: mod.matrix(rng, p, p + 2),
    # the package draws skew-Hermitian blocks, for k_part, with _skew alone
    "skew_hermitian": lambda mod, rng, p: (
        ref.skew_hermitian(rng, p) if mod is ref else GaussMatrix._from_ints(p, p, 2 * mod.DEN, *mod._skew(rng, p))
    ),
    "su_pp": lambda mod, rng, p: mod.su_pp(rng, SuPQShape(p)),
    "k_part": lambda mod, rng, p: mod.k_part(rng, SuPQShape(p)),
    "p_part": lambda mod, rng, p: mod.p_part(rng, SuPQShape(p)),
    "integer_diagonalizable": lambda mod, rng, p: mod.integer_diagonalizable(rng, p),
}


def _same_draw(name: str, seed: int, p: int) -> None:
    rng, old = random.Random(seed), random.Random(seed)
    assert SAMPLERS[name](sampling, rng, p) == SAMPLERS[name](ref, old, p)
    assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_sampling_matches_the_fraction_reference(name):
    for p in (1, 2, 3, 4):
        for seed in range(40):
            _same_draw(name, seed, p)


@given(st.sampled_from(sorted(SAMPLERS)), st.integers(0, 2**32), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_sampling_matches_the_fraction_reference_at_any_seed(name, seed, p):
    _same_draw(name, seed, p)


MAPS = ("in_su_pp", "in_p_part", "cartan_decompose", "cartan_involution", "complex_structure")


def _outcome(fn, a, shape):
    """fn's value, with a Cartan split as a pair, or the exception type it raises."""
    try:
        value = fn(a, shape)
    except ValueError as err:
        return type(err)
    return (value.k_part, value.p_part) if isinstance(value, CartanSplit) else value


@st.composite
def algebra_elements(draw):
    """Members of su(p,p), of k and of p, each as drawn or with one entry
    moved, its corner or its mirror moved to match, or made real or
    imaginary; other square matrices; matrices of the wrong shape."""
    p = draw(st.integers(1, 4))
    shape = SuPQShape(p)
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["su_pp", "k_part", "p_part", "zero", "square", "shape"]))
    if kind == "shape":
        rows, cols = draw(st.sampled_from([(2 * p, 2 * p + 1), (2 * p + 1, 2 * p), (2 * p - 1, 2 * p - 1), (1, 2 * p)]))
        return sampling.matrix(rng, rows, cols), shape
    if kind == "square":
        a = sampling.matrix(rng, 2 * p)
    elif kind == "zero":
        a = GaussMatrix.zeros(2 * p)
    else:
        a = getattr(sampling, kind)(rng, shape)
    n = 2 * p
    re, im = list(a.re_num), list(a.im_num)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        parts = draw(st.sampled_from([re, im]))
        delta = draw(st.sampled_from([-a.den, 1, 2 * a.den]))
        parts[i * n + j] += delta
        mirror = draw(st.sampled_from([None, 1, -1]))  # keep a = -J a* J, or break it
        if mirror is not None and (i, j) != (j, i):
            parts[j * n + i] += mirror * delta
    if draw(st.booleans()):
        re, im = draw(st.sampled_from([(re, [0] * (n * n)), ([0] * (n * n), im), (im, re)]))
    return GaussMatrix._from_ints(n, n, a.den, re, im), shape


@given(algebra_elements())
@settings(max_examples=400, deadline=None)
def test_su_pp_maps_match_the_quadrant_reference(case):
    a, shape = case
    for name in MAPS:
        assert _outcome(getattr(algebra, name), a, shape) == _outcome(getattr(ref, name), a, shape), name


def test_su_pp_maps_match_the_quadrant_reference_on_sampled_elements():
    rng = random.Random(26)
    verdicts = set()
    for i in range(300):
        shape = SuPQShape(1 + i % 4)
        kind = ("su_pp", "k_part", "p_part")[i % 3]
        a = getattr(sampling, kind)(rng, shape)
        for b in (a, sampling.matrix(rng, shape.size)):
            for name in MAPS:
                got = _outcome(getattr(algebra, name), b, shape)
                assert got == _outcome(getattr(ref, name), b, shape), name
                verdicts.add((name, got if isinstance(got, (bool, type)) else type(got)))
    # members and non-members of su(p,p) and of p were both met
    assert {("in_su_pp", True), ("in_su_pp", False), ("in_p_part", True), ("in_p_part", False)} <= verdicts
    assert ("cartan_decompose", MembershipError) in verdicts
    assert ("complex_structure", MembershipError) in verdicts
