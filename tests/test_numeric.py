import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numeric_reference as ref
from geodesy import numeric
from geodesy.numeric import gradient, gradient_check, minimize, residual
from geodesy.weights import WeightData, enumerate_weight_data


STANDARD2 = WeightData({1: 2}, {-1: 2})


def test_exact_solution_has_zero_residual():
    point = {"cross[-1->1]": np.eye(2, dtype=complex)}
    assert residual(STANDARD2, point) < 1e-24


def _zero_point(wd):
    from geodesy.ladder import block_slot, derive_constraints

    layout = wd.layout()
    point = {}
    for label, key in derive_constraints(wd).blocks().items():
        (r0, r1), (c0, c1), _ = block_slot(key, layout)
        point[label] = np.zeros((r1 - r0, c1 - c0), dtype=complex)
    return point


def test_zero_point_residual_closed_form():
    # with all blocks zero only the fixed diagonal target survives
    for wd in (STANDARD2, WeightData({3: 1, 1: 1}, {-1: 1, -3: 1})):
        expected = sum(w * w * m for w, m in wd.plus.items()) + sum(
            w * w * m for w, m in wd.minus.items()
        )
        assert residual(wd, _zero_point(wd)) == pytest.approx(expected, abs=0)


def test_perturbation_is_second_order():
    eps = 1e-5
    point = {"cross[-1->1]": np.eye(2, dtype=complex)}
    point["cross[-1->1]"] = point["cross[-1->1]"].copy()
    point["cross[-1->1]"][0, 1] += eps
    value = residual(STANDARD2, point)
    assert 0 < value < 100 * eps**2


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        residual(STANDARD2, {"cross[-1->1]": np.eye(3, dtype=complex)})
    with pytest.raises(ValueError):
        residual(STANDARD2, {})


def test_unknown_block_label_rejected():
    point = {"cross[-1->1]": np.eye(2, dtype=complex), "cros[-1->1]": np.eye(2, dtype=complex)}
    for fn in (residual, gradient):
        with pytest.raises(ValueError, match=r"cros\[-1->1\] is not an unknown"):
            fn(STANDARD2, point)
    with pytest.raises(ValueError, match="is not an unknown"):
        residual(WeightData({0: 1}, {0: 1}), {"cross[-1->1]": np.eye(1, dtype=complex)})


def test_gradient_matches_finite_differences():
    for wd in (STANDARD2, WeightData({3: 1, 1: 1}, {-1: 1, -3: 1})):
        assert gradient_check(wd, seed=5, points=10) < 1e-5


def test_minimize_feasible_pattern():
    report = minimize(WeightData({1: 1}, {-1: 1}), restarts=5, seed=3, target=1e-18)
    assert report.final_residual < 1e-18
    assert report.final_residual == residual(report.pattern, report.best_point)


def test_minimize_standard_two_within_twenty_restarts():
    report = minimize(STANDARD2, restarts=20, seed=7, target=1e-18)
    assert report.final_residual < 1e-18
    assert report.restarts <= 20


def test_minimize_never_underreports():
    report = minimize(STANDARD2, restarts=3, seed=9)
    assert report.final_residual == residual(STANDARD2, report.best_point)


def test_minimize_infeasible_pattern_has_floor():
    report = minimize(WeightData({3: 1, 1: 1}, {-1: 1, -3: 1}), restarts=5, seed=7)
    assert report.final_residual > 1e-3


def test_trivial_pattern_short_circuits():
    report = minimize(WeightData({0: 1}, {0: 1}), restarts=4, seed=0)
    assert report.final_residual == 0.0
    assert report.iterations == 0 and report.best_point == {}


def test_pattern_without_unknowns_reports_target_norm():
    report = minimize(WeightData({5: 1}, {-5: 1}), restarts=2, seed=0)
    assert report.final_residual == pytest.approx(50.0, abs=0)
    assert report.iterations == 0


def test_minimize_is_deterministic():
    a = minimize(STANDARD2, restarts=4, seed=11)
    b = minimize(STANDARD2, restarts=4, seed=11)
    assert a.final_residual == b.final_residual
    assert a.best_restart == b.best_restart and a.iterations == b.iterations
    for label in a.best_point:
        assert np.array_equal(a.best_point[label], b.best_point[label])


def test_minimize_argument_validation():
    with pytest.raises(ValueError):
        minimize(STANDARD2, restarts=0, seed=1)
    with pytest.raises(ValueError):
        minimize(STANDARD2, restarts=1, seed=-4)


def test_stop_reasons_name_every_descent():
    assert minimize(WeightData({1: 1}, {-1: 1}), restarts=1, seed=7).stop_reasons == ("grad_tol",)
    assert minimize(STANDARD2, restarts=3, seed=7).stop_reasons == ("grad_tol",) * 3
    floor = WeightData({3: 1, 1: 1}, {-1: 1, -3: 1})
    assert minimize(floor, restarts=3, seed=7).stop_reasons == ("no_decrease",) * 3
    assert minimize(STANDARD2, restarts=2, seed=7, max_iter=1).stop_reasons == ("max_iter",) * 2
    # one reason per restart run, also when the target stops the loop early
    report = minimize(STANDARD2, restarts=20, seed=7, target=1e-18)
    assert len(report.stop_reasons) == report.restarts < 20
    assert minimize(WeightData({0: 1}, {0: 1}), restarts=4, seed=0).stop_reasons == ()
    assert "stop_reasons" not in report.to_json_dict()


def test_descents_end_within_fifty_iterations():
    # measured: the exact line search ends every descent from these starts
    # in at most 19 iterations, so a stall rule would never fire
    for wd in CRITERION_6_TABLES:
        problem = numeric._Problem(wd)
        for k in range(3):
            v = numeric._random_point(problem, np.random.default_rng([7, k]))
            _, _, iters, reason = numeric._descend(problem, v, 100_000, 1e-10)
            assert iters <= 50 and reason != numeric.MAX_ITER, (wd.describe(), k)


# ----------------------------------------------------------------------
# the closed-form cubic behind the exact line search, against np.roots

leading = st.floats(1e-3, 1e3).flatmap(lambda a: st.sampled_from([a, -a]))
root_values = st.floats(-100, 100)


def _cubic(a, roots):
    r1, r2, r3 = roots
    return a, -a * (r1 + r2 + r3), a * (r1 * r2 + r1 * r3 + r2 * r3), -a * r1 * r2 * r3


def _assert_roots_near(got, want, tol):
    """Every root on one side lies within tol of a root on the other."""
    assert got, want
    for z in want:
        assert min(abs(z - x) for x in got) <= tol, (got, want)
    for x in got:
        assert min(abs(z - x) for z in want) <= tol, (got, want)


@settings(max_examples=200, deadline=None)
@given(leading, st.lists(root_values, min_size=3, max_size=3))
def test_cubic_three_real_roots(a, roots):
    scale = 1 + max(map(abs, roots))
    assume(min(abs(x - y) for x, y in zip(roots, roots[1:] + roots[:1])) > 1e-2 * scale)
    coeffs = _cubic(a, roots)
    got = numeric._cubic_roots(*coeffs)
    assert len(got) == 3
    want = np.roots(coeffs)
    assert np.all(np.abs(want.imag) < 1e-6 * scale)
    assert np.allclose(sorted(got), sorted(want.real), rtol=0, atol=1e-9 * scale)


@settings(max_examples=200, deadline=None)
@given(leading, root_values, root_values, st.floats(1e-2, 1.0))
def test_cubic_one_real_root(a, root, re, im_share):
    scale = 1 + max(abs(root), abs(re))
    im = im_share * scale
    # a (x - root) (x^2 - 2 re x + re^2 + im^2)
    coeffs = (a, -a * (root + 2 * re), a * (2 * re * root + re * re + im * im), -a * root * (re * re + im * im))
    got = numeric._cubic_roots(*coeffs)
    want = [z.real for z in np.roots(coeffs) if abs(z.imag) < 1e-6 * scale]
    assert len(got) == len(want) == 1
    assert abs(got[0] - want[0]) <= 1e-9 * scale


@settings(max_examples=200, deadline=None)
@given(leading, root_values, root_values)
def test_cubic_double_root(a, double, simple):
    scale = 1 + max(abs(double), abs(simple))
    assume(abs(double - simple) > 0.1 * scale)
    coeffs = _cubic(a, (double, double, simple))
    got = numeric._cubic_roots(*coeffs)
    _assert_roots_near(got, np.roots(coeffs), 1e-6 * scale)
    _assert_roots_near(got, [double, simple], 1e-6 * scale)


@settings(max_examples=200, deadline=None)
@given(leading, root_values)
def test_cubic_triple_root(a, root):
    scale = 1 + abs(root)
    coeffs = _cubic(a, (root, root, root))
    got = numeric._cubic_roots(*coeffs)
    _assert_roots_near(got, np.roots(coeffs), 1e-4 * scale)
    _assert_roots_near(got, [root], 1e-4 * scale)


@settings(max_examples=200, deadline=None)
@given(leading, root_values, root_values, st.floats(1e-2, 1.0), st.booleans())
def test_cubic_with_zero_leading_coefficient(b, x, y, im_share, real):
    # c4 = 0 (r2 = 0) zeroes the derivative's leading coefficient; np.roots
    # then strips it, and the solver must solve the lower-degree rest
    scale = 1 + max(abs(x), abs(y))
    if real:
        assume(abs(x - y) > 1e-2 * scale)
        coeffs = (0.0, b, -b * (x + y), b * x * y)
    else:
        im = im_share * scale
        coeffs = (0.0, b, -2 * b * x, b * (x * x + im * im))
    got = numeric._cubic_roots(*coeffs)
    want = np.roots(coeffs)
    assert len(want) == 2
    if real:
        assert np.allclose(sorted(got), sorted(want.real), rtol=0, atol=1e-9 * scale)
    else:
        assert got == []


def test_cubic_degenerate_to_a_line_or_nothing():
    assert numeric._cubic_roots(0.0, 0.0, 2.0, -3.0) == [1.5]
    assert numeric._cubic_roots(0.0, 0.0, 0.0, 1.0) == []
    assert numeric._cubic_roots(0.0, 0.0, 0.0, 0.0) == []


def test_exact_step_is_the_lowest_positive_critical_point():
    # a^4 - 2 a^2 + c1 a: minima near -1 and +1, the lower one on the side c1 favours
    assert numeric._exact_step(0.0, -2.0, 0.0, 1.0) == pytest.approx(1.0)
    for c1 in (-0.1, 0.1):
        # with c1 > 0 the positive minimum is a local one, still the best step
        a = numeric._exact_step(c1, -2.0, 0.0, 1.0)
        assert abs(a - 1) < 0.02 and abs(4 * a**3 - 4 * a + c1) < 1e-14
    # increasing along the whole positive axis: no step
    assert numeric._exact_step(1.0, 1.0, 0.0, 1.0) is None
    # a quadratic objective (r2 = 0): the vertex
    assert numeric._exact_step(-4.0, 1.0, 0.0, 0.0) == 2.0


# ----------------------------------------------------------------------
# the flat kernel against the dict-based reference in numeric_reference

CRITERION_6_TABLES = [wd for p in (1, 2, 3) for wd in enumerate_weight_data(p)]
ORACLE_TABLES = CRITERION_6_TABLES[::6]
SMALL_TABLES = CRITERION_6_TABLES + [WeightData({1: 4}, {-1: 4})]


def _assert_same_point(problem, reference, v):
    point = problem.unflatten(v)
    value, xy, r, _ = numeric._evaluate(problem, v)
    assert value.hex() == ref.residual(reference, point).hex()
    flat_grad = numeric._gradient(problem, xy, r)
    got = problem.unflatten(flat_grad)
    want = ref.gradient(reference, point)
    assert list(got) == list(want)
    for label in want:
        assert got[label].tobytes() == want[label].tobytes(), label
    assert numeric._grad_norm(problem, flat_grad).hex() == ref.grad_norm(want).hex()


EPS = np.finfo(float).eps


def _rounding_bound(problem, v):
    """A bound on the Frobenius error of the residual [R; W] that _evaluate computes at v.

    Entry by entry, XY is a sum of n complex products: each product is off
    by at most sqrt(2) * 2 eps of |x||y| and the n - 1 additions add
    (n - 1) eps, so |fl(XY) - XY| <= (n + 2) eps |X||Y|.  The two
    subtractions in R = XY - YX - H add 2 eps of |X||Y| + |Y||X| + |H|,
    and the rounded point itself (v - a grad is rounded before it is
    assembled) moves XY and YX by another 2 eps of their size.  With
    || |X||Y| ||_F <= ||X||_F ||Y||_F, that gives

        ||dR||_F <= (n + 6) eps (2 ||X||_F ||Y||_F + ||H||_F).

    Each entry of the weight term H X - X H - 2 X (and of its partner) is
    three products of size at most (2 max|h| + 2) |x| and two additions,
    so in the same way ||dW||_F <= 6 eps (2 max|h| + 2) ||[X; Y]||_F.
    """
    x, y = problem.assemble(v)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    d_r = (problem.n + 6) * EPS * (2 * nx * ny + np.linalg.norm(problem.target))
    d_w = 6 * EPS * (2 * np.abs(problem.h_rows).max() + 2) * np.hypot(nx, ny)
    return float(d_r + d_w)


def _assert_quartic_line(problem, v):
    """The line coefficients give value(v - a grad) at five step sizes.

    Both sides are the squared norm of the one residual T at v - a grad,
    each with its own rounding.  The quartic's coefficients carry the
    error E1 of [R; W] as _evaluate computed it at v, and the direct
    evaluation carries its error E2 at v - a grad.  So with
    d = ||E1|| + ||E2|| (_rounding_bound at both points) and rho the
    square root of the direct value, ||T + E2||,

        | ||T + E1||^2 - ||T + E2||^2 | <= ||E1 - E2|| (||T + E1|| + ||T + E2||)
                                       <= d (2 rho + d).

    The quartic is then summed from the value and four coefficients, each
    a dot product of N = 2 n^2 terms: the dot products are off by about
    N eps of |c_k| and Horner's rule by at most 8 eps of sum |c_k| a^k, so
    the sum adds (N + 9) eps sum |c_k| a^k, with c_0 the value.

    These absolute allowances matter only where the value is a
    cancellation.  Near a root R is a difference of entries of size
    |X||Y|, and its rounding is a large part of a tiny value; a step that
    lands near the minimum makes the quartic a difference of large terms.
    Elsewhere both are well below 1e-12 of the value, which the relative
    tolerance already allows.
    """
    value, xy, r, w = numeric._evaluate(problem, v)
    grad = numeric._gradient(problem, xy, r)
    coefficients = (value, *numeric._line_coefficients(problem, xy, r, w, problem.assemble(grad)))
    c0, c1, c2, c3, c4 = coefficients
    horner = (2 * problem.n**2 + 9) * EPS
    d_v = _rounding_bound(problem, v)
    for a in (0.0, 1e-3, 0.1, 1.0, 3.0):
        quartic = c0 + a * (c1 + a * (c2 + a * (c3 + a * c4)))
        direct = numeric._evaluate(problem, v - a * grad)[0]
        d = d_v + _rounding_bound(problem, v - a * grad)
        allowance = d * (2 * direct**0.5 + d) + horner * sum(abs(c) * a**k for k, c in enumerate(coefficients))
        assert quartic == pytest.approx(direct, rel=1e-12, abs=allowance), a


def _assert_descent_no_worse(problem, reference, v):
    """The exact line search never ends above the backtracking reference."""
    _, got, _, _ = numeric._descend(problem, v, 100_000, 1e-10)
    _, want, _ = ref.descend(reference, problem.unflatten(v), 100_000, 1e-10)
    assert got <= want * (1 + 1e-9) or got < 1e-16, (problem.wd.describe(), got, want)


def test_flat_kernel_matches_reference_on_oracle_tables():
    for wd in ORACLE_TABLES:
        problem, reference = numeric._Problem(wd), ref.Problem(wd)
        for k in range(3):
            v = numeric._random_point(problem, np.random.default_rng([7, k]))
            start = ref.random_point(reference, np.random.default_rng([7, k]))
            assert v.tobytes() == problem.flatten(start).tobytes()
            _assert_same_point(problem, reference, v)
            point = problem.unflatten(v)
            assert residual(wd, point).hex() == ref.residual(reference, point).hex()
            _assert_quartic_line(problem, v)
            _assert_descent_no_worse(problem, reference, v)


complex_entries = st.complex_numbers(max_magnitude=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def kernel_points(draw):
    """(table, point entries, weights or None): a point of a small table,
    and in half the draws non-integer weights in place of the table's."""
    wd = draw(st.sampled_from(SMALL_TABLES))
    problem = numeric._Problem(wd)
    entries = draw(st.lists(complex_entries, min_size=problem.size, max_size=problem.size))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(-8, 8), min_size=problem.n, max_size=problem.n))
    return wd, entries, weights


@settings(max_examples=80, deadline=None)
@given(kernel_points())
# cancellations that _assert_quartic_line allows for: next to a root the
# residual rounds to about 1e-11 of its value at step 1e-3, and from 12 the
# step 1e-3 lands near the minimum, where the quartic sums terms of 4e4 to 8
@example((WeightData({1: 1}, {-1: 1}), [0.99999 + 0j], None))
@example((WeightData({1: 1}, {-1: 1}), [12 + 0j], None))
def test_flat_kernel_matches_reference_on_random_points(case):
    wd, entries, weights = case
    problem, reference = numeric._Problem(wd), ref.Problem(wd)
    v = np.array(entries, dtype=complex)
    if weights is not None:
        # non-integer weights make H X - X H - 2 X and its partner as large
        # as the commutator residual, so all three sums and their order
        # show in the result, and the line quartic needs its weight term
        w = np.array(weights, dtype=complex)
        problem.target = reference.target = np.diag(w)
        problem.h_rows, problem.h_cols = w[:, None], w[None, :]
    _assert_same_point(problem, reference, v)
    _assert_quartic_line(problem, v)


def test_gradient_check_matches_reference():
    for wd in (STANDARD2, WeightData({3: 1, 1: 1}, {-1: 1, -3: 1})):
        assert gradient_check(wd, seed=7, points=2).hex() == ref.gradient_check(wd, seed=7, points=2).hex()
