import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numeric_reference as ref
from geodesy import normals, numeric
from geodesy.ladder import classify_weight_data
from geodesy.numeric import gradient_check, minimize
from geodesy.weights import WeightData, enumerate_weight_data


STANDARD2 = WeightData({1: 2}, {-1: 2})


def _residual(wd, point):
    """The residual at a dict point, as one lane of the flat kernel."""
    problem = numeric._Problem(wd)
    return _evaluate_one(problem, problem.flatten(point))[0]


def test_exact_solution_has_zero_residual():
    point = {"cross[-1->1]": np.eye(2, dtype=complex)}
    assert _residual(STANDARD2, point) < 1e-24


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
        assert _residual(wd, _zero_point(wd)) == pytest.approx(expected, abs=0)


def test_perturbation_is_second_order():
    eps = 1e-5
    point = {"cross[-1->1]": np.eye(2, dtype=complex)}
    point["cross[-1->1]"] = point["cross[-1->1]"].copy()
    point["cross[-1->1]"][0, 1] += eps
    value = _residual(STANDARD2, point)
    assert 0 < value < 100 * eps**2


def test_gradient_matches_finite_differences():
    for wd in (STANDARD2, WeightData({3: 1, 1: 1}, {-1: 1, -3: 1})):
        assert gradient_check(wd, seed=5, points=10) < 1e-5
    # a table without unknowns has no gradient to check
    assert gradient_check(WeightData({0: 2}, {0: 2}), seed=1) == 0.0


def test_minimize_feasible_pattern():
    report = minimize(WeightData({1: 1}, {-1: 1}), restarts=5, seed=3, target=1e-18)
    assert report.final_residual < 1e-18
    assert report.final_residual == _residual(report.pattern, report.best_point)


def test_minimize_standard_two_within_twenty_restarts():
    report = minimize(STANDARD2, restarts=20, seed=7, target=1e-18)
    assert report.final_residual < 1e-18
    assert report.restarts <= 20


def test_minimize_never_underreports():
    report = minimize(STANDARD2, restarts=3, seed=9)
    assert report.final_residual == _residual(STANDARD2, report.best_point)


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


def test_descents_end_within_fifty_iterations():
    # measured: the exact line search ends every descent from these starts
    # in at most 19 iterations, so a stall rule would never fire
    for wd in CRITERION_6_TABLES:
        problem = numeric._Problem(wd)
        for k in range(3):
            v = numeric._random_point(problem, 7, k)
            run = numeric._descend(problem, v[None], 100_000, 1e-10)
            iters, reason = run.steps[0], run.reasons[0]
            assert iters <= 50 and reason != numeric.MAX_ITER, (wd.describe(), k)


def test_report_keeps_each_restarts_steps_and_residual():
    for kwargs in (dict(restarts=3, seed=7), dict(restarts=20, seed=7, target=1e-18), dict(restarts=4, seed=7, max_iter=1)):
        report = minimize(STANDARD2, **kwargs)
        assert len(report.restart_steps) == len(report.restart_residuals) == report.restarts
        assert report.restart_steps[report.best_restart] == report.iterations
        assert report.restart_residuals[report.best_restart] == report.final_residual == min(report.restart_residuals)
        assert all(type(steps) is int for steps in report.restart_steps)
        assert all(type(value) is float for value in report.restart_residuals)
    report = minimize(WeightData({0: 1}, {0: 1}), restarts=4, seed=0)
    assert report.restart_steps == report.restart_residuals == ()


# ----------------------------------------------------------------------
# restarts as lanes: a batch computes what each of its lanes computes alone

LANE_CASES = [
    # the lanes stop after 3 to 5 steps, for each of the three reasons
    (WeightData({3: 1, -1: 1}, {1: 1, -3: 1}), 5),
    # the lanes stop after 4 to 17 steps
    (WeightData({2: 1, -2: 2}, {2: 1, 0: 2}), 100_000),
]


def _starts(problem, count, seed=5):
    return np.array([numeric._random_point(problem, seed, k) for k in range(count)])


def _alone(problem, starts, max_iter):
    """One single-lane _descend per row of starts."""
    return [numeric._descend(problem, v[None], max_iter, 1e-10) for v in starts]


@pytest.mark.parametrize("wd, max_iter", LANE_CASES, ids=["three_reasons", "many_steps"])
def test_lanes_descend_as_they_do_alone(wd, max_iter):
    problem = numeric._Problem(wd)
    starts = _starts(problem, numeric.LANES + 3)
    run = numeric._descend(problem, starts, max_iter, 1e-10)
    alone = _alone(problem, starts, max_iter)
    assert run.points.tobytes() == b"".join(one.points.tobytes() for one in alone)
    assert [value.hex() for value in run.values] == [one.values[0].hex() for one in alone]
    assert run.steps == [one.steps[0] for one in alone]
    assert run.reasons == [one.reasons[0] for one in alone]
    assert type(run.accepted) is int and run.accepted == sum(run.steps)
    assert len(set(run.steps)) > 1


def _spy_lanes(monkeypatch):
    """The number of lanes of each later numeric._descend call."""
    lanes = []
    descend = numeric._descend

    def spy(problem, v, max_iter, grad_tol):
        lanes.append(len(v))
        return descend(problem, v, max_iter, grad_tol)

    monkeypatch.setattr(numeric, "_descend", spy)
    return lanes


def test_minimize_runs_restarts_beyond_the_cap_as_they_run_alone(monkeypatch):
    wd, max_iter = LANE_CASES[0]
    problem = numeric._Problem(wd)
    restarts = 2 * numeric.LANES + 3
    alone = _alone(problem, _starts(problem, restarts), max_iter)
    lanes = _spy_lanes(monkeypatch)
    report = minimize(wd, restarts=restarts, seed=5, max_iter=max_iter)
    assert lanes == [numeric.LANES, numeric.LANES, 3]
    assert report.restarts == restarts
    assert report.stop_reasons == tuple(one.reasons[0] for one in alone)
    assert report.restart_steps == tuple(one.steps[0] for one in alone)
    assert [value.hex() for value in report.restart_residuals] == [one.values[0].hex() for one in alone]
    best = min(range(restarts), key=lambda k: alone[k].values[0])
    assert (report.best_restart, report.iterations) == (best, alone[best].steps[0])
    assert report.final_residual.hex() == alone[best].values[0].hex()
    assert problem.flatten(report.best_point).tobytes() == alone[best].points[0].tobytes()


def test_minimize_batches_restarts_by_lanes_and_entries(monkeypatch):
    lanes = _spy_lanes(monkeypatch)
    # a restart with a target runs only if the earlier ones missed it
    report = minimize(STANDARD2, restarts=20, seed=7, target=1e-18)
    assert lanes == [1] * report.restarts
    # n = 32: the stacked X and Y of a lane hold 2048 entries, so 4 lanes fill LANE_ENTRIES
    lanes.clear()
    minimize(WeightData({1: 16}, {-1: 16}), restarts=6, seed=0, max_iter=1)
    assert numeric.LANE_ENTRIES // (2 * 32 * 32) == 4
    assert lanes == [4, 2]


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


def _evaluate_one(problem, v):
    """numeric._evaluate of the one point v, as one lane: (value, xy, r, w)."""
    value, xy, r, w = numeric._evaluate(problem, v[None])
    return float(value[0]), xy, r, w


def _assert_same_point(problem, reference, v):
    point = problem.unflatten(v)
    value, xy, r, _ = _evaluate_one(problem, v)
    assert value.hex() == ref.residual(reference, point).hex()
    flat_grad = numeric._gradient(problem, xy, r)[0]
    got = problem.unflatten(flat_grad)
    want = ref.gradient(reference, point)
    assert list(got) == list(want)
    for label in want:
        assert got[label].tobytes() == want[label].tobytes(), label
    assert float(numeric._grad_norm(problem, flat_grad[None])[0]).hex() == ref.grad_norm(want).hex()


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
    x, y = problem.assemble(v[None])[0]
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
    value, xy, r, w = _evaluate_one(problem, v)
    grad = numeric._gradient(problem, xy, r)
    lines = numeric._line_coefficients(problem, xy, r, w, problem.assemble(grad))
    coefficients = (value, *(float(c[0]) for c in lines))
    grad = grad[0]
    c0, c1, c2, c3, c4 = coefficients
    horner = (2 * problem.n**2 + 9) * EPS
    d_v = _rounding_bound(problem, v)
    for a in (0.0, 1e-3, 0.1, 1.0, 3.0):
        quartic = c0 + a * (c1 + a * (c2 + a * (c3 + a * c4)))
        direct = _evaluate_one(problem, v - a * grad)[0]
        d = d_v + _rounding_bound(problem, v - a * grad)
        allowance = d * (2 * direct**0.5 + d) + horner * sum(abs(c) * a**k for k, c in enumerate(coefficients))
        assert quartic == pytest.approx(direct, rel=1e-12, abs=allowance), a


def _assert_descent_no_worse(problem, reference, v):
    """The exact line search never ends above the backtracking reference."""
    got = numeric._descend(problem, v[None], 100_000, 1e-10).values[0]
    _, want, _ = ref.descend(reference, problem.unflatten(v), 100_000, 1e-10)
    assert got <= want * (1 + 1e-9) or got < 1e-16, (reference.wd.describe(), got, want)


def test_flat_kernel_matches_reference_on_oracle_tables():
    for wd in ORACLE_TABLES:
        problem, reference = numeric._Problem(wd), ref.Problem(wd)
        for k in range(3):
            v = numeric._random_point(problem, 7, k)
            start = ref.random_point(reference, np.random.default_rng([7, k]))
            assert v.tobytes() == problem.flatten(start).tobytes()
            _assert_same_point(problem, reference, v)
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


def test_an_oracle_pass_seeds_each_restarts_stream_once(monkeypatch):
    # restart k of every table starts from the stream of [7, k], which the
    # process seeds once; the 20 tables run 52 restarts, none beyond k = 2
    monkeypatch.setattr(normals, "_streams", {})
    seeded = []
    seed = normals._seed
    monkeypatch.setattr(normals, "_seed", lambda entropy: seeded.append(list(entropy)) or seed(entropy))
    descents = 0
    for wd in ORACLE_TABLES:  # as the oracle workload runs criterion 6
        if classify_weight_data(wd).status == "feasible":
            report = minimize(wd, restarts=20, seed=7, target=1e-18)
        else:
            report = minimize(wd, restarts=3, seed=7)
        descents += len(report.stop_reasons)
    assert descents == 52
    assert seeded == [[7, 0], [7, 1], [7, 2]]


def test_block_sum_adds_each_blocks_sum_left_to_right():
    # the per-block loop it replaced: each block's slice sum(), added in label order
    rng = np.random.default_rng(3)
    # ten blocks: numpy's pairwise summation would add nine or more in another order
    many = WeightData({4: 1, 2: 1, 0: 1, -2: 1}, {2: 1, 0: 1, -2: 1, -4: 1})
    tables = [wd for wd in SMALL_TABLES if len(numeric._Problem(wd).blocks) >= 3] + [many]
    assert len(numeric._Problem(many).blocks) == 10
    for wd in tables:
        problem = numeric._Problem(wd)
        values = np.abs(rng.standard_normal((50, problem.size)) * 10.0 ** rng.integers(-6, 6, (50, problem.size))) ** 2
        want = [sum(float(row[start:stop].sum()) for _, start, stop, _ in problem.blocks) for row in values]
        assert [x.hex() for x in problem.block_sum(values).tolist()] == [x.hex() for x in want], wd.describe()


def test_gradient_check_matches_reference():
    for wd in (STANDARD2, WeightData({3: 1, 1: 1}, {-1: 1, -3: 1})):
        assert gradient_check(wd, seed=7, points=2).hex() == ref.gradient_check(wd, seed=7, points=2).hex()


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _child(code: str, hash_seed: str = "0") -> str:
    """stdout of a fresh interpreter running code against this checkout."""
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_selftest_checks_never_import_numpy_random():
    # numpy imports numpy.random lazily, and a fresh process pays several
    # milliseconds for it; the gradient check draws from Python's generator
    out = _child(
        "import sys\n"
        "from geodesy.selftest import CHECKS\n"
        "for _, check in CHECKS:\n"
        "    check()\n"
        "print('numpy.random' in sys.modules, 'geodesy.numeric' in sys.modules)\n"
    )
    assert out == "False True\n"


def test_oracle_never_imports_numpy_random():
    # minimize's starts come from geodesy.normals, not from numpy's Generator
    out = _child(
        "import contextlib, io, sys\n"
        "from geodesy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        "    code = cli.run(['oracle', '2'])\n"
        "print(code, 'final residual' in text.getvalue(), 'numpy.random' in sys.modules)\n"
    )
    assert out == "0 True False\n"


def test_gradient_check_draws_do_not_depend_on_the_hash_seed():
    code = (
        "from geodesy.numeric import gradient_check\n"
        "from geodesy.weights import WeightData\n"
        "print(gradient_check(WeightData({3: 1, 1: 1}, {-1: 1, -3: 1}), seed=11, points=3).hex())\n"
    )
    first, second = _child(code, "1"), _child(code, "2")
    assert first == second
    assert float.fromhex(first) == gradient_check(WeightData({3: 1, 1: 1}, {-1: 1, -3: 1}), seed=11, points=3)
