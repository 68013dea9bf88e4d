import numpy as np
import pytest
from hypothesis import given, settings
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
    assert minimize(STANDARD2, restarts=1, seed=7).stop_reasons == ("stall",)
    floor = WeightData({3: 1, 1: 1}, {-1: 1, -3: 1})
    assert minimize(floor, restarts=3, seed=7).stop_reasons == ("alpha_underflow",) * 3
    assert minimize(STANDARD2, restarts=2, seed=7, max_iter=1).stop_reasons == ("max_iter",) * 2
    # one reason per restart run, also when the target stops the loop early
    report = minimize(STANDARD2, restarts=20, seed=7, target=1e-18)
    assert len(report.stop_reasons) == report.restarts < 20
    assert minimize(WeightData({0: 1}, {0: 1}), restarts=4, seed=0).stop_reasons == ()
    assert "stop_reasons" not in report.to_json_dict()


# ----------------------------------------------------------------------
# the flat kernel against the dict-based reference in numeric_reference

ORACLE_TABLES = [wd for p in (1, 2, 3) for wd in enumerate_weight_data(p)][::6]
SMALL_TABLES = [wd for p in (1, 2, 3) for wd in enumerate_weight_data(p)] + [WeightData({1: 4}, {-1: 4})]


def _assert_same_point(problem, reference, v):
    point = problem.unflatten(v)
    value, xy, r = numeric._evaluate(problem, v)
    assert value.hex() == ref.residual(reference, point).hex()
    flat_grad = numeric._gradient(problem, xy, r)
    got = problem.unflatten(flat_grad)
    want = ref.gradient(reference, point)
    assert list(got) == list(want)
    for label in want:
        assert got[label].tobytes() == want[label].tobytes(), label
    assert numeric._grad_norm(problem, flat_grad).hex() == ref.grad_norm(want).hex()


def _assert_same_descent(problem, reference, v, max_iter):
    got_v, got_value, got_iters, _ = numeric._descend(problem, v, max_iter, 1e-10)
    want_point, want_value, want_iters = ref.descend(reference, problem.unflatten(v), max_iter, 1e-10)
    assert got_iters == want_iters
    assert got_value.hex() == want_value.hex()
    assert got_v.tobytes() == problem.flatten(want_point).tobytes()


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
            _assert_same_descent(problem, reference, v, max_iter=100_000)


complex_entries = st.complex_numbers(max_magnitude=1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_flat_kernel_matches_reference_on_random_points(data):
    wd = data.draw(st.sampled_from(SMALL_TABLES))
    problem, reference = numeric._Problem(wd), ref.Problem(wd)
    entries = data.draw(st.lists(complex_entries, min_size=problem.size, max_size=problem.size))
    v = np.array(entries, dtype=complex)
    if data.draw(st.booleans()):
        # non-integer weights make H X - X H - 2 X and its partner as large
        # as the commutator residual, so all three sums and their order
        # show in the result
        weights = data.draw(st.lists(st.floats(-8, 8), min_size=problem.n, max_size=problem.n))
        w = np.array(weights, dtype=complex)
        problem.target = reference.target = np.diag(w)
        problem.h_rows, problem.h_cols = w[:, None], w[None, :]
    _assert_same_point(problem, reference, v)
    _assert_same_descent(problem, reference, v, max_iter=30)


def test_gradient_check_matches_reference():
    for wd in (STANDARD2, WeightData({3: 1, 1: 1}, {-1: 1, -3: 1})):
        assert gradient_check(wd, seed=7, points=2).hex() == ref.gradient_check(wd, seed=7, points=2).hex()
