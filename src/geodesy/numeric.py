"""Floating-point corroboration of verdicts by direct residual minimization.

For a weight table the structured unknowns are the same raising and
crossing blocks the exact engine works with, but over complex floats.  The
objective is the squared Frobenius deviation of the assembled triple from
the sl(2) relations; seeded multistart gradient descent either drives it to
numerical zero (corroborating a feasible verdict) or stops on a strictly
positive floor (evidence, not proof, for an infeasible one).

Inside the descent a point is one flat complex vector: the blocks in label
order, each block row-major.  ``_Problem`` precomputes where every entry
lands, a flat index into X, a flat index into its partner Y and the partner
sign, all taken from ``ladder.block_cells``, so assembling the triple is two
index scatters and the gradient is one gather.  The weight operator H is
diagonal, so H X - X H is a row and a column scaling.  Each accepted step
hands its assembled X, Y and relation residual XY - YX - H on to the next
gradient.  The public functions take and return a ``StructuredPoint``, one
array per block label.

The line search is exact.  Assembly is real-linear, so along the descent
direction X and Y move linearly in the step size a, the relation residual
is quadratic in a and the objective is a quartic in a.  Its five
coefficients come from three more stacked products, and the step is the
positive critical point, a root of the cubic derivative solved in closed
form, with the lowest quartic value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .ladder import block_cells, derive_constraints
from .weights import WeightData

StructuredPoint = Dict[str, np.ndarray]

# why a descent stopped
GRAD_TOL = "grad_tol"  # the gradient norm fell below the tolerance
NO_DECREASE = "no_decrease"  # the exact step along the gradient does not lower the residual
MAX_ITER = "max_iter"  # the iteration budget ran out


@dataclass
class ResidualReport:
    pattern: WeightData
    final_residual: float
    iterations: int
    restarts: int
    seed: int
    best_restart: int
    best_point: StructuredPoint
    stop_reasons: Tuple[str, ...] = ()  # one per descent run, in restart order

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern.to_json_dict(),
            "final_residual": self.final_residual,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "seed": self.seed,
            "best_restart": self.best_restart,
        }


class _Problem:
    """Flat entry indices, partner signs and the diagonal target for one table."""

    def __init__(self, wd: WeightData):
        self.wd = wd
        layout = wd.layout()
        n = self.n = layout.size
        weights = np.array(layout.weight_vector(), dtype=complex)
        self.target = np.diag(weights)
        self.h_rows = weights[:, None]  # H X scales the rows of X
        self.h_cols = weights[None, :]  # X H scales its columns
        self.shift = np.array([-2.0, 2.0]).reshape(2, 1, 1)  # -2 X, +2 Y
        # (label, start, stop, shape) of each block inside the flat vector
        self.blocks: List[Tuple[str, int, int, Tuple[int, int]]] = []
        ix: List[int] = []
        iy: List[int] = []
        sign: List[int] = []
        for label, key in derive_constraints(wd).blocks().items():
            shape, x_cells, y_cells, partner = block_cells(key, layout)
            start = len(ix)
            ix += x_cells
            iy += y_cells
            sign += [partner] * len(x_cells)
            self.blocks.append((label, start, len(ix), shape))
        self.size = len(ix)
        self.ix = np.array(ix, dtype=np.intp)
        self.iy = np.array(iy, dtype=np.intp) + n * n  # Y follows X in the stacked pair
        self.sign = np.array(sign, dtype=complex)

    def flatten(self, point: StructuredPoint) -> np.ndarray:
        v = np.empty(self.size, dtype=complex)
        for label, start, stop, _ in self.blocks:
            v[start:stop] = np.ravel(point[label])
        return v

    def unflatten(self, v: np.ndarray) -> StructuredPoint:
        return {label: v[start:stop].reshape(shape) for label, start, stop, shape in self.blocks}

    def assemble(self, v: np.ndarray) -> np.ndarray:
        """X and its partner Y, stacked in one (2, n, n) array."""
        xy = np.zeros(2 * self.n * self.n, dtype=complex)
        xy[self.ix] = v
        xy[self.iy] = self.sign * v.conj()
        return xy.reshape(2, self.n, self.n)

    def block_sum(self, values: np.ndarray) -> float:
        """Sum of the entries, block by block in label order."""
        return sum(float(values[start:stop].sum()) for _, start, stop, _ in self.blocks)


def _check_point(problem: _Problem, point: StructuredPoint):
    for label, _, _, shape in problem.blocks:
        if label not in point:
            raise ValueError(f"missing block {label}")
        if point[label].shape != shape:
            raise ValueError(
                f"block {label} has shape {point[label].shape}, expected {shape}"
            )
    unknown = set(point) - {label for label, _, _, _ in problem.blocks}
    if unknown:
        raise ValueError(f"block {min(unknown)} is not an unknown of {problem.wd.describe()}")


def residual(wd: WeightData, point: StructuredPoint) -> float:
    """Squared Frobenius deviation of the assembled triple from the relations."""
    problem = _Problem(wd)
    _check_point(problem, point)
    return _evaluate(problem, problem.flatten(point))[0]


def _evaluate(problem: _Problem, v: np.ndarray):
    """The residual at v, with the assembled X, Y, R = XY - YX - H and W (_weight_term)."""
    xy = problem.assemble(v)
    products = xy @ xy[::-1]  # XY and YX
    r = products[0] - products[1] - problem.target
    w = _weight_term(problem, xy)
    weight_sq = np.abs(w) ** 2
    value = float((np.abs(r) ** 2).sum() + weight_sq[0].sum() + weight_sq[1].sum())
    return value, xy, r, w


def _weight_term(problem: _Problem, xy: np.ndarray) -> np.ndarray:
    """H X - X H - 2 X and H Y - Y H + 2 Y, stacked like xy.

    These are the bits of the dense products: every entry of a dense H X is
    one product plus exact zeros, and adding -2 X rounds as subtracting 2 X
    does.  The term is linear in xy.
    """
    return problem.h_rows * xy - xy * problem.h_cols + problem.shift * xy


def gradient(wd: WeightData, point: StructuredPoint) -> StructuredPoint:
    problem = _Problem(wd)
    _check_point(problem, point)
    _, xy, r, _ = _evaluate(problem, problem.flatten(point))
    return problem.unflatten(_gradient(problem, xy, r))


def _gradient(problem: _Problem, xy: np.ndarray, r: np.ndarray) -> np.ndarray:
    x, y = xy
    yh = y.conj().T
    rh = r.conj().T
    c1 = (r @ yh - yh @ r).ravel()
    c2 = (x @ rh - rh @ x).ravel()
    return 2.0 * (c1[problem.ix] - problem.sign * c2[problem.ix])


def _grad_norm(problem: _Problem, grad: np.ndarray) -> float:
    return math.sqrt(problem.block_sum(np.abs(grad) ** 2))


def _random_point(problem: _Problem, rng: np.random.Generator) -> np.ndarray:
    v = np.empty(problem.size, dtype=complex)
    for _, start, stop, _ in problem.blocks:
        v[start:stop] = rng.standard_normal(stop - start) + 1j * rng.standard_normal(stop - start)
    return v


def _line_coefficients(
    problem: _Problem, xy: np.ndarray, r: np.ndarray, w0: np.ndarray, g: np.ndarray
) -> Tuple[float, float, float, float]:
    """(c1, c2, c3, c4) with value(v - a grad) = value + c1 a + c2 a^2 + c3 a^3 + c4 a^4.

    xy, r and w0 are the point's, as _evaluate returns them, and g is the
    assembled direction, stacked like xy.  The relation residual
    along it is R(a) = r - a r1 + a^2 r2 with r1 = Gx Y + X Gy - Gy X - Y Gx
    and r2 = Gx Gy - Gy Gx; the weight term is W0 - a W1.
    """
    g_xy = g @ xy[::-1]  # Gx Y and Gy X
    xy_g = xy @ g[::-1]  # X Gy and Y Gx
    g_g = g @ g[::-1]  # Gx Gy and Gy Gx
    r1 = g_xy[0] - g_xy[1] + xy_g[0] - xy_g[1]
    r2 = g_g[0] - g_g[1]
    w1 = _weight_term(problem, g)

    def dot(a, b):  # Re <a, b>; np.vdot's BLAS call costs peak memory
        return float((a.conj() * b).real.sum())

    c1 = -2.0 * (dot(r, r1) + dot(w0, w1))
    c2 = dot(r1, r1) + 2.0 * dot(r, r2) + dot(w1, w1)
    c3 = -2.0 * dot(r1, r2)
    c4 = dot(r2, r2)
    return c1, c2, c3, c4


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _quadratic_roots(a: float, b: float, c: float) -> List[float]:
    """Real roots of a x^2 + b x + c (a line when a is 0)."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def _cubic_roots(a: float, b: float, c: float, d: float) -> List[float]:
    """Real roots of a x^3 + b x^2 + c x + d in closed form, each polished by
    at most one Newton step.

    A leading coefficient of 0 leaves a quadratic (or a line).  Otherwise
    the depressed cubic t^3 + p t + q, x = t - b / 3a, has three real roots
    (trigonometric form) when its discriminant is negative and one
    (Cardano's form) when it is not.  Rounding in the shift splits a double
    root into a complex pair, so a pair whose imaginary part is below about
    1e-5 of its distance from the real root counts as a double root.
    """
    if a == 0.0:
        return _quadratic_roots(b, c, d)
    b, c, d = b / a, c / a, d / a
    shift = b / 3.0
    p = c - b * shift
    q = d - shift * (c - 2.0 * shift * shift)
    half_q, third_p = q / 2.0, p / 3.0
    disc = half_q * half_q + third_p * third_p * third_p
    if disc < 0.0:  # then p < 0
        m = 2.0 * math.sqrt(-third_p)
        theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
        ts = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    else:
        u = _cbrt(-half_q - math.copysign(math.sqrt(disc), q))
        w = -third_p / u if u != 0.0 else 0.0
        ts = [u + w]
        if abs(u - w) <= 1e-5 * (abs(u) + abs(w)):
            ts.append(-(u + w) / 2.0)
    # Next to a double root the slope is nearly zero and a Newton step can
    # jump to another root, so only a small correction that lowers |f| is taken.
    limit = 1e-6 * (max(abs(t) for t in ts) + abs(shift))
    roots = []
    for t in ts:
        x = t - shift
        fx, dfx = ((x + b) * x + c) * x + d, (3.0 * x + 2.0 * b) * x + c
        if dfx != 0.0:
            y = x - fx / dfx
            if abs(y - x) <= limit and abs(((y + b) * y + c) * y + d) < abs(fx):
                x = y
        roots.append(x)
    return roots


def _exact_step(c1: float, c2: float, c3: float, c4: float) -> Optional[float]:
    """The positive critical point of c1 a + c2 a^2 + c3 a^3 + c4 a^4 with the
    lowest value, or None when there is none."""
    best, best_value = None, math.inf
    for a in _cubic_roots(4.0 * c4, 3.0 * c3, 2.0 * c2, c1):
        value = a * (c1 + a * (c2 + a * (c3 + a * c4)))
        if a > 0.0 and value < best_value:
            best, best_value = a, value
    return best


def _descend(
    problem: _Problem,
    v: np.ndarray,
    max_iter: int,
    grad_tol: float,
) -> Tuple[np.ndarray, float, int, str]:
    """Steepest descent with exact line search from the flat point v.

    Each iteration minimises the quartic objective along the negative
    gradient (``_line_coefficients``, ``_exact_step``) and evaluates the
    trial point afresh, so the stored residual is the point's own.  The
    trial is accepted only if it strictly lowers the residual.

    Returns the last point, its residual, the number of accepted steps and
    why the descent stopped.
    """
    value, xy, r, w = _evaluate(problem, v)
    iters = 0
    while iters < max_iter:
        grad = _gradient(problem, xy, r)
        if _grad_norm(problem, grad) < grad_tol:
            return v, value, iters, GRAD_TOL
        alpha = _exact_step(*_line_coefficients(problem, xy, r, w, problem.assemble(grad)))
        if alpha is None:
            return v, value, iters, NO_DECREASE
        trial = v - alpha * grad
        trial_value, trial_xy, trial_r, trial_w = _evaluate(problem, trial)
        if not trial_value < value:
            return v, value, iters, NO_DECREASE
        v, value, xy, r, w = trial, trial_value, trial_xy, trial_r, trial_w
        iters += 1
    return v, value, iters, MAX_ITER


def minimize(
    wd: WeightData,
    restarts: int,
    seed: int,
    max_iter: int = 100_000,
    grad_tol: float = 1e-10,
    target: Optional[float] = None,
) -> ResidualReport:
    """Best structured point over seeded multistart gradient descent.

    Each restart draws its starting point from an independent stream keyed
    by (seed, restart index), so the result does not depend on scheduling.
    The optional target stops the restart loop early once beaten; the
    report is deterministic for fixed (seed, restarts, target).  A table
    without unknowns runs no descent and reports no stop reasons.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    problem = _Problem(wd)
    if not problem.blocks:
        return ResidualReport(
            pattern=wd,
            final_residual=_evaluate(problem, problem.flatten({}))[0],
            iterations=0,
            restarts=restarts,
            seed=seed,
            best_restart=0,
            best_point={},
        )
    best = None
    best_value = math.inf
    best_iters = 0
    best_restart = 0
    reasons: List[str] = []
    for k in range(restarts):
        rng = np.random.default_rng([seed, k])
        v, value, iters, reason = _descend(problem, _random_point(problem, rng), max_iter, grad_tol)
        reasons.append(reason)
        if value < best_value:
            best, best_value, best_iters, best_restart = v, value, iters, k
        if target is not None and best_value < target:
            break
    return ResidualReport(
        pattern=wd,
        final_residual=_evaluate(problem, best)[0],
        iterations=best_iters,
        restarts=len(reasons),
        seed=seed,
        best_restart=best_restart,
        best_point=problem.unflatten(best),
        stop_reasons=tuple(reasons),
    )


def gradient_check(wd: WeightData, seed: int, points: int = 10, step: float = 1e-6) -> float:
    """Worst relative disagreement between the analytic gradient and
    central finite differences over random structured points."""
    problem = _Problem(wd)
    if not problem.blocks:
        return 0.0
    worst = 0.0
    for k in range(points):
        rng = np.random.default_rng([seed, 7919, k])
        v = _random_point(problem, rng)
        _, xy, r, _ = _evaluate(problem, v)
        analytic = _gradient(problem, xy, r)
        fd = np.zeros_like(v)
        moved = v.copy()
        for i in range(problem.size):
            for direction in (1.0, 1.0j):
                moved[i] = v[i] + step * direction
                plus = _evaluate(problem, moved)[0]
                moved[i] = v[i] - step * direction
                minus = _evaluate(problem, moved)[0]
                diff = (plus - minus) / (2 * step)
                fd[i] += diff * direction
            moved[i] = v[i]
        num_sq = problem.block_sum(np.abs(analytic - fd) ** 2)
        den_sq = problem.block_sum(np.abs(fd) ** 2)
        worst = max(worst, math.sqrt(num_sq) / max(math.sqrt(den_sq), 1e-12))
    return worst
