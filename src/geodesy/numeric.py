"""Floating-point corroboration of verdicts by direct residual minimization.

For a weight table the structured unknowns are the same raising and
crossing blocks the exact engine works with, but over complex floats.  The
objective is the squared Frobenius deviation of the assembled triple from
the sl(2) relations; seeded multistart gradient descent either drives it to
numerical zero (corroborating a feasible verdict) or stalls on a strictly
positive floor (evidence, not proof, for an infeasible one).

Inside the descent a point is one flat complex vector: the blocks in label
order, each block row-major.  ``_Problem`` precomputes where every entry
lands, a flat index into X, a flat index into its partner Y and the partner
sign, so assembling the triple is two index scatters and the gradient is
one gather.  The weight operator H is diagonal, so H X - X H is a row and a
column scaling.  Each accepted step hands its assembled X, Y and relation
residual XY - YX - H on to the next gradient.  The public functions take
and return a ``StructuredPoint``, one array per block label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .ladder import block_slot, derive_constraints
from .weights import WeightData

StructuredPoint = Dict[str, np.ndarray]

# why a descent stopped
GRAD_TOL = "grad_tol"  # the gradient norm fell below the tolerance
STALL = "stall"  # less than 10 percent progress over 1000 iterations
ALPHA_UNDERFLOW = "alpha_underflow"  # no step size above 1e-30 decreases the residual
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
            (r0, r1), (c0, c1), partner = block_slot(key, layout)
            start = len(ix)
            for i in range(r0, r1):
                for j in range(c0, c1):
                    ix.append(i * n + j)
                    iy.append(n * n + j * n + i)
            sign.extend([partner] * (len(ix) - start))
            self.blocks.append((label, start, len(ix), (r1 - r0, c1 - c0)))
        self.size = len(ix)
        self.ix = np.array(ix, dtype=np.intp)
        self.iy = np.array(iy, dtype=np.intp)
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
    """The residual at v, with the assembled X, Y and R = XY - YX - H."""
    xy = problem.assemble(v)
    products = xy @ xy[::-1]  # XY and YX
    r = products[0] - products[1] - problem.target
    # H X - X H - 2 X and H Y - Y H + 2 Y.  These are the bits of the dense
    # products: every entry of a dense H X is one product plus exact zeros,
    # and adding -2 X rounds as subtracting 2 X does.
    weight_sq = np.abs(problem.h_rows * xy - xy * problem.h_cols + problem.shift * xy) ** 2
    value = float((np.abs(r) ** 2).sum() + weight_sq[0].sum() + weight_sq[1].sum())
    return value, xy, r


def gradient(wd: WeightData, point: StructuredPoint) -> StructuredPoint:
    problem = _Problem(wd)
    _check_point(problem, point)
    _, xy, r = _evaluate(problem, problem.flatten(point))
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


def _descend(
    problem: _Problem,
    v: np.ndarray,
    max_iter: int,
    grad_tol: float,
) -> Tuple[np.ndarray, float, int, str]:
    """Backtracking gradient descent from the flat point v.

    Returns the last point, its residual, the number of accepted steps and
    why the descent stopped.
    """
    value, xy, r = _evaluate(problem, v)
    alpha = 1.0
    iters = 0
    checkpoint = math.inf
    while iters < max_iter:
        if iters % 1000 == 0:
            # sublinear crawls (value ~ 1/iters) would eat the whole budget;
            # a fresh restart is the cure, so give up on starts that cannot
            # improve by 10 percent per thousand iterations
            if value > 0.9 * checkpoint:
                return v, value, iters, STALL
            checkpoint = value
        grad = _gradient(problem, xy, r)
        gnorm = _grad_norm(problem, grad)
        if gnorm < grad_tol:
            return v, value, iters, GRAD_TOL
        while True:
            trial = v - alpha * grad
            trial_value, trial_xy, trial_r = _evaluate(problem, trial)
            if trial_value < value:
                break
            alpha *= 0.5
            if alpha < 1e-30:
                return v, value, iters, ALPHA_UNDERFLOW
        v, value, xy, r = trial, trial_value, trial_xy, trial_r
        alpha = min(alpha * 2.0, 1.0)
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
        _, xy, r = _evaluate(problem, v)
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
