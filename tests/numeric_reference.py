"""Reference residual oracle, kept only for the tests.

This is the dict-based descent the package used before its points became
one flat complex vector: every block is its own array, assembly slices
each block into X and Y, H X - X H is a dense product with the diagonal
target, and the gradient reassembles the point and recomputes the
relation residual.  It shares no numeric code with ``geodesy.numeric``, so
the tests can demand that the flat kernel reproduce it bit for bit:
residuals, gradients and whole descents.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Tuple

import numpy as np

from geodesy.ladder import CROSS, MINUS_RAISE, PLUS_RAISE
from geodesy.weights import WeightData
from ladder_reference import derive_constraints

StructuredPoint = Dict[str, np.ndarray]


class Problem:
    """Cached block slices and the fixed diagonal target for one table."""

    def __init__(self, wd: WeightData):
        self.wd = wd
        layout = wd.layout()
        self.n = layout.size
        self.target = np.diag(np.array(layout.weight_vector(), dtype=complex))
        system = derive_constraints(wd)
        self.slots: Dict[str, Tuple[slice, slice, int]] = {}
        for label in sorted(system.unknowns):
            u = system.unknowns[label]
            tgt_side = "minus" if u.kind == MINUS_RAISE else "plus"
            src_side = "plus" if u.kind == PLUS_RAISE else "minus"
            r0, r1 = layout.span(tgt_side, u.target_weight)
            c0, c1 = layout.span(src_side, u.source_weight)
            partner_sign = +1 if u.kind == CROSS else -1
            self.slots[label] = (slice(r0, r1), slice(c0, c1), partner_sign)

    def shapes(self) -> Dict[str, Tuple[int, int]]:
        return {
            label: (rows.stop - rows.start, cols.stop - cols.start)
            for label, (rows, cols, _) in self.slots.items()
        }

    def assemble(self, point: StructuredPoint):
        x = np.zeros((self.n, self.n), dtype=complex)
        y = np.zeros((self.n, self.n), dtype=complex)
        for label, (rows, cols, sign) in self.slots.items():
            block = point[label]
            x[rows, cols] = block
            y[cols, rows] = sign * block.conj().T
        return x, y


def residual(problem: Problem, point: StructuredPoint) -> float:
    x, y = problem.assemble(point)
    h = problem.target
    r1 = x @ y - y @ x - h
    r2 = h @ x - x @ h - 2.0 * x
    r3 = h @ y - y @ h + 2.0 * y
    return float(
        np.sum(np.abs(r1) ** 2) + np.sum(np.abs(r2) ** 2) + np.sum(np.abs(r3) ** 2)
    )


def gradient(problem: Problem, point: StructuredPoint) -> StructuredPoint:
    x, y = problem.assemble(point)
    r = x @ y - y @ x - problem.target
    yh = y.conj().T
    rh = r.conj().T
    c1 = r @ yh - yh @ r
    c2 = x @ rh - rh @ x
    out: StructuredPoint = {}
    for label, (rows, cols, sign) in problem.slots.items():
        out[label] = 2.0 * (c1[rows, cols] - sign * c2[rows, cols])
    return out


def grad_norm(grad: StructuredPoint) -> float:
    return math.sqrt(sum(float(np.sum(np.abs(g) ** 2)) for g in grad.values()))


def random_point(problem: Problem, rng: np.random.Generator) -> StructuredPoint:
    return {
        label: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for label, shape in problem.shapes().items()
    }


def descend(
    problem: Problem,
    point: StructuredPoint,
    max_iter: int,
    grad_tol: float,
) -> Tuple[StructuredPoint, float, int]:
    value = residual(problem, point)
    alpha = 1.0
    iters = 0
    checkpoint = math.inf
    while iters < max_iter:
        if iters % 1000 == 0:
            if value > 0.9 * checkpoint:
                break
            checkpoint = value
        grad = gradient(problem, point)
        gnorm = grad_norm(grad)
        if gnorm < grad_tol:
            break
        while True:
            trial = {label: point[label] - alpha * grad[label] for label in point}
            trial_value = residual(problem, trial)
            if trial_value < value:
                break
            alpha *= 0.5
            if alpha < 1e-30:
                return point, value, iters
        point, value = trial, trial_value
        alpha = min(alpha * 2.0, 1.0)
        iters += 1
    return point, value, iters


def gauss_point(problem: Problem, rng: random.Random) -> StructuredPoint:
    """random_point's layout drawn from Python's generator: per block in
    label order, its real parts and then its imaginary parts, row-major."""
    point: StructuredPoint = {}
    for label, shape in problem.shapes().items():
        re, im = (np.array([rng.gauss(0.0, 1.0) for _ in range(shape[0] * shape[1])]).reshape(shape) for _ in "ri")
        point[label] = re + 1j * im
    return point


def gradient_check(wd: WeightData, seed: int, points: int = 10, step: float = 1e-6) -> float:
    problem = Problem(wd)
    if not problem.slots:
        return 0.0
    worst = 0.0
    for k in range(points):
        point = gauss_point(problem, random.Random(f"{seed} 7919 {k}"))
        analytic = gradient(problem, point)
        num_sq = 0.0
        den_sq = 0.0
        for label in sorted(point):
            block = point[label]
            fd = np.zeros_like(block)
            for idx in np.ndindex(block.shape):
                for direction in (1.0, 1.0j):
                    plus = {l: v.copy() for l, v in point.items()}
                    minus = {l: v.copy() for l, v in point.items()}
                    plus[label][idx] += step * direction
                    minus[label][idx] -= step * direction
                    diff = (residual(problem, plus) - residual(problem, minus)) / (2 * step)
                    fd[idx] += diff * direction
            num_sq += float(np.sum(np.abs(analytic[label] - fd) ** 2))
            den_sq += float(np.sum(np.abs(fd) ** 2))
        worst = max(worst, math.sqrt(num_sq) / max(math.sqrt(den_sq), 1e-12))
    return worst
