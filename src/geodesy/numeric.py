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
gradient.  ``minimize`` reports its best point as a ``StructuredPoint``,
one array per block label.

The kernel works on a leading lane axis, one lane per restart.  On these
tables (n <= 6, a few unknowns) a descent step is about a hundred numpy
calls on tiny arrays, so the cost of a call, not its arithmetic, sets the
pace, and ``minimize`` hands all the restarts of a table to one
``_descend``, which steps the live lanes together and drops a lane when it
stops.  Each lane computes exactly the floats it would compute alone: the
same elementwise operations, one matrix product per slice, sums over its
own entries in the same order (``_lane_sum``, ``_Problem.block_sum``), and
the step and the cubic roots solved for it alone in Python.  A batch holds
at most ``LANES`` restarts, fewer for a large table (``LANE_ENTRIES``).
With a target, a restart runs only if the earlier ones missed it, so the
restarts run one lane at a time.  ``gradient_check`` evaluates the 4 *
size moved copies of a point as the lanes of one call.  On the
benchmark's ``oracle`` tables (17 of 20 run three restarts to the end) a
pass of criterion 6's ``minimize`` calls takes about 26-28 ms in process
once warm, and 29-31 ms when each table's call is the first in its
process (``scripts/time_oracle.py --repeat 5``, 2 cores, Python 3.11.7).

Starting points are seeded normals placed by ``_Problem.draws``.  Restart
k of ``minimize`` draws them from ``normals.standard_normal([seed, k],
...)``, which computes in the standard library, bit for bit, the floats
of numpy 2.4.6's ``np.random.default_rng([seed, k]).standard_normal``:
SeedSequence, PCG64 and numpy's ziggurat, with the ziggurat tables read
from numpy's compiled module and carried under numpy's BSD-3 licence
(see ``normals``).  Point k of ``gradient_check`` draws them from
Python's ``random.Random``, seeded by the text "seed 7919 k", which is
hashed by SHA-512 and so does not depend on ``PYTHONHASHSEED``.  So no
oracle run imports ``numpy.random``, a package that costs a fresh
process 6 to 15 ms, and the starts do not move with numpy's Generator
stream, which numpy does not promise to keep across versions.

The line search is exact.  Assembly is real-linear, so along the descent
direction X and Y move linearly in the step size a, the relation residual
is quadratic in a and the objective is a quartic in a.  Its five
coefficients come from three more stacked products, and the step is the
positive critical point, a root of the cubic derivative solved in closed
form, with the lowest quartic value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .ladder import block_cells, derive_constraints
from .normals import standard_normal
from .weights import WeightData

StructuredPoint = Dict[str, np.ndarray]

# The most restarts one _descend call steps together, and the most entries
# their stacked X and Y may hold together: beyond either, a larger batch is
# no faster, only larger.
LANES = 32
LANE_ENTRIES = 8192

# why a descent stopped
GRAD_TOL = "grad_tol"  # the gradient norm fell below the tolerance
NO_DECREASE = "no_decrease"  # the exact step along the gradient does not lower the residual
MAX_ITER = "max_iter"  # the iteration budget ran out


@dataclass
class ResidualReport:
    pattern: WeightData
    final_residual: float
    iterations: int
    # the restarts run; on a table without unknowns no descent runs, and it
    # holds the restarts asked for (stop_reasons is empty)
    restarts: int
    seed: int
    best_restart: int
    best_point: StructuredPoint
    # one entry per descent run, in restart order
    stop_reasons: Tuple[str, ...] = ()
    restart_steps: Tuple[int, ...] = ()  # accepted steps
    restart_residuals: Tuple[float, ...] = ()  # final residuals


class _Problem:
    """Flat entry indices, partner signs and the diagonal target for one table."""

    def __init__(self, wd: WeightData):
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
        spans = [(start, stop) for _, start, stop, _ in self.blocks]
        # One draw of 2 * size normals holds each block's real parts, then its
        # imaginary parts, as a draw per part would: entry j of the block
        # [start, stop) reads the draw at start + j and at stop + j.
        self.draws = np.array(
            [[start + j for start, stop in spans for j in range(start, stop)],
             [stop + j for start, stop in spans for j in range(start, stop)]],
            dtype=np.intp,
        )
        # block_sum's layout: block i behind a zero of its own, at start + i
        self.sum_starts = np.array([start + i for i, (start, _) in enumerate(spans)], dtype=np.intp)
        self.sum_cells = np.array(
            [j + i + 1 for i, (start, stop) in enumerate(spans) for j in range(start, stop)], dtype=np.intp
        )

    def flatten(self, point: StructuredPoint) -> np.ndarray:
        v = np.empty(self.size, dtype=complex)
        for label, start, stop, _ in self.blocks:
            v[start:stop] = np.ravel(point[label])
        return v

    def unflatten(self, v: np.ndarray) -> StructuredPoint:
        return {label: v[start:stop].reshape(shape) for label, start, stop, shape in self.blocks}

    def assemble(self, v: np.ndarray) -> np.ndarray:
        """X and its partner Y of each lane (row) of v, in one (lanes, 2, n, n) array."""
        n = self.n
        xy = np.zeros((len(v), 2 * n * n), dtype=complex)
        xy[:, self.ix] = v
        xy[:, self.iy] = self.sign * v.conj()
        return xy.reshape(len(v), 2, n, n)

    def block_sum(self, values: np.ndarray) -> np.ndarray:
        """Per lane, the sum of its entries block by block in label order.

        ``add.reduceat`` starts a segment from its first entry, while
        ``ndarray.sum`` starts from zero, so each block is put behind a
        zero: then every block sum rounds as its slice's ``sum()`` does,
        and the cumulative sum adds the blocks left to right.
        """
        if not self.blocks:
            return np.zeros(len(values))
        padded = np.zeros((len(values), self.size + len(self.blocks)))
        padded[:, self.sum_cells] = values
        return np.cumsum(np.add.reduceat(padded, self.sum_starts, axis=1), axis=1)[:, -1]


def _lane_sum(a: np.ndarray) -> np.ndarray:
    """The sum of each lane's entries, rounded as one lane's ``sum()``."""
    return np.add.reduce(a.reshape(len(a), -1), axis=1)


def _evaluate(problem: _Problem, v: np.ndarray):
    """Per lane, the residual at v, with the assembled X, Y, R = XY - YX - H and W (_weight_term)."""
    xy = problem.assemble(v)
    products = xy @ xy[:, ::-1]  # XY and YX
    r = products[:, 0] - products[:, 1] - problem.target
    w = _weight_term(problem, xy)
    weight_sq = np.abs(w) ** 2
    value = _lane_sum(np.abs(r) ** 2) + _lane_sum(weight_sq[:, 0]) + _lane_sum(weight_sq[:, 1])
    return value, xy, r, w


def _weight_term(problem: _Problem, xy: np.ndarray) -> np.ndarray:
    """H X - X H - 2 X and H Y - Y H + 2 Y, stacked like xy.

    These are the bits of the dense products: every entry of a dense H X is
    one product plus exact zeros, and adding -2 X rounds as subtracting 2 X
    does.  The term is linear in xy.
    """
    return problem.h_rows * xy - xy * problem.h_cols + problem.shift * xy


def _gradient(problem: _Problem, xy: np.ndarray, r: np.ndarray) -> np.ndarray:
    x, y = xy[:, 0], xy[:, 1]
    yh = y.conj().transpose(0, 2, 1)
    rh = r.conj().transpose(0, 2, 1)
    c1 = (r @ yh - yh @ r).reshape(len(xy), -1)
    c2 = (x @ rh - rh @ x).reshape(len(xy), -1)
    return 2.0 * (c1[:, problem.ix] - problem.sign * c2[:, problem.ix])


def _grad_norm(problem: _Problem, grad: np.ndarray) -> np.ndarray:
    return np.sqrt(problem.block_sum(np.abs(grad) ** 2))


def _place(problem: _Problem, normals) -> np.ndarray:
    """The point whose parts are read from 2 * size normals by ``draws``."""
    re, im = np.asarray(normals)[problem.draws]
    return re + 1j * im


def _random_point(problem: _Problem, seed: int, k: int) -> np.ndarray:
    """Restart k's starting point: the normals of ``default_rng([seed, k])``."""
    return _place(problem, standard_normal([seed, k], 2 * problem.size))


def _line_coefficients(
    problem: _Problem, xy: np.ndarray, r: np.ndarray, w0: np.ndarray, g: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per lane, (c1, c2, c3, c4) with value(v - a grad) = value + c1 a + c2 a^2 + c3 a^3 + c4 a^4.

    xy, r and w0 are the point's, as _evaluate returns them, and g is the
    assembled direction, stacked like xy.  The relation residual
    along it is R(a) = r - a r1 + a^2 r2 with r1 = Gx Y + X Gy - Gy X - Y Gx
    and r2 = Gx Gy - Gy Gx; the weight term is W0 - a W1.
    """
    g_xy = g @ xy[:, ::-1]  # Gx Y and Gy X
    xy_g = xy @ g[:, ::-1]  # X Gy and Y Gx
    g_g = g @ g[:, ::-1]  # Gx Gy and Gy Gx
    r1 = g_xy[:, 0] - g_xy[:, 1] + xy_g[:, 0] - xy_g[:, 1]
    r2 = g_g[:, 0] - g_g[:, 1]
    w1 = _weight_term(problem, g)

    def dot(a, b):  # Re <a, b>; np.vdot's BLAS call costs peak memory
        return _lane_sum((a.conj() * b).real)

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


class _Descent(NamedTuple):
    points: np.ndarray  # each lane's last point, one row per lane
    values: List[float]  # their residuals
    accepted: int  # the accepted steps of all lanes together, read by bench/tracing.py
    steps: List[int]  # each lane's accepted steps
    reasons: List[str]  # why each lane stopped


def _descend(problem: _Problem, v: np.ndarray, max_iter: int, grad_tol: float) -> _Descent:
    """Steepest descent with exact line search from each row (lane) of v.

    Each iteration minimises the quartic objective along the negative
    gradient (``_line_coefficients``, ``_exact_step``) and evaluates the
    trial point afresh, so the stored residual is the point's own.  The
    trial is accepted only if it strictly lowers the residual.  All live
    lanes step together, each computing the floats a descent from its row
    alone computes, and a lane leaves the batch when it stops.
    """
    lanes = len(v)
    points = np.empty_like(v)
    values = np.empty(lanes)
    steps = [0] * lanes
    reasons = [MAX_ITER] * lanes
    live = np.arange(lanes)
    value, xy, r, w = _evaluate(problem, v)
    iters = 0
    while live.size and iters < max_iter:
        grad = _gradient(problem, xy, r)
        # Every live lane goes through the whole iteration: one that stops
        # here skips only _exact_step, and its trial point is its own.
        small = (_grad_norm(problem, grad) < grad_tol).tolist()
        lines = zip(*(c.tolist() for c in _line_coefficients(problem, xy, r, w, problem.assemble(grad))))
        alphas = [None if stop else _exact_step(*line) for stop, line in zip(small, lines)]
        trial = v - np.array([0.0 if a is None else a for a in alphas], dtype=complex)[:, None] * grad
        trial_value, trial_xy, trial_r, trial_w = _evaluate(problem, trial)
        lower = (trial_value < value).tolist()
        # why each lane stops at this point, or None where it takes the step
        stops = [
            GRAD_TOL if stop else NO_DECREASE if a is None or not down else None
            for stop, a, down in zip(small, alphas, lower)
        ]
        if any(stops):
            keep = np.array([stop is None for stop in stops])
            for i in np.flatnonzero(~keep).tolist():
                lane = live[i]
                points[lane], values[lane], steps[lane], reasons[lane] = v[i], value[i], iters, stops[i]
            live, trial, trial_value, trial_xy, trial_r, trial_w = (
                a[keep] for a in (live, trial, trial_value, trial_xy, trial_r, trial_w)
            )
        v, value, xy, r, w = trial, trial_value, trial_xy, trial_r, trial_w
        iters += 1
    points[live], values[live] = v, value
    for lane in live.tolist():
        steps[lane] = iters
    return _Descent(points, values.tolist(), sum(steps), steps, reasons)


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
    by (seed, restart index), so the result does not depend on scheduling:
    the restarts run as the lanes of ``_descend`` calls of at most
    ``LANES`` each, fewer when their X and Y would hold more than
    ``LANE_ENTRIES`` entries.  The optional target stops the restart loop
    early once beaten, so with a target a restart runs only after the
    earlier ones missed it, one lane per call.  The report is
    deterministic for fixed (seed, restarts, target).  A table without
    unknowns runs no descent and reports no stop reasons.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    problem = _Problem(wd)
    if not problem.blocks:
        return ResidualReport(
            pattern=wd,
            final_residual=float(_evaluate(problem, problem.flatten({})[None])[0][0]),
            iterations=0,
            restarts=restarts,
            seed=seed,
            best_restart=0,
            best_point={},
        )
    batch = 1 if target is not None else min(LANES, max(1, LANE_ENTRIES // (2 * problem.n**2)))
    best = None
    best_value = math.inf
    best_iters = 0
    best_restart = 0
    steps: List[int] = []
    values: List[float] = []
    reasons: List[str] = []
    for first in range(0, restarts, batch):
        ks = range(first, min(first + batch, restarts))
        starts = np.array([_random_point(problem, seed, k) for k in ks])
        run = _descend(problem, starts, max_iter, grad_tol)
        for k, v, value, iters in zip(ks, run.points, run.values, run.steps):
            if value < best_value:
                best, best_value, best_iters, best_restart = v, value, iters, k
        steps += run.steps
        values += run.values
        reasons += run.reasons
        if target is not None and best_value < target:
            break
    return ResidualReport(
        pattern=wd,
        final_residual=best_value,
        iterations=best_iters,
        restarts=len(reasons),
        seed=seed,
        best_restart=best_restart,
        best_point=problem.unflatten(best),
        stop_reasons=tuple(reasons),
        restart_steps=tuple(steps),
        restart_residuals=tuple(values),
    )


def gradient_check(wd: WeightData, seed: int, points: int = 10, step: float = 1e-6) -> float:
    """Worst relative disagreement between the analytic gradient and
    central finite differences over random structured points.

    Point k is drawn from ``random.Random("seed 7919 k")`` (module
    docstring).  The 4 * size points that move one entry by +-step and by
    +-i step are the lanes of one evaluation, four lanes per entry."""
    problem = _Problem(wd)
    if not problem.blocks:
        return 0.0
    size = problem.size
    lanes, entries = np.arange(4 * size), np.repeat(np.arange(size), 4)
    shifts = [step * direction for direction in (1.0, -1.0, 1.0j, -1.0j)]
    worst = 0.0
    for k in range(points):
        gauss = random.Random(f"{seed} 7919 {k}").gauss
        v = _place(problem, [gauss(0.0, 1.0) for _ in range(2 * size)])
        _, xy, r, _ = _evaluate(problem, v[None])
        analytic = _gradient(problem, xy, r)
        moved = np.repeat(v[None], 4 * size, axis=0)
        moved[lanes, entries] = [v[i] + shift for i in range(size) for shift in shifts]
        values = _evaluate(problem, moved)[0].tolist()
        fd = np.zeros_like(analytic)
        for i in range(size):
            four = values[4 * i : 4 * i + 4]
            for direction, plus, minus in ((1.0, *four[:2]), (1.0j, *four[2:])):
                fd[0, i] += (plus - minus) / (2 * step) * direction
        num_sq = float(problem.block_sum(np.abs(analytic - fd) ** 2)[0])
        den_sq = float(problem.block_sum(np.abs(fd) ** 2)[0])
        worst = max(worst, math.sqrt(num_sq) / max(math.sqrt(den_sq), 1e-12))
    return worst
