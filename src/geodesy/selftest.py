"""The runnable invariant suite behind the selftest subcommand.

Each check is a named callable that raises AssertionError on failure, with
no assert statement, so python -O keeps it; the runner reports the first
failure by name.  All randomness is seeded, so repeated runs are identical.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import sampling
from .algebra import SuPQShape, cartan_decompose, cartan_involution, complex_structure
from .candidates import embedding_with_rank, lift_classification
from .checker import check_conditions, equivariance_test, violated_brackets
from .gaussmat import GaussMatrix, I, bracket, char_poly, eigenprojections, integer_spectrum, poly_eval
from .ladder import _head_status, classify_weight_data, head_keys, replay_certificate, verify_witness
from .numeric import gradient_check
from .weights import WeightData, enumerate_weight_data


def _shapes(count: int):
    return [SuPQShape(1 + (i % 3)) for i in range(count)]


def check_bracket_table() -> None:
    """su(1,1)'s basis u, v, w is the image of the rank-1 standard
    embedding, and ``check``'s own bracket table (``violated_brackets``)
    holds on it.  Over C, x = (u - iv)/2, y = (u + iv)/2 and h = -iw form
    the sl(2) triple: [h,x] = 2x, [h,y] = -2y, [x,y] = h.  ad(w) acts on
    span{u, v} with no real eigenvector: its matrix in the (u, v)
    coordinates, read off the upper-right entry a + bi of a*u + b*v, has a
    characteristic polynomial with no real root."""
    c = embedding_with_rank(1, 1)
    broken = violated_brackets(c)
    if broken: raise AssertionError(f"bracket {', '.join(broken)} violated")
    u, v, w = c.f_u, c.f_v, c.f_w
    half = Fraction(1, 2)
    x, y, h = (u - v * I) * half, (u + v * I) * half, w * (-I)
    if bracket(h, x) != x * 2: raise AssertionError("[h,x] = 2x violated")
    if bracket(h, y) != y * (-2): raise AssertionError("[h,y] = -2y violated")
    if bracket(x, y) != h: raise AssertionError("[x,y] = h violated")
    wu, wv = bracket(w, u)[0, 1], bracket(w, v)[0, 1]
    trace, det = wu.re + wv.im, wu.re * wv.im - wv.re * wu.im
    if not trace * trace < 4 * det: raise AssertionError("ad(w) has a real eigenvector on span{u, v}")


def check_jacobi(samples: int = 100) -> None:
    rng = random.Random(101)
    for shape in _shapes(samples):
        a = sampling.su_pp(rng, shape)
        b = sampling.su_pp(rng, shape)
        c = sampling.su_pp(rng, shape)
        total = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        if not total.is_zero(): raise AssertionError("Jacobi identity failed")


def check_antisymmetry(samples: int = 100) -> None:
    rng = random.Random(102)
    for shape in _shapes(samples):
        a = sampling.su_pp(rng, shape)
        b = sampling.su_pp(rng, shape)
        if bracket(a, b) != -bracket(b, a): raise AssertionError
        if not bracket(a, a).is_zero(): raise AssertionError


def check_involution(samples: int = 100) -> None:
    rng = random.Random(103)
    for shape in _shapes(samples):
        a = sampling.su_pp(rng, shape)
        b = sampling.su_pp(rng, shape)
        if cartan_involution(cartan_involution(a, shape), shape) != a: raise AssertionError
        got = cartan_involution(bracket(a, b), shape)
        want = bracket(cartan_involution(a, shape), cartan_involution(b, shape))
        if got != want: raise AssertionError("involution is not an automorphism")


def check_cartan_inclusions(samples: int = 100) -> None:
    rng = random.Random(104)
    for shape in _shapes(samples):
        k1 = sampling.k_part(rng, shape)
        k2 = sampling.k_part(rng, shape)
        p1 = sampling.p_part(rng, shape)
        p2 = sampling.p_part(rng, shape)
        if not cartan_decompose(bracket(k1, k2), shape).p_part.is_zero(): raise AssertionError("[k,k] left k")
        if not cartan_decompose(bracket(k1, p1), shape).k_part.is_zero(): raise AssertionError("[k,p] left p")
        if not cartan_decompose(bracket(p1, p2), shape).p_part.is_zero(): raise AssertionError("[p,p] left k")


def check_complex_structure(samples: int = 100) -> None:
    rng = random.Random(105)
    shapes = _shapes(samples)
    # one center per rank, so its u(p,p) test is remembered across samples
    centers = {p: GaussMatrix.diagonal([1j] * p + [-1j] * p) for p in {shape.p for shape in shapes}}
    for shape in shapes:
        a = sampling.p_part(rng, shape)
        if complex_structure(complex_structure(a, shape), shape) != -a: raise AssertionError
        center = centers[shape.p]
        got = complex_structure(bracket(center, a), shape)
        want = bracket(center, complex_structure(a, shape))
        if got != want: raise AssertionError("complex structure does not commute with the center")


def check_cayley_hamilton(samples: int = 100) -> None:
    rng = random.Random(106)
    for i in range(samples):
        n = 1 + (i % 6)
        a = sampling.matrix(rng, n)
        if not poly_eval(char_poly(a), a).is_zero(): raise AssertionError("Cayley-Hamilton failed")


def check_eigenprojections(samples: int = 100) -> None:
    rng = random.Random(107)
    for i in range(samples):
        n = 2 + (i % 3)
        a, expected = sampling.integer_diagonalizable(rng, n)
        spectrum = integer_spectrum(a)
        if spectrum != expected: raise AssertionError
        total = GaussMatrix.zeros(n, n)
        projections = eigenprojections(a, spectrum)
        for lam, proj in projections.items():
            if proj @ proj != proj: raise AssertionError("projector is not idempotent")
            total = total + proj
        for lam in projections:
            for mu in projections:
                if lam != mu:
                    if not (projections[lam] @ projections[mu]).is_zero(): raise AssertionError
        if total != GaussMatrix.identity(n): raise AssertionError("projectors do not resolve the identity")


def check_certificate_replay() -> None:
    for wd in enumerate_weight_data(2):
        result = classify_weight_data(wd)
        for system, verdict in (
            (result.odd_system, result.odd),
            (result.even_system, result.even),
        ):
            if verdict.status == "infeasible":
                replay_certificate(system, verdict)
            elif verdict.status == "feasible":
                verify_witness(system, verdict.witness)
            else:
                raise AssertionError(f"unresolved verdict for {wd.describe()}")


def check_witness_lift() -> None:
    for wd in enumerate_weight_data(2):
        result = classify_weight_data(wd)
        if result.status != "feasible":
            continue
        candidate = lift_classification(result)
        report = check_conditions(candidate)
        if not (report.passed and report.totally_geodesic): raise AssertionError("lifted witness failed the checker")
        if not equivariance_test(candidate, report): raise AssertionError


def check_head_keys() -> None:
    """The rank-free head keys, the only keys verify_theorem decides: each
    of the 27 top windows is infeasible at its marker W = 3 and at W = 4,
    so at both parities, and exactly 6 of the 80 small supports are
    feasible."""
    keys = head_keys()
    windows, supports = [key for key in keys if key[0] == 3], [key for key in keys if key[0] < 3]
    if len(windows) != 27: raise AssertionError(f"{len(windows)} top windows")
    for key in windows:
        for top in (3, 4):
            if _head_status((top, *key[1:])) != "infeasible": raise AssertionError(f"window {key} is not infeasible at W = {top}")
    feasible = sum(_head_status(key) == "feasible" for key in supports)
    if (feasible, len(supports)) != (6, 80): raise AssertionError(f"{feasible} of {len(supports)} small supports are feasible")


def check_oracle_gradient() -> None:
    patterns = [
        WeightData({1: 2}, {-1: 2}),
        WeightData({3: 1, 1: 1}, {-1: 1, -3: 1}),
    ]
    for wd in patterns:
        err = gradient_check(wd, seed=11, points=3)
        if not err < 1e-5: raise AssertionError(f"gradient mismatch {err} for {wd.describe()}")


CHECKS: List[Tuple[str, Callable[[], None]]] = [
    ("bracket table", check_bracket_table),
    ("jacobi identity", check_jacobi),
    ("bracket antisymmetry", check_antisymmetry),
    ("cartan involution automorphism", check_involution),
    ("cartan bracket inclusions", check_cartan_inclusions),
    ("complex structure", check_complex_structure),
    ("cayley-hamilton", check_cayley_hamilton),
    ("eigenprojections", check_eigenprojections),
    ("certificate replay", check_certificate_replay),
    ("witness lift", check_witness_lift),
    ("head keys", check_head_keys),
    ("oracle gradient", check_oracle_gradient),
]


def run_selftest(echo: Callable[[str], None] = print) -> Optional[str]:
    """Run every check; report and return the first failing name, if any."""
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as err:  # noqa: BLE001 - failures are the product here
            echo(f"FAIL {name}: {err}")
            return name
        echo(f"ok   {name}")
    return None
