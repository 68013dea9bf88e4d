"""The runnable invariant suite behind the selftest subcommand.

Each check is a named callable that raises AssertionError on failure, with
no assert statement, so python -O keeps it; the runner reports the first
failure by name.  All randomness is seeded, so repeated runs are identical.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from . import sampling
from .algebra import (
    SuPQShape,
    cartan_decompose,
    cartan_involution,
    check_kH_irreducible,
    complex_structure,
    su11_basis,
)
from .candidates import lift_classification
from .checker import check_conditions, equivariance_test
from .gaussmat import GaussMatrix, I, bracket, char_poly, eigenprojections, integer_spectrum, poly_eval
from .ladder import _head_status, classify_weight_data, head_keys, replay_certificate, verify_witness
from .numeric import gradient_check
from .weights import WeightData, enumerate_weight_data


def _shapes(count: int):
    return [SuPQShape(1 + (i % 3)) for i in range(count)]


def check_bracket_table() -> None:
    basis = su11_basis()
    if bracket(basis.w, basis.u) != basis.v * 2: raise AssertionError
    if bracket(basis.w, basis.v) != basis.u * (-2): raise AssertionError
    if bracket(basis.u, basis.v) != basis.w * (-2): raise AssertionError
    if basis.h != basis.w * (-I): raise AssertionError
    if not check_kH_irreducible(): raise AssertionError


def check_jacobi(samples: int = 100, seed: int = 101) -> None:
    rng = random.Random(seed)
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


def check_antisymmetry(samples: int = 100, seed: int = 102) -> None:
    rng = random.Random(seed)
    for shape in _shapes(samples):
        a = sampling.su_pp(rng, shape)
        b = sampling.su_pp(rng, shape)
        if bracket(a, b) != -bracket(b, a): raise AssertionError
        if not bracket(a, a).is_zero(): raise AssertionError


def check_involution(samples: int = 100, seed: int = 103) -> None:
    rng = random.Random(seed)
    for shape in _shapes(samples):
        a = sampling.su_pp(rng, shape)
        b = sampling.su_pp(rng, shape)
        if cartan_involution(cartan_involution(a, shape), shape) != a: raise AssertionError
        got = cartan_involution(bracket(a, b), shape)
        want = bracket(cartan_involution(a, shape), cartan_involution(b, shape))
        if got != want: raise AssertionError("involution is not an automorphism")


def check_cartan_inclusions(samples: int = 100, seed: int = 104) -> None:
    rng = random.Random(seed)
    for shape in _shapes(samples):
        k1 = sampling.k_part(rng, shape)
        k2 = sampling.k_part(rng, shape)
        p1 = sampling.p_part(rng, shape)
        p2 = sampling.p_part(rng, shape)
        if not cartan_decompose(bracket(k1, k2), shape).p_part.is_zero(): raise AssertionError("[k,k] left k")
        if not cartan_decompose(bracket(k1, p1), shape).k_part.is_zero(): raise AssertionError("[k,p] left p")
        if not cartan_decompose(bracket(p1, p2), shape).p_part.is_zero(): raise AssertionError("[p,p] left k")


def check_complex_structure(samples: int = 100, seed: int = 105) -> None:
    rng = random.Random(seed)
    for shape in _shapes(samples):
        a = sampling.p_part(rng, shape)
        if complex_structure(complex_structure(a, shape), shape) != -a: raise AssertionError
        center = GaussMatrix.diagonal([1j] * shape.p + [-1j] * shape.p)
        got = complex_structure(bracket(center, a), shape)
        want = bracket(center, complex_structure(a, shape))
        if got != want: raise AssertionError("complex structure does not commute with the center")


def check_cayley_hamilton(samples: int = 100, seed: int = 106) -> None:
    rng = random.Random(seed)
    for i in range(samples):
        n = 1 + (i % 6)
        a = sampling.matrix(rng, n)
        if not poly_eval(char_poly(a), a).is_zero(): raise AssertionError("Cayley-Hamilton failed")


def check_eigenprojections(samples: int = 100, seed: int = 107) -> None:
    rng = random.Random(seed)
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


def check_certificate_replay(p: int = 2) -> None:
    for wd in enumerate_weight_data(p):
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


def check_witness_lift(p: int = 2) -> None:
    for wd in enumerate_weight_data(p):
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


def check_oracle_gradient(tol: float = 1e-5) -> None:
    patterns = [
        WeightData({1: 2}, {-1: 2}),
        WeightData({3: 1, 1: 1}, {-1: 1, -3: 1}),
    ]
    for wd in patterns:
        err = gradient_check(wd, seed=11, points=3)
        if not err < tol: raise AssertionError(f"gradient mismatch {err} for {wd.describe()}")


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
