"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import time
from contextlib import contextmanager
from pathlib import Path

from geodesy.candidates import lift_classification, load_candidate
from geodesy.checker import check_conditions, equivariance_test
from geodesy.cli import run
from geodesy.ladder import (
    CROSS,
    classify_weight_data,
    derive_constraints,
    eliminate,
    replay_certificate,
    verify_theorem,
)
from geodesy.numeric import gradient_check, minimize
from geodesy.selftest import (
    check_antisymmetry,
    check_bracket_table,
    check_cartan_inclusions,
    check_cayley_hamilton,
    check_complex_structure,
    check_eigenprojections,
    check_involution,
    check_jacobi,
)
from geodesy.weights import WeightData, enumerate_weight_data

BUNDLED = Path(__file__).resolve().parent.parent / "candidates"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_theorem_verification(capsys):
    with criterion(1, "classify p=1..4 exits 0, no unresolved, under 60 s"):
        start = time.monotonic()
        for p in (1, 2, 3, 4):
            assert run(["classify", str(p)]) == 0
        elapsed = time.monotonic() - start
        capsys.readouterr()
        assert elapsed < 60.0, f"classification took {elapsed:.1f}s"


def test_criterion_2_odd_sector_feasible_shape():
    with criterion(2, "odd feasible class is the unitary +/-1 pattern"):
        for p in (1, 2, 3, 4):
            summary = verify_theorem(p)
            for result in summary.results():
                if result.status != "feasible":
                    continue
                odd = result.weight_data.odd_sector()
                if odd.is_empty():
                    continue
                m = result.standard_copies
                assert odd.plus == {1: m} and odd.minus == {-1: m}
                terminal = result.odd.witness.terminal
                assert len(terminal) == 1
                block = terminal[0]
                assert block.flavor == "paired"
                assert block.scale_sq == 1 and block.dim == m
                assert result.odd_system.blocks()[block.label][0] == CROSS
                for system, verdict in (
                    (result.odd_system, result.odd),
                    (result.even_system, result.even),
                ):
                    for label, (kind, _) in system.blocks().items():
                        if kind != CROSS:
                            assert label in verdict.witness.forced_zero


def test_criterion_3_end_of_even_sector_contradiction():
    with criterion(3, "even {2 | 0,-2} certificate ends in an empty-left R1"):
        wd = WeightData({2: 1}, {0: 1, -2: 1})
        system = derive_constraints(wd)
        verdict = eliminate(system)
        assert verdict.status == "infeasible"
        assert [s.rule for s in verdict.certificate] == ["R3", "R1"]
        final = verdict.certificate[-1]
        assert final.side == "plus" and final.weight == 2
        assert "0 negated" in final.conclusion, "left side must be empty"
        assert final.trace_values == (0, 2)
        replay_certificate(system, verdict)


def test_criterion_4_checker_round_trip():
    with criterion(4, "bundled candidates and every feasible lift pass the checker"):
        for name in ("diagonal_p2.json", "standard_trivial_p2.json"):
            candidate = load_candidate(BUNDLED / name)
            report = check_conditions(candidate)
            assert report.is_homomorphism and report.passed
            assert report.totally_geodesic
            assert equivariance_test(candidate, report)
        for p in (1, 2, 3):
            for wd in enumerate_weight_data(p):
                result = classify_weight_data(wd)
                if result.status != "feasible":
                    continue
                lifted = lift_classification(result)
                report = check_conditions(lifted)
                assert report.passed and report.totally_geodesic
                assert report.h_spectrum == wd


def test_criterion_5_exact_invariants():
    with criterion(5, "exact invariant suite, 100+ seeded samples each"):
        check_bracket_table()
        check_jacobi(samples=100)
        check_antisymmetry(samples=100)
        check_involution(samples=100)
        check_cartan_inclusions(samples=100)
        check_complex_structure(samples=100)
        check_cayley_hamilton(samples=100)
        check_eigenprojections(samples=100)


def test_criterion_6_oracle_corroboration():
    with criterion(6, "oracle agrees with every exact verdict"):
        for p in (1, 2, 3):
            for wd in enumerate_weight_data(p):
                result = classify_weight_data(wd)
                if result.status == "feasible":
                    report = minimize(wd, restarts=20, seed=7, target=1e-18)
                    assert report.final_residual < 1e-16, wd.describe()
                else:
                    report = minimize(wd, restarts=3, seed=7)
                    assert report.final_residual > 1e-9, wd.describe()
        floor = minimize(WeightData({3: 1, 1: 1}, {-1: 1, -3: 1}), restarts=100, seed=7)
        assert floor.final_residual > 1e-3
        for wd in (WeightData({1: 2}, {-1: 2}), WeightData({3: 1, 1: 1}, {-1: 1, -3: 1})):
            assert gradient_check(wd, seed=7, points=10) < 1e-5


def test_criterion_7_determinism(capsys):
    with criterion(7, "classify and oracle outputs are byte-identical"):
        outputs = []
        for _ in range(2):
            assert run(["classify", "3", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        outputs = []
        for _ in range(2):
            assert run(["classify", "2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        outputs = []
        oracle_args = ["oracle", "--plus", "1:2", "--minus", "-1:2", "--restarts", "5", "--seed", "7"]
        for _ in range(2):
            assert run(oracle_args) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
