"""The four workloads: inputs made from the seed, operations, output checks.

A workload's ``generate`` runs in set-up and writes every input it needs
under one directory, so the timed child only reads them.  A pass is a
sequence of ``Op``s; each is one call into geodesy's public API (or its CLI
entry point), timed on its own, and its result is checked against what the
inputs imply.  Checks run outside the timed call.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Optional


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # a failure message, or None
    sample: bool = True  # counts toward the op latency percentiles
    timed: bool = True  # counts toward wall_s


def _cli(argv: list) -> tuple:
    """``geodesy <argv>`` in-process; returns (exit code, captured stdout)."""
    from geodesy import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# classify: the headline CLI path, all of it in weights and ladder


class Classify:
    name = "classify"
    P = 5
    TABLES = 2_773
    # sha256 of the `geodesy classify 5 --json` stdout when this benchmark
    # was defined; the verdicts and their serialisation must not change
    SHA256 = "b9ec72a633ae66f9f5254f07483c1bbb61b45be8db17d07dcae508f33c5ef475"

    def generate(self, seed: int, inputs: Path) -> dict:
        return {}  # deterministic: the seed is ignored

    def items(self, manifest: dict) -> int:
        return self.TABLES

    def ops(self, manifest, inputs, work, stats) -> Iterator[Op]:
        yield Op(partial(_cli, ["classify", str(self.P), "--json"]), self._check)

    def _check(self, result) -> Optional[str]:
        code, out = result
        if code != 0:
            return f"classify {self.P} exited {code}"
        doc = json.loads(out)
        counts, classes = doc["counts"], doc["feasible_classes"]
        if counts["enumerated"] != self.TABLES or counts["unresolved"] != 0:
            return f"classify {self.P} counts {counts}"
        shapes = sorted((c["standard_copies"], c["trivial_dim"]) for c in classes)
        if shapes != [(m, 2 * self.P - 2 * m) for m in range(self.P + 1)]:
            return f"classify {self.P} feasible classes {shapes}"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != self.SHA256:
            return f"classify {self.P} --json stdout digest {digest}"
        return None


# ----------------------------------------------------------------------
# certify: emit every certificate of rank 4, then audit each file


class Certify:
    name = "certify"
    P = 4
    TABLES = 533

    def generate(self, seed: int, inputs: Path) -> dict:
        return {}  # deterministic: the seed is ignored

    def items(self, manifest: dict) -> int:
        return self.TABLES

    def ops(self, manifest, inputs, work, stats) -> Iterator[Op]:
        # The emit is checked but not timed: what writing the files costs
        # depends on the file system's recent history far more than on the
        # program (see README.md).  Every pass overwrites the same files.
        certs = work / "certs"
        since = time.time_ns() - 100_000_000  # file times lag the clock by a tick
        emit = ["classify", str(self.P), "--emit-certs", str(certs)]
        yield Op(partial(_cli, emit), partial(self._check_emit, certs, since), sample=False, timed=False)
        files = sorted(certs.glob("*.json"))
        stats["cert_bytes"] = sum(f.stat().st_size for f in files)
        for path in files:
            yield Op(partial(audit_certificate, path), lambda problem: problem)

    def _check_emit(self, certs: Path, since: int, result) -> Optional[str]:
        code, out = result
        expected = [f"enumerated: {self.TABLES}", "unresolved: 0", f"feasible: {self.P + 1}"]
        if code != 0 or any(line not in out.splitlines() for line in expected):
            return f"classify {self.P} --emit-certs exited {code} with an unexpected summary"
        files = list(certs.glob("*.json"))
        if len(files) != self.TABLES:
            return f"{len(files)} certificate files for {self.TABLES} tables"
        stale = sum(f.stat().st_mtime_ns < since for f in files)
        if stale:
            return f"{stale} certificate files were not written by this pass"
        return None


def _verdict(doc: dict):
    from geodesy.ladder import CertificateStep, TerminalBlock, Verdict, WitnessClass

    witness = None
    if doc["status"] == "feasible":
        w = doc["witness"]
        witness = WitnessClass(
            forced_zero=tuple(w["forced_zero"]),
            terminal=tuple(
                TerminalBlock(t["block"], t["flavor"], t["scale_sq"], t["dim"]) for t in w["terminal"]
            ),
        )
    steps = tuple(CertificateStep.from_json_dict(s) for s in doc.get("certificate", ()))
    return Verdict(doc["status"], doc["sector"], certificate=steps, witness=witness)


def audit_certificate(path: Path) -> Optional[str]:
    """Replay or verify both sectors of one certificate file against freshly
    derived equations; lift a feasible table through the checker."""
    from geodesy import candidates, checker, ladder
    from geodesy.weights import WeightData

    doc = json.loads(path.read_text(encoding="utf-8"))
    wd = WeightData.from_json_dict(doc["weight_data"])
    if wd.digest() != path.stem:
        return f"{path.name} holds table {wd.digest()}"
    systems, verdicts = {}, {}
    for sector, part in (("odd", wd.odd_sector()), ("even", wd.even_sector())):
        systems[sector] = ladder.derive_constraints(part, sector=sector)
        verdicts[sector] = _verdict(doc["sectors"][sector])
        if verdicts[sector].status == "infeasible":
            ladder.replay_certificate(systems[sector], verdicts[sector])
        elif verdicts[sector].status == "feasible":
            ladder.verify_witness(systems[sector], verdicts[sector].witness)
        else:
            return f"{path.name}: {sector} sector is {verdicts[sector].status}"
    result = ladder.DatumClassification(
        wd, systems["odd"], systems["even"], verdicts["odd"], verdicts["even"]
    )
    if result.status != doc["status"]:
        return f"{path.name}: status {doc['status']} but sectors give {result.status}"
    if result.status == "feasible":
        report = checker.check_conditions(candidates.lift_classification(result))
        if not (report.passed and report.totally_geodesic):
            return f"{path.name}: lifted witness fails the checker"
    return None


# ----------------------------------------------------------------------
# exact: the selftest checks, then `check --json` on seeded candidates


class Exact:
    name = "exact"
    # samples per sampled selftest check (the CLI runs 100); a multiple of
    # 6 keeps the mix of shapes and matrix sizes the checks cycle through
    SELFTEST_SAMPLES = 6

    def generate(self, seed: int, inputs: Path) -> dict:
        import exact_inputs

        return {"candidates": exact_inputs.generate(seed, inputs)}

    def items(self, manifest: dict) -> int:
        return len(manifest["candidates"])

    def ops(self, manifest, inputs, work, stats) -> Iterator[Op]:
        from geodesy.selftest import CHECKS

        for _, fn in CHECKS:
            kwargs = {"samples": self.SELFTEST_SAMPLES} if "samples" in inspect.signature(fn).parameters else {}
            yield Op(partial(fn, **kwargs), lambda _: None, sample=False)
        for entry in manifest["candidates"]:
            path = str(inputs / entry["file"])
            yield Op(partial(_cli, ["check", path, "--json"]), partial(self._check_report, entry))

    @staticmethod
    def _check_report(entry: dict, result) -> Optional[str]:
        code, out = result
        expect = entry["expect"]
        if code != expect["exit"]:
            return f"check {entry['file']} exited {code}, expected {expect['exit']}"
        doc = json.loads(out)
        wrong = [key for key, value in expect.items() if key != "exit" and doc.get(key) != value]
        if wrong:
            return f"check {entry['file']}: {', '.join(wrong)} differ from the construction"
        return None


# ----------------------------------------------------------------------
# oracle: numeric corroboration of every table with p <= 3


class Oracle:
    name = "oracle"
    RANKS = (1, 2, 3)
    # every STRIDE-th of the 120 tables criterion 6 runs, so that a pass
    # takes about a second and a run repeats it many times
    STRIDE = 6
    # criterion 6's seed.  A per-table seed drawn from the run seed moves a
    # pass's time by a quarter between seeds (its work is the number of
    # descent steps), so the starting points are fixed and the seed ignored.
    SEED = 7

    def generate(self, seed: int, inputs: Path) -> dict:
        from geodesy.ladder import classify_weight_data
        from geodesy.weights import enumerate_weight_data

        return {
            "patterns": [
                {
                    "weight_data": wd.to_json_dict(),
                    "feasible": classify_weight_data(wd).status == "feasible",
                }
                for wd in [wd for p in self.RANKS for wd in enumerate_weight_data(p)][:: self.STRIDE]
            ]
        }

    def items(self, manifest: dict) -> int:
        return len(manifest["patterns"])

    def ops(self, manifest, inputs, work, stats) -> Iterator[Op]:
        from geodesy.weights import WeightData

        for pattern in manifest["patterns"]:
            wd = WeightData.from_json_dict(pattern["weight_data"])
            yield Op(partial(_minimize, wd, pattern["feasible"], self.SEED), partial(_check_residual, stats))


def _minimize(wd, feasible: bool, seed: int) -> tuple:
    """Criterion 6: feasible tables must reach < 1e-16 within 20 restarts
    (stopping at 1e-18), infeasible ones must stay > 1e-9 after 3."""
    from geodesy import numeric

    if feasible:
        return feasible, numeric.minimize(wd, restarts=20, seed=seed, target=1e-18)
    return feasible, numeric.minimize(wd, restarts=3, seed=seed)


def _check_residual(stats: dict, result) -> Optional[str]:
    feasible, report = result
    decided = report.final_residual < 1e-16 if feasible else report.final_residual > 1e-9
    stats["decided"] = stats.get("decided", 0) + int(decided)
    if not decided:
        kind = "feasible" if feasible else "infeasible"
        return f"{kind} {report.pattern.describe()} seed {report.seed}: residual {report.final_residual:.3e}"
    return None


WORKLOADS = {w.name: w for w in (Classify(), Certify(), Exact(), Oracle())}
