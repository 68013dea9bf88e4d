"""One benchmark child process; ``run.py`` starts it, never a user.

    child.py setup WORKLOAD --seed N --inputs DIR
    child.py pass  WORKLOAD --inputs DIR --work DIR --result FILE
    child.py trace WORKLOAD --inputs DIR --work DIR --result FILE --spans FILE

``setup`` imports geodesy and writes the workload's inputs.  ``pass`` times
the reference loop, runs one pass over the inputs and reports each op's
time, split into segments at checkpoints.  ``trace`` runs one pass with every public function of the
program wrapped, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import geodesy.cli  # noqa: F401  (set-up cost: every module, and numpy)
from tracing import GC_SPAN, OP_SPAN, Tracer, selftest_span
from workloads import WORKLOADS


class Checkpoints:
    """The time of every ``EVERY``-th garbage collection of the process.

    The program runs the same allocations in every pass, so its collections
    fall at the same points of its work each time: they cut a long op into
    segments of equal work across passes, without wrapping any function.
    """

    EVERY = 16

    def __init__(self):
        self.count = 0
        self.marks: list = []

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.count += 1
            if self.count % self.EVERY == 0:
                self.marks.append(time.perf_counter())

    def segments(self, first: int, start: float, end: float) -> list:
        """Durations between the checkpoints that fell inside [start, end]."""
        cuts = [start, *(m for m in self.marks[first:] if start < m < end), end]
        return [b - a for a, b in zip(cuts, cuts[1:])]


def reference_s() -> float:
    """One run of a fixed pure-Python loop (dicts, tuples, fractions).

    It runs in the pass's own process just before the ops, with the
    collector off so that the program's heap does not move it, and tells
    how fast the machine runs Python code at that moment.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict = {}
        for i in range(15_000):
            key = (i % 97, i % 89)
            acc[key] = acc.get(key, 0) + Fraction(i % 7, 1 + i % 5)
        sorted(acc.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_pass(workload, manifest, inputs, work, stats, tracer=None) -> dict:
    """Run one pass; time each op's call, check its result outside the timing."""
    segments, sample, timed, failures = [], [], [], []
    checkpoints = Checkpoints()
    if tracer is None:
        gc.callbacks.append(checkpoints)
    for i, op in enumerate(workload.ops(manifest, inputs, work, stats)):
        if tracer is not None:
            tracer.run_id = i
            span = tracer.open(OP_SPAN)
        first = len(checkpoints.marks)
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as err:  # noqa: BLE001 - a raising op is a failed op
            failures.append(f"{type(err).__name__}: {err}")
            continue
        finally:
            end = time.perf_counter()
            segments.append(checkpoints.segments(first, start, end))
            sample.append(op.sample)
            timed.append(op.timed)
            if tracer is not None:
                tracer.close(span)
        problem = op.check(result)
        if problem:
            failures.append(problem)
    if tracer is None:
        gc.callbacks.remove(checkpoints)
    return {"segments": segments, "sample": sample, "timed": timed, "failures": failures}


def layer_metrics(tracer: Tracer, summary: dict, stats: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass; times are self times."""

    def self_s(span: str) -> float:
        return summary.get(span, {}).get("self_s", 0.0)

    def calls(span: str) -> int:
        return summary.get(span, {}).get("calls", 0)

    restarts = calls("numeric._descend")
    metrics = {
        "weights.enumerate_s": self_s("weights.enumerate_weight_data"),
        "weights.tables": tracer.yields.get("weights.enumerate_weight_data", 0),
        "ladder.derive_s": self_s("ladder.derive_constraints"),
        "ladder.eliminate_s": self_s("ladder.eliminate"),
        "ladder.verify_theorem_self_s": self_s("ladder.verify_theorem"),
        "ladder.systems": calls("ladder.derive_constraints"),
        "ladder.rule.R1": tracer.rules.get("R1", 0),
        "ladder.rule.R2": tracer.rules.get("R2", 0),
        "ladder.rule.R3": tracer.rules.get("R3", 0),
        "ladder.rule.R4": tracer.rules.get("R4", 0),
        "ladder.cert_steps": sum(tracer.rules.values()),
        "ladder.replay_s": self_s("ladder.replay_certificate"),
        "ladder.witness_s": self_s("ladder.verify_witness"),
        "candidates.lift_s": self_s("candidates.lift_classification"),
        "candidates.load_s": self_s("candidates.load_candidate"),
        "cli.emit_certs_s": self_s("cli.cmd_classify"),
        "cli.run_self_s": self_s("cli.run"),
        "cli.cert_mb": stats.get("cert_bytes", 0) / 1e6,
        "gaussmat.matmul_s": self_s("gaussmat.__matmul__"),
        "gaussmat.matmul_calls": calls("gaussmat.__matmul__"),
        "gaussmat.bracket_s": self_s("gaussmat.bracket"),
        "gaussmat.char_poly_s": self_s("gaussmat.char_poly"),
        "gaussmat.integer_spectrum_s": self_s("gaussmat.integer_spectrum"),
        "gaussmat.inverse_s": self_s("gaussmat.inverse"),
        "algebra.cartan_decompose_s": self_s("algebra.cartan_decompose"),
        "algebra.complex_structure_s": self_s("algebra.complex_structure"),
        "checker.check_conditions_s": self_s("checker.check_conditions"),
        "checker.equivariance_s": self_s("checker.equivariance_test"),
        "checker.h_weight_analysis_s": self_s("checker.h_weight_analysis"),
        "numeric.minimize_s": self_s("numeric.minimize"),
        "numeric.gradient_check_s": self_s("numeric.gradient_check"),
        "numeric.descend_s": self_s("numeric._descend"),
        "numeric.restarts": restarts,
        "numeric.iterations": tracer.descend_iterations,
        "numeric.useful_restart_ratio": stats.get("decided", 0) / restarts if restarts else 0.0,
        "python.gc_s": self_s(GC_SPAN),
        "python.gc_collections": calls(GC_SPAN),
        "trace.wall_s": wall,
        "trace.spans": len(tracer.spans),
        "trace.unattributed_s": self_s(OP_SPAN),
    }
    from geodesy.selftest import CHECKS

    for name, _ in CHECKS:
        span = selftest_span(name)
        metrics[span + "_s"] = self_s(span)
    return metrics


def trace_checks(workload: str, summary: dict, wall: float) -> tuple:
    """Which layers a workload may reach: (checks made, failure messages)."""

    def self_s(*prefixes) -> float:
        return sum(row["self_s"] for name, row in summary.items() if name.startswith(prefixes))

    failures = []
    if workload == "classify":
        touched = sorted(name for name in summary if name.startswith(("gaussmat.", "numeric.")))
        if touched:
            failures.append(f"classify reached the exact kernel or the oracle: {touched}")
        share = self_s("ladder.", "weights.", GC_SPAN)
        if share < 0.5 * wall:
            failures.append(f"ladder, weights and gc cover {share:.2f} s of {wall:.2f} s")
        return 2, failures
    if workload == "oracle":
        if self_s("ladder.") > 0.05 * wall:
            failures.append(f"ladder takes {self_s('ladder.'):.2f} s of {wall:.2f} s")
        return 1, failures
    return 0, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass", "trace"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.mode == "setup":
        args.inputs.mkdir(parents=True, exist_ok=True)
        manifest = workload.generate(args.seed, args.inputs)
        (args.inputs / "manifest.json").write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
        return 0

    manifest = json.loads((args.inputs / "manifest.json").read_text(encoding="utf-8"))
    args.work.mkdir(parents=True, exist_ok=True)
    stats: dict = {}
    if args.mode == "trace":
        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"bench: not traced, no such function: {', '.join(missing)}", file=sys.stderr)
        gc.collect()
        result = run_pass(workload, manifest, args.inputs, args.work, stats, tracer)
        tracer.stop()
        summary = tracer.summary()
        wall = sum(map(sum, result["segments"]))
        layers = layer_metrics(tracer, summary, stats, wall)
        checks, failures = trace_checks(workload.name, summary, wall)
        result["failures"] += failures
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(args.spans)
    else:
        layers, checks = None, 0
        gc.collect()
        reference = reference_s()
        result = run_pass(workload, manifest, args.inputs, args.work, stats)
        result["reference_s"] = reference

    import numpy

    doc = {
        **result,
        "items": workload.items(manifest),
        "attempted": len(result["segments"]) + checks,
        "layers": layers,
        "numpy": numpy.__version__,
    }
    args.result.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
