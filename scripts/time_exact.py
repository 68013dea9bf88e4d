#!/usr/bin/env python3
"""Time the exact layer in process, phase by phase.

    PYTHONPATH=src python scripts/time_exact.py --seed 1 --repeat 5

Writes the seeded candidate files of the benchmark's ``exact`` workload
(``bench/exact_inputs.py``) to a temporary directory.  For each file it
prints one JSON line per phase of ``geodesy check --json``: ``parse``
(``load_candidate``), ``check_conditions``, ``equivariance_test`` (only
for a candidate that passes, as the CLI does) and ``report``
(``_report_json`` and its JSON text).  Then it prints one ``lift`` line,
``lift_classification`` of every feasible table of rank p <= 4, and one
line per ``selftest`` check, run with the workload's 6 samples where the
check takes a sample count.  Each line gives the best of --repeat wall
times in seconds.  The output ends with one ``{"phase": ..., "total_s":
...}`` line per phase, the sum of its best times over all lines.
"""

import argparse
import inspect
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import exact_inputs  # noqa: E402
from geodesy.candidates import json_text, lift_classification, load_candidate  # noqa: E402
from geodesy.checker import check_conditions, equivariance_test  # noqa: E402
from geodesy.cli import _report_json  # noqa: E402
from geodesy.ladder import classify_weight_data  # noqa: E402
from geodesy.selftest import CHECKS  # noqa: E402
from geodesy.weights import enumerate_weight_data  # noqa: E402

SELFTEST_SAMPLES = 6
LIFT_MAX_P = 4


def best_of(repeat: int, fn):
    """(the best wall time of repeat calls of fn, the last call's result)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return round(best, 7), result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="seed of the candidate files")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per phase, best one reported")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    totals = {}

    def emit(**line) -> None:
        totals[line["phase"]] = totals.get(line["phase"], 0.0) + line["best_s"]
        print(json.dumps(line), flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for entry in exact_inputs.generate(args.seed, Path(tmp)):
            path = str(Path(tmp) / entry["file"])
            where = {"p": entry["p"], "kind": entry["kind"]}
            best, candidate = best_of(args.repeat, lambda: load_candidate(path))
            emit(phase="parse", **where, best_s=best)
            best, report = best_of(args.repeat, lambda: check_conditions(candidate))
            emit(phase="check_conditions", **where, best_s=best)
            equivariant = False
            if report.passed:
                best, equivariant = best_of(args.repeat, lambda: equivariance_test(candidate, report))
                emit(phase="equivariance_test", **where, best_s=best)
            best, _ = best_of(args.repeat, lambda: json_text(_report_json(path, entry["p"], report, equivariant)))
            emit(phase="report", **where, best_s=best)
    results = [classify_weight_data(wd) for p in range(1, LIFT_MAX_P + 1) for wd in enumerate_weight_data(p)]
    feasible = [r for r in results if r.status == "feasible"]
    best, _ = best_of(args.repeat, lambda: [lift_classification(r) for r in feasible])
    emit(phase="lift", max_p=LIFT_MAX_P, tables=len(feasible), best_s=best)
    for name, fn in CHECKS:
        kwargs = {"samples": SELFTEST_SAMPLES} if "samples" in inspect.signature(fn).parameters else {}
        best, _ = best_of(args.repeat, lambda: fn(**kwargs))
        emit(phase="selftest", check=name, best_s=best)
    for phase, total in totals.items():
        print(json.dumps({"phase": phase, "total_s": round(total, 7)}), flush=True)


if __name__ == "__main__":
    main()
