#!/usr/bin/env python3
"""Time the exact layer in process, phase by phase.

    PYTHONPATH=src python scripts/time_exact.py --seed 1 --repeat 5

Runs the phases in the order of the benchmark's ``exact`` workload.
First one line per ``selftest`` check, run with the workload's 6 samples
where the check takes a sample count.  Then it writes the seeded
candidate files of the workload (``bench/exact_inputs.py``) to a
temporary directory and prints, for each file, one JSON line per phase of
``geodesy check --json``: ``parse`` (``load_candidate``),
``check_conditions``, ``equivariance_test`` (only for a candidate that
passes, as the CLI does) and ``report`` (``_report_json`` and its JSON
text).  Last comes one ``lift`` line, ``lift_classification`` of the 152
feasible classes of ``verify_theorem(p)`` for p <= ``MAX_P`` (16), the set
the lift tests use; the workload lifts only in ``selftest``.  Each
line gives ``best_s``, the best of --repeat wall times in seconds, and
``first_s``, the first of them: the line's first call in this process,
which also pays any per-process cost (a lazy import, a cache filled on
first use) that the lines before it did not.  The output ends with one
``{"phase": ..., "total_s": ..., "first_s": ...}`` line per phase, the
sums of its best and of its first times over all lines.
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
from geodesy.cli import MAX_P, _report_json  # noqa: E402
from geodesy.ladder import verify_theorem  # noqa: E402
from geodesy.selftest import CHECKS  # noqa: E402

SELFTEST_SAMPLES = 6


def timed(repeat: int, fn):
    """(the best and the first wall time of repeat calls of fn, the last call's result)."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return round(min(times), 7), round(times[0], 7), result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="seed of the candidate files")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per phase, best one reported")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    totals = {}

    def run(phase: str, fn, **where):
        """Time fn, print its line and add it to the phase's totals; fn's result."""
        best, first, result = timed(args.repeat, fn)
        total = totals.setdefault(phase, [0.0, 0.0])
        total[0] += best
        total[1] += first
        print(json.dumps({"phase": phase, **where, "best_s": best, "first_s": first}), flush=True)
        return result

    for name, fn in CHECKS:
        kwargs = {"samples": SELFTEST_SAMPLES} if "samples" in inspect.signature(fn).parameters else {}
        run("selftest", lambda: fn(**kwargs), check=name)
    with tempfile.TemporaryDirectory() as tmp:
        for entry in exact_inputs.generate(args.seed, Path(tmp)):
            path = str(Path(tmp) / entry["file"])
            where = {"p": entry["p"], "kind": entry["kind"]}
            candidate = run("parse", lambda: load_candidate(path), **where)
            report = run("check_conditions", lambda: check_conditions(candidate), **where)
            equivariant = False
            if report.passed:
                equivariant = run("equivariance_test", lambda: equivariance_test(candidate, report), **where)
            run("report", lambda: json_text(_report_json(path, entry["p"], report, equivariant)), **where)
    classes = [cls for p in range(1, MAX_P + 1) for cls in verify_theorem(p).classes]
    run("lift", lambda: [lift_classification(cls) for cls in classes], max_p=MAX_P, tables=len(classes))
    for phase, (best, first) in totals.items():
        print(json.dumps({"phase": phase, "total_s": round(best, 7), "first_s": round(first, 7)}), flush=True)


if __name__ == "__main__":
    main()
