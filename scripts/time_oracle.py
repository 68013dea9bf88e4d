#!/usr/bin/env python3
"""Time the numeric oracle in process, table by table.

    PYTHONPATH=src python scripts/time_oracle.py --repeat 5

Runs ``numeric.minimize`` on the tables of the benchmark's ``oracle``
workload (``bench/workloads.py``: every 6th of the 120 tables with
p <= 3) under criterion 6's settings: 20 restarts with target 1e-18 for a
feasible table, 3 restarts for an infeasible one, seed 7.  For each table
it prints one JSON line: the table, whether it is feasible, the best of
--repeat wall times of ``minimize`` in seconds (``best_s``) and the first
of them (``first_s``: the table's first call in this process, which also
pays any per-process cost the tables before it did not, such as a lazy
import), the restarts that ran (its report's stop reasons; a table
without unknowns runs none), its ``numeric._descend`` calls and their
accepted steps.  The restarts, calls and steps are counted in one more,
untimed run.  The output ends with one line of totals over the tables,
which also says whether ``numpy.random`` was imported by then
(``numpy_random_loaded``).
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from geodesy import numeric  # noqa: E402
from geodesy.weights import WeightData  # noqa: E402


def counted_run(wd: WeightData, feasible: bool, seed: int):
    """(the report, the accepted steps of each _descend call) of one run."""
    accepted = []
    descend = numeric._descend

    def counting(*args):
        result = descend(*args)
        accepted.append(result[2])
        return result

    numeric._descend = counting
    try:
        _, report = workloads._minimize(wd, feasible, seed)
    finally:
        numeric._descend = descend
    return report, accepted


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per table, best one reported")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    oracle = workloads.Oracle()
    patterns = oracle.generate(oracle.SEED, Path())["patterns"]
    totals = {"best_s": 0.0, "first_s": 0.0, "restarts": 0, "descend_calls": 0, "steps": 0}
    for pattern in patterns:
        wd = WeightData.from_json_dict(pattern["weight_data"])
        feasible = pattern["feasible"]
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            workloads._minimize(wd, feasible, oracle.SEED)
            times.append(time.perf_counter() - start)
        report, accepted = counted_run(wd, feasible, oracle.SEED)
        line = {
            "table": wd.describe(),
            "feasible": feasible,
            "best_s": round(min(times), 7),
            "first_s": round(times[0], 7),
            "restarts": len(report.stop_reasons),
            "descend_calls": len(accepted),
            "steps": sum(accepted),
        }
        for key in totals:
            totals[key] += line[key]
        print(json.dumps(line), flush=True)
    for key in ("best_s", "first_s"):
        totals[key] = round(totals[key], 7)
    print(json.dumps({"tables": len(patterns), **totals, "numpy_random_loaded": "numpy.random" in sys.modules}), flush=True)


if __name__ == "__main__":
    main()
