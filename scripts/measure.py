#!/usr/bin/env python3
"""Measure the package layer by layer, in process or per process.

    PYTHONPATH=src python scripts/measure.py [--repeat N] COMMAND ...

Every command prints JSON lines.  A time is in seconds: ``best_s`` is the
best of --repeat (default 5) timed runs and ``first_s`` the first, which
also pays any per-process cost (a lazy import, a cache filled on first
use) that the lines before it did not.  Counts come from one more,
untimed run.  Each command imports only what it measures, so
``peak_rss_mb`` holds no module it does not use.

ranks P...    per rank: verify_theorem(p), the peak RSS so far in MB (give
              ranks in ascending order) and the peak before the first rank
              (the interpreter, the script's compilation and the imports),
              the systems derived, head keys decided, sectors walked in
              full and sums of irreducibles read.
exact [--seed S]
              the ``exact`` workload's phases: each selftest check; parse,
              check_conditions, equivariance_test and report of each seeded
              candidate; the lift of 152 classes; each phase's totals.
oracle        per table of the ``oracle`` workload: minimize, its restarts,
              _descend calls and accepted steps; then the totals, the
              normals streams seeded and whether numpy.random was loaded.
              The process seeds restart k's stream once for all tables,
              so a table's first_s finds the streams that earlier tables
              drew already.
certify       the audit of the 533 certificates of rank 4, then per layer
              its calls in one audit and their best time over --repeat
              audits with each layer's calls timed, run in turn with the
              plain ones, and last "other": the best audit less the sum of
              the layers, the audit's own code and what no layer times
              (negative when the timing wrappers cost more than that).
cli ARGV...   in --repeat fresh interpreters, ``import geodesy.cli`` and
              two ``cli.run(ARGV)`` calls: the exit code, each best time.
"""

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))  # workloads, exact_inputs


def timed(repeat: int, fn):
    """(the best and the first wall time of repeat calls of fn, the last call's result)."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), times[0], result


def emit(line: dict) -> None:
    """Print line as one JSON line, each float rounded to 7 places."""
    print(json.dumps({key: round(v, 7) if isinstance(v, float) else v for key, v in line.items()}), flush=True)


def _calling(around, fn):
    return lambda *args, **kwargs: around(fn, *args, **kwargs)


@contextlib.contextmanager
def wrapped(*targets):
    """For each (owner, name, around) of targets, owner.name(*args, **kwargs)
    calls around(its function, *args, **kwargs) while the block runs, a
    classmethod kept a classmethod; the originals come back when it ends."""
    saved = []
    try:
        for owner, name, around in targets:
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            if isinstance(original, classmethod):
                setattr(owner, name, classmethod(_calling(around, original.__func__)))
            else:
                setattr(owner, name, _calling(around, original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def ranks(repeat: int, ps: list) -> None:
    import resource

    import geodesy.ladder as ladder

    def counting(field):
        def around(fn, *args, **kwargs):
            calls[field] += 1
            return fn(*args, **kwargs)

        return around

    def head_status(fn, key):  # a window has the marker top 3, a support 1 or 2
        calls["head_keys"] += 1
        calls["head_windows" if key[0] == 3 else "head_supports"] += 1
        return fn(key)

    def walked(fn, *args, **kwargs):
        for entry in fn(*args, **kwargs):
            calls["walked_sums"] += 1
            yield entry

    fields = ["derived_systems", "head_keys", "head_windows", "head_supports", "walked_sectors", "walked_sums"]
    base_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
    for p in ps:
        best, _, _ = timed(repeat, lambda: ladder.verify_theorem(p))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
        calls = dict.fromkeys(fields, 0)
        with wrapped(
            (ladder, "derive_constraints", counting("derived_systems")),
            (ladder, "_derive_and_eliminate", counting("walked_sectors")),
            (ladder, "_head_status", head_status),
            (ladder, "iter_spectra", walked),
        ):
            ladder.verify_theorem(p)
        emit({"p": p, "best_s": best, "peak_rss_mb": round(peak_mb, 1), "base_rss_mb": round(base_mb, 1), **calls})


def exact(repeat: int, seed: int) -> None:
    import inspect
    import tempfile

    import exact_inputs
    from geodesy.candidates import json_text, lift_classification, load_candidate
    from geodesy.checker import check_conditions, equivariance_test
    from geodesy.cli import MAX_P, _report_json
    from geodesy.ladder import verify_theorem
    from geodesy.selftest import CHECKS

    totals = {}

    def run(phase: str, fn, **where):
        """Time fn, print its line and add it to the phase's totals; fn's result."""
        best, first, result = timed(repeat, fn)
        total = totals.setdefault(phase, [0.0, 0.0])
        total[0] += best
        total[1] += first
        emit({"phase": phase, **where, "best_s": best, "first_s": first})
        return result

    for name, fn in CHECKS:
        kwargs = {"samples": 6} if "samples" in inspect.signature(fn).parameters else {}
        run("selftest", lambda: fn(**kwargs), check=name)
    with tempfile.TemporaryDirectory() as tmp:
        for entry in exact_inputs.generate(seed, Path(tmp)):
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
        emit({"phase": phase, "total_s": best, "first_s": first})


def oracle(repeat: int) -> None:
    import workloads
    from geodesy import normals, numeric
    from geodesy.weights import WeightData

    def descend(fn, *args):
        result = fn(*args)
        accepted.append(result[2])
        return result

    def seed(fn, entropy):
        seeded.append(entropy)
        return fn(entropy)

    workload = workloads.Oracle()
    patterns = workload.generate(workload.SEED, Path())["patterns"]
    totals = {"best_s": 0.0, "first_s": 0.0, "restarts": 0, "descend_calls": 0, "steps": 0}
    seeded = []
    with wrapped((normals, "_seed", seed)):
        for pattern in patterns:
            wd = WeightData.from_json_dict(pattern["weight_data"])
            feasible = pattern["feasible"]
            best, first, _ = timed(repeat, lambda: workloads._minimize(wd, feasible, workload.SEED))
            accepted = []
            with wrapped((numeric, "_descend", descend)):
                _, report = workloads._minimize(wd, feasible, workload.SEED)
            line = {
                "table": wd.describe(),
                "feasible": feasible,
                "best_s": best,
                "first_s": first,
                "restarts": len(report.stop_reasons),
                "descend_calls": len(accepted),
                "steps": sum(accepted),
            }
            for key in totals:
                totals[key] += line[key]
            emit(line)
    loaded = "numpy.random" in sys.modules
    emit({"tables": len(patterns), **totals, "streams_seeded": len(seeded), "numpy_random_loaded": loaded})


def certify(repeat: int) -> None:
    import tempfile
    from collections import defaultdict

    import workloads
    from geodesy import candidates, checker, ladder
    from geodesy.weights import WeightData

    layers = [  # (layer, owner, name) for every call of the audit that a layer counts, in the audit's order
        ("read", Path, "read_text"),
        ("read", json, "loads"),
        ("parse", WeightData, "from_json_dict"),
        ("parse", workloads, "_verdict"),
        ("digest", WeightData, "digest"),
        ("split", WeightData, "sector"),
        ("derive", ladder, "derive_constraints"),
        ("replay", ladder, "replay_certificate"),
        ("witness", ladder, "verify_witness"),
        ("lift", candidates, "lift_classification"),
        ("lift", checker, "check_conditions"),
    ]

    def timing(layer):
        def around(fn, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - start
                calls[layer] += 1

        return around

    def audit_all() -> None:
        for path in files:
            problem = workloads.audit_certificate(path)
            if problem:
                raise SystemExit(f"audit failed: {problem}")

    workload = workloads.Certify()
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = workloads._cli(["classify", str(workload.P), "--emit-certs", tmp])
        files = sorted(Path(tmp).glob("*.json"))
        if code != 0 or len(files) != workload.TABLES:
            raise SystemExit(f"classify {workload.P} --emit-certs exited {code} with {len(files)} files")
        # a plain audit and a timed one in turn, so that the two minima come
        # from the same stretch of the machine's speed
        best, best_layers = float("inf"), {}
        for _ in range(repeat):
            best = min(best, timed(1, audit_all)[0])
            spent: dict = defaultdict(float)
            calls: dict = defaultdict(int)  # the same in every audit
            with wrapped(*((owner, name, timing(layer)) for layer, owner, name in layers)):
                audit_all()
            for layer, seconds in spent.items():
                best_layers[layer] = min(best_layers.get(layer, float("inf")), seconds)
    emit({"files": len(files), "best_s": best})
    for layer in dict.fromkeys(layer for layer, _, _ in layers):
        emit({"layer": layer, "calls": calls[layer], "best_s": best_layers.get(layer, 0.0)})
    emit({"layer": "other", "best_s": best - sum(best_layers.values())})


CLI_CHILD = """
import contextlib, io, json, sys, time
argv = json.loads(sys.argv[1])
start = time.perf_counter()
import geodesy.cli
times, codes = [time.perf_counter() - start], []
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        codes.append(geodesy.cli.run(argv))
        times.append(time.perf_counter() - start)
print(json.dumps({"times": times, "codes": codes}))
"""


def cli(repeat: int, argv: list) -> None:
    import subprocess

    phases = ("import_s", "first_run_s", "second_run_s")
    best = [float("inf")] * len(phases)
    codes = set()
    for _ in range(repeat):
        child = subprocess.run([sys.executable, "-c", CLI_CHILD, json.dumps(argv)], capture_output=True, text=True)
        if child.returncode:
            sys.exit(f"error: the timing process failed:\n{child.stderr}")
        result = json.loads(child.stdout)
        best = [min(b, t) for b, t in zip(best, result["times"])]
        codes.update(result["codes"])
    if len(codes) != 1:
        sys.exit(f"error: the calls of one command line returned the exit codes {sorted(codes)}")
    emit({"argv": argv, "exit": codes.pop(), **dict(zip(phases, best))})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=5, help="timed runs of each measurement, best one reported")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands.add_parser("ranks").add_argument("ranks", type=int, nargs="+", metavar="P")
    commands.add_parser("exact").add_argument("--seed", type=int, default=1, help="seed of the candidate files")
    commands.add_parser("oracle")
    commands.add_parser("certify")
    commands.add_parser("cli").add_argument("argv", nargs=argparse.REMAINDER, metavar="ARGV")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.command == "ranks":
        if min(args.ranks) < 1:
            parser.error("ranks must be at least 1")
        ranks(args.repeat, args.ranks)
    elif args.command == "exact":
        exact(args.repeat, args.seed)
    elif args.command == "oracle":
        oracle(args.repeat)
    elif args.command == "certify":
        certify(args.repeat)
    elif not args.argv:
        parser.error("cli needs a geodesy command line")
    else:
        cli(args.repeat, args.argv)


if __name__ == "__main__":
    main()
