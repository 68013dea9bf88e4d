#!/usr/bin/env python3
"""Time the per-process cost of one geodesy command line.

    PYTHONPATH=src python scripts/time_cli.py classify 5 --json --repeat 7

Starts --repeat fresh interpreters (default 5).  Each one times
``import geodesy.cli`` and then two in-process calls of ``cli.run(ARGV)``,
with their stdout and stderr discarded.  The first call pays what a process
sets up on its first command line; the second shows what is left.  Prints
one JSON line: the command line, the exit code of the calls, and the best
time of each of the three phases in seconds.  ``--repeat N`` may stand
anywhere; every other argument belongs to ARGV.
"""

import json
import subprocess
import sys

CHILD = """
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
PHASES = ("import_s", "first_run_s", "second_run_s")


def usage_error(message: str) -> None:
    print(message, file=sys.stderr)
    sys.exit(2)


def parse(args: list) -> tuple:
    """(repeat, ARGV) from the script's arguments; exits 2 on a bad --repeat
    or an empty ARGV."""
    repeat, argv = 5, []
    it = iter(args)
    for arg in it:
        if arg == "--repeat" or arg.startswith("--repeat="):
            raw = arg.partition("=")[2] or next(it, "")
            if not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
                usage_error(f"error: --repeat takes a count of at least 1, got {raw!r}")
            repeat = int(raw)
        else:
            argv.append(arg)
    if not argv:
        usage_error("usage: time_cli.py [--repeat N] ARGV...")
    return repeat, argv


def main() -> None:
    repeat, argv = parse(sys.argv[1:])
    best = [float("inf")] * len(PHASES)
    codes = set()
    for _ in range(repeat):
        child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], capture_output=True, text=True)
        if child.returncode:
            sys.exit(f"error: the timing process failed:\n{child.stderr}")
        result = json.loads(child.stdout)
        best = [min(b, t) for b, t in zip(best, result["times"])]
        codes.update(result["codes"])
    if len(codes) != 1:
        sys.exit(f"error: the calls of one command line returned the exit codes {sorted(codes)}")
    line = {"argv": argv, "exit": codes.pop(), **{phase: round(b, 6) for phase, b in zip(PHASES, best)}}
    print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
