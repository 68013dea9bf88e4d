"""Benchmark runner for geodesy.

    python3 bench/run.py --workload {classify,certify,exact,oracle}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  Every workload runs in fresh child
processes started one at a time from this process (no pool):

* ``--trace 0``: passes over the workload's inputs, each in a fresh child,
  until ``--seconds`` seconds have gone by (at least ``MIN_PASSES``).  A
  set-up child (interpreter start, ``import geodesy`` with numpy, input
  generation from the seed) runs before the first pass and then after
  every ``SETUP_EVERY_S`` seconds; the median of their walls is
  ``setup_s``.  Prints the end-to-end metrics.
* ``--trace 1``: one set-up child, two untraced passes (the first writes
  the files the later ones overwrite) and one traced pass, each in its
  own child.  Prints the per-layer metrics; the tracing overhead is the
  traced minus the second untraced pass wall.

Every pass runs the same ops on the same inputs.  The machine's speed
swings by up to half within a second (other tenants share its cores), so
an op's time is the minimum over passes, taken segment by segment where
checkpoints cut a long op (``child.Checkpoints``): the time the op takes
when nothing slows it.  Slow periods can outlast a run, so every time is
also scaled to a reference speed: each pass child times a fixed loop
before its ops (``child.reference_s``), and the times are multiplied by
``REFERENCE_S`` over the loop's fastest time in the run.  ``wall_s`` is the
sum of the scaled times of the timed ops of a pass.

Scratch files go to a temporary directory under ``.bench_tmp/``, removed
at exit; the spans of a traced pass are kept in ``.bench_out/``.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the machine stamp and
sample counts.  Exits 2 without a result when the checkout has no
``src/geodesy``, and 1 when a child process fails or runs out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
WORKLOADS = ("classify", "certify", "exact", "oracle")
MIN_PASSES = 4
SETUP_EVERY_S = 2.0
# the reference loop's fastest time on the 2-core VM that defined this
# benchmark: a run's times are scaled to the speed at which it takes this
REFERENCE_S = 0.035
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class ChildFailed(Exception):
    pass


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.pop("GEODESY_JOBS", None)  # the pool must stay off: one child, one core
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
        TMPDIR=str(tmp),
    )
    return env


def spawn(args: list, env: dict, deadline: float) -> tuple:
    """Run one child to its end; return (wall seconds, resource usage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *map(str, args)],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr.fileno(),
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[:2]} exited {proc.returncode}")
    return wall, usage


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_stamp(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def setup(workload: str, seed: int, inputs: Path, env: dict, deadline: float) -> float:
    wall, _ = spawn(["setup", workload, "--seed", seed, "--inputs", inputs], env, deadline)
    return wall


def run_one_pass(workload: str, inputs: Path, tmp: Path, env: dict, deadline: float) -> tuple:
    work, result_path = tmp / "work", tmp / "result.json"
    _, usage = spawn(["pass", workload, "--inputs", inputs, "--work", work, "--result", result_path],
                     env, deadline)
    return json.loads(result_path.read_text(encoding="utf-8")), usage.ru_maxrss / 1024


def op_times(passes: list) -> list:
    """Each op's time: the sum over its segments of the segment's minimum
    across passes, or the minimum of its whole time where the passes cut it
    into different numbers of segments."""
    times = []
    for segs in zip(*(p["segments"] for p in passes)):
        if len({len(s) for s in segs}) == 1:
            times.append(sum(map(min, zip(*segs))))
        else:
            times.append(min(map(sum, segs)))
    return times


def measure(workload: str, seed: int, seconds: float, tmp: Path, env: dict, deadline: float) -> tuple:
    inputs = tmp / "inputs-0"
    setups = [setup(workload, seed, inputs, env, deadline)]
    digests = [tree_digest(inputs)]
    passes, rss, pass_walls, child_walls, refs = [], [], [], [], []
    start = last_setup = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        # leave room for one more pass and set-up, each as slow as the slowest so far
        if passes and deadline - time.monotonic() < 2 * (max(child_walls) + max(setups)):
            break
        began = time.monotonic()
        result, peak = run_one_pass(workload, inputs, tmp, env, deadline)
        child_walls.append(time.monotonic() - began)
        passes.append(result)
        refs.append(result["reference_s"])
        rss.append(peak)
        pass_walls.append(sum(map(sum, result["segments"])))
        if time.monotonic() - last_setup >= SETUP_EVERY_S:
            last_setup = time.monotonic()
            extra = tmp / "inputs-again"
            setups.append(setup(workload, seed, extra, env, deadline))
            digests.append(tree_digest(extra))
            shutil.rmtree(extra)

    failures = [f for p in passes for f in p["failures"]]
    if len(set(digests)) != 1:
        failures.append("set-up wrote different inputs for the same seed")
    if len({len(p["segments"]) for p in passes}) != 1:
        failures.append("passes ran different numbers of ops")
    scale = REFERENCE_S / min(refs)
    times = [t * scale for t in op_times(passes)]
    wall = sum(t for t, timed in zip(times, passes[0]["timed"]) if timed)
    lat = [x for x, sample in zip(times, passes[0]["sample"]) if sample]
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (passes[0]["items"] / wall, "1/s"),
        "peak_rss_mb": (max(rss), "MB"),
        "op_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
    }
    detail = {
        "passes": len(passes),
        "scale": scale,
        "unscaled_wall_s": wall / scale,
        "unscaled_setup_s": statistics.median(setups),
        "reference_samples_s": refs,
        "pass_walls_s": pass_walls,
        "segments_per_pass": sum(map(len, passes[0]["segments"])),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_samples": len(lat),
        "setup_samples_s": setups,
    }
    attempted = sum(p["attempted"] for p in passes) + len(setups)
    return metrics, attempted, failures, detail, passes[0]["numpy"]


def trace(workload: str, seed: int, tmp: Path, env: dict, deadline: float) -> tuple:
    inputs = tmp / "inputs"
    setup(workload, seed, inputs, env, deadline)
    run_one_pass(workload, inputs, tmp, env, deadline)  # writes what later passes overwrite
    plain, _ = run_one_pass(workload, inputs, tmp, env, deadline)
    spans = ROOT / ".bench_out" / f"{workload}-spans.jsonl"
    traced_path = tmp / "traced.json"
    spawn(["trace", workload, "--inputs", inputs, "--work", tmp / "work", "--result", traced_path,
           "--spans", spans], env, deadline)
    traced = json.loads(traced_path.read_text(encoding="utf-8"))
    layers = traced["layers"]
    untraced_wall = sum(map(sum, plain["segments"]))
    layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced_wall
    metrics = {name: (value, unit_of(name)) for name, value in sorted(layers.items())}
    detail = {"spans_file": str(spans.relative_to(ROOT)), "untraced_wall_s": untraced_wall}
    attempted = plain["attempted"] + traced["attempted"]
    return metrics, attempted, plain["failures"] + traced["failures"], detail, traced["numpy"]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated runner still kills and reaps its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "geodesy" / "__init__.py").is_file():
        print(f"bench: no geodesy sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        env = child_env(tmp)
        if args.trace:
            metrics, attempted, failures, detail, numpy_version = trace(
                args.workload, args.seed, tmp, env, deadline)
        else:
            metrics, attempted, failures, detail, numpy_version = measure(
                args.workload, args.seed, args.seconds, tmp, env, deadline)
    except ChildFailed as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    for failure in failures[:5]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"machine": machine_stamp(numpy_version), "workload": args.workload,
                      "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
