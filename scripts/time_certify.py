#!/usr/bin/env python3
"""Time the certificate audit in process, layer by layer.

    PYTHONPATH=src python scripts/time_certify.py --repeat 5

Emits every certificate of rank 4 (``classify 4 --emit-certs``, as the
benchmark's ``certify`` workload does) into a temporary directory, then
audits every file through ``bench/workloads.audit_certificate`` --repeat
times.  It prints one JSON line with the best wall time of a whole audit
in seconds, then one JSON line per layer of the audit, in its order:

    read     the file read and its JSON parse
    parse    WeightData.from_json_dict and the rebuilt sector verdicts
    digest   WeightData.digest, which names the file
    derive   ladder.derive_constraints of both sectors
    replay   ladder.replay_certificate of each infeasible sector
    witness  ladder.verify_witness of each feasible sector
    lift     candidates.lift_classification and checker.check_conditions
             of each feasible table

A layer's time is the best, over --repeat more audits with every layer
wrapped by a timer, of the summed time of its calls in one audit; the
wrappers add their own cost, so the layers need not add up to the wall.
"""

import argparse
import json
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from geodesy import candidates, checker, ladder  # noqa: E402
from geodesy.weights import WeightData  # noqa: E402


class _TimedPath(type(Path())):
    """A path whose read_text counts toward the read layer."""

    spent: dict = {}

    def read_text(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return super().read_text(*args, **kwargs)
        finally:
            self.spent["read"] += time.perf_counter() - start


# (layer, owner, attribute) for every call of the audit that a layer counts
LAYERS = [
    ("read", json, "loads"),
    ("parse", WeightData, "from_json_dict"),
    ("parse", workloads, "_verdict"),
    ("digest", WeightData, "digest"),
    ("derive", ladder, "derive_constraints"),
    ("replay", ladder, "replay_certificate"),
    ("witness", ladder, "verify_witness"),
    ("lift", candidates, "lift_classification"),
    ("lift", checker, "check_conditions"),
]


def _timed(spent: dict, layer: str, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[layer] += time.perf_counter() - start

    return wrapper


def audit_all(paths: list) -> None:
    for path in paths:
        problem = workloads.audit_certificate(path)
        if problem:
            raise SystemExit(f"audit failed: {problem}")


def layer_times(files: list) -> dict:
    """The time each layer took in one audit of every file."""
    spent: dict = defaultdict(float)
    _TimedPath.spent = spent
    saved = []
    for layer, owner, name in LAYERS:
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(_timed(spent, layer, original.__func__))
        else:
            replacement = _timed(spent, layer, original)
        saved.append((owner, name, original))
        setattr(owner, name, replacement)
    try:
        audit_all([_TimedPath(f) for f in files])
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
    return spent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=5, help="timed audits, best one reported")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    certify = workloads.Certify()
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = workloads._cli(["classify", str(certify.P), "--emit-certs", tmp])
        files = sorted(Path(tmp).glob("*.json"))
        if code != 0 or len(files) != certify.TABLES:
            raise SystemExit(f"classify {certify.P} --emit-certs exited {code} with {len(files)} files")
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            audit_all(files)
            best = min(best, time.perf_counter() - start)
        layers: dict = {}
        for _ in range(args.repeat):
            for layer, spent in layer_times(files).items():
                layers[layer] = min(layers.get(layer, float("inf")), spent)
    print(json.dumps({"files": len(files), "best_s": round(best, 7)}), flush=True)
    for layer in ("read", "parse", "digest", "derive", "replay", "witness", "lift"):
        print(json.dumps({"layer": layer, "best_s": round(layers.get(layer, 0.0), 7)}), flush=True)


if __name__ == "__main__":
    main()
