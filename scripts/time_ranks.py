#!/usr/bin/env python3
"""Time the whole-rank classification in process, rank by rank.

    PYTHONPATH=src python scripts/time_ranks.py 5 9 16 --repeat 5

Prints one JSON line per rank: the best of --repeat wall times of
verify_theorem(p) in seconds, the peak RSS of this process so far in MB
(give the ranks in ascending order to read it per rank), and the number of
constraint systems derived, counted on one more, untimed run.
"""

import argparse
import json
import resource
import time

import geodesy.ladder as ladder


def derived_systems(p: int) -> int:
    """verify_theorem(p) with every derive_constraints call counted."""
    original, calls = ladder.derive_constraints, [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    ladder.derive_constraints = counting
    try:
        ladder.verify_theorem(p)
    finally:
        ladder.derive_constraints = original
    return calls[0]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ranks", type=int, nargs="+", metavar="P")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per rank, best one reported")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if min(args.ranks) < 1:
        parser.error("ranks must be at least 1")
    for p in args.ranks:
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            ladder.verify_theorem(p)
            best = min(best, time.perf_counter() - start)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
        print(json.dumps({"p": p, "best_s": round(best, 6), "peak_rss_mb": round(peak_mb, 1),
                          "derived_systems": derived_systems(p)}), flush=True)


if __name__ == "__main__":
    main()
