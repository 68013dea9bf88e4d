#!/usr/bin/env python3
"""Time the whole-rank classification in process, rank by rank.

    PYTHONPATH=src python scripts/time_ranks.py 5 9 16 --repeat 5

Prints one JSON line per rank: the best of --repeat wall times of
verify_theorem(p) in seconds, the peak RSS of this process so far in MB
(give the ranks in ascending order to read it per rank), and counts taken
on one more, untimed run: the constraint systems derived, the head keys
decided, split into top windows (head_windows) and small supports
(head_supports), the sectors the walk derives and eliminates in full
(walked_sectors, its calls of ladder._derive_and_eliminate) and the sums
of irreducibles it reads (walked_sums).  Each head key and each walked
sector derives one system.
"""

import argparse
import json
import resource
import time

import geodesy.ladder as ladder


COUNTED = {  # output field -> the ladder function whose calls it counts
    "derived_systems": "derive_constraints",
    "walked_sectors": "_derive_and_eliminate",
}


def counts(p: int) -> dict:
    """verify_theorem(p) with the calls of each COUNTED function counted,
    the head keys decided, also split into windows and supports, and the
    entries of ladder.iter_spectra read (walked_sums)."""
    originals = {name: getattr(ladder, name) for name in [*COUNTED.values(), "_head_status", "iter_spectra"]}
    fields = ["derived_systems", "head_keys", "head_windows", "head_supports", "walked_sectors", "walked_sums"]
    calls = dict.fromkeys(fields, 0)

    def counting(field, original):
        def counted(*args, **kwargs):
            calls[field] += 1
            return original(*args, **kwargs)

        return counted

    def walked(*args, **kwargs):
        for entry in originals["iter_spectra"](*args, **kwargs):
            calls["walked_sums"] += 1
            yield entry

    def head_status(key):  # a window has the marker top 3, a support 1 or 2
        calls["head_keys"] += 1
        calls["head_windows" if key[0] == 3 else "head_supports"] += 1
        return originals["_head_status"](key)

    for field, name in COUNTED.items():
        setattr(ladder, name, counting(field, originals[name]))
    ladder._head_status = head_status
    ladder.iter_spectra = walked
    try:
        ladder.verify_theorem(p)
    finally:
        for name, original in originals.items():
            setattr(ladder, name, original)
    return calls


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
        print(json.dumps({"p": p, "best_s": round(best, 6), "peak_rss_mb": round(peak_mb, 1), **counts(p)}), flush=True)


if __name__ == "__main__":
    main()
