#!/usr/bin/env python3
"""Run the full small-rank classification and archive the evidence.

Writes one summary JSON per rank plus the per-table certificates, then
prints a compact table.  Everything is deterministic, so re-runs are
diffable against earlier output.
"""

import argparse
import time
from pathlib import Path

from geodesy.candidates import json_text
from geodesy.cli import MAX_CERT_P, write_certificates
from geodesy.ladder import verify_theorem


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-p", type=int, default=4, help=f"highest rank, 1..{MAX_CERT_P}")
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args()
    if not 1 <= args.max_p <= MAX_CERT_P:
        parser.error(f"--max-p must be between 1 and {MAX_CERT_P}")

    try:
        archive(args.max_p, args.out)
    except OSError as err:
        parser.exit(2, f"error: cannot write to {args.out}: {err.strerror}\n")


def archive(max_p: int, out: Path) -> None:
    """Classify each rank up to max_p, write its summary and certificates
    under out and print its row of the table."""
    out.mkdir(parents=True, exist_ok=True)
    print(f"{'p':>3} {'tables':>7} {'feasible':>9} {'infeasible':>11} {'seconds':>8}")
    for p in range(1, max_p + 1):
        start = time.monotonic()
        summary = verify_theorem(p)
        elapsed = time.monotonic() - start
        with open(out / f"summary_p{p}.json", "w", encoding="utf-8") as fh:
            fh.write(json_text(summary.to_json_dict()) + "\n")
        write_certificates(summary.results(), out / f"certificates_p{p}")
        print(
            f"{p:>3} {summary.enumerated:>7} {summary.feasible:>9} "
            f"{summary.infeasible:>11} {elapsed:>8.2f}"
        )
        for cls in summary.classes:
            flag = " [non-embedding]" if cls.non_embedding else ""
            print(f"      {cls.label()}{flag}: {cls.weight_data.describe()}")


if __name__ == "__main__":
    main()
