#!/usr/bin/env python3
"""Regenerate the bundled candidate files in candidates/."""

import argparse
from pathlib import Path

from geodesy.candidates import diagonal_candidate, save_candidate, standard_trivial_candidate


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()  # takes no arguments
    out = Path(__file__).resolve().parent.parent / "candidates"
    out.mkdir(exist_ok=True)
    save_candidate(diagonal_candidate(2), out / "diagonal_p2.json")
    save_candidate(standard_trivial_candidate(2), out / "standard_trivial_p2.json")
    print(f"wrote {out / 'diagonal_p2.json'}")
    print(f"wrote {out / 'standard_trivial_p2.json'}")


if __name__ == "__main__":
    main()
