"""Command-line surface: check, classify, oracle, selftest.

Exit codes: 0 success, 1 failed checks or a violated classification,
2 usage/parse errors or unwritable certificates, 3 unresolved weight tables.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

from .candidates import CandidateFormatError, json_text, load_candidate
from .checker import CheckReport, check_conditions, equivariance_test
from .ladder import TheoremViolation, UnresolvedRemains, verify_theorem
from .numeric import minimize
from .selftest import run_selftest
from .weights import WeightData

MAX_P = 16
# --emit-certs writes one file per table (1,553,816 at p = 9), so it stops lower
MAX_CERT_P = 9
_WEIGHT_LIST = re.compile(r"^-?\d+:\d+(,-?\d+:\d+)*$")


def _preprocess(argv):
    """Glue weight lists like '-1:2' onto their flag so argparse accepts them."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--plus", "--minus") and i + 1 < len(argv) and _WEIGHT_LIST.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_weight_list(raw: str, flag: str) -> dict:
    table = {}
    if not _WEIGHT_LIST.match(raw):
        raise CandidateFormatError(f"{flag}: expected weight:multiplicity pairs, got {raw!r}")
    for piece in raw.split(","):
        w, m = piece.split(":")
        weight, mult = int(w), int(m)
        if mult < 1:
            raise CandidateFormatError(f"{flag}: multiplicity for weight {weight} must be positive")
        if weight in table:
            raise CandidateFormatError(f"{flag}: weight {weight} given twice")
        table[weight] = mult
    return table


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every run reuses it."""
    parser = argparse.ArgumentParser(
        prog="geodesy",
        description="Verify and classify equivariant embeddings su(1,1) -> su(p,p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a candidate embedding file")
    p_check.add_argument("path", help="candidate JSON file")
    p_check.add_argument("--json", action="store_true", help="machine-readable report")

    p_classify = sub.add_parser("classify", help="classify all weight tables for a rank")
    p_classify.add_argument("p", type=int, help=f"rank, 1..{MAX_P}")
    p_classify.add_argument("--max-weight", type=int, default=None)
    p_classify.add_argument("--json", action="store_true")
    p_classify.add_argument("--emit-certs", metavar="DIR", default=None,
                            help=f"write one certificate per table (p up to {MAX_CERT_P})")

    p_oracle = sub.add_parser("oracle", help="numeric residual minimization for a pattern")
    p_oracle.add_argument("p", type=int, nargs="?", default=None,
                          help="shorthand for the full-rank +/-1 pattern")
    p_oracle.add_argument("--plus", default=None, help="weight:multiplicity list for the plus block")
    p_oracle.add_argument("--minus", default=None, help="weight:multiplicity list for the minus block")
    p_oracle.add_argument("--restarts", type=int, default=20)
    p_oracle.add_argument("--seed", type=int, default=0)

    sub.add_parser("selftest", help="run the exact invariant suite")
    return parser


def _report_json(path: str, p: int, report: CheckReport, equivariant: bool) -> dict:
    doc = {
        "path": path,
        "p": p,
        "is_homomorphism": report.is_homomorphism,
        "satisfies_c1": report.satisfies_c1,
        "satisfies_c3": report.satisfies_c3,
        "injective": report.injective,
        "totally_geodesic": report.totally_geodesic,
        "equivariant_components": equivariant,
        "passed": report.passed,
        "failures": list(report.failures),
    }
    for name in ("fc_u", "fc_v", "fp_u", "fp_v"):
        doc[name] = getattr(report, name)  # a GaussMatrix or None, as json_text writes them
    if report.h_spectrum is not None:
        doc["weight_spectrum"] = report.h_spectrum.to_json_dict()
    else:
        doc["weight_spectrum"] = None
    if report.h_spectrum_error:
        doc["weight_spectrum_error"] = report.h_spectrum_error
    return doc


def _emit(doc: dict) -> None:
    print(json_text(doc))


def cmd_check(args) -> int:
    try:
        candidate = load_candidate(args.path)
    except FileNotFoundError:
        print(f"error: no such file: {args.path}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: cannot read {args.path}: {err.strerror}", file=sys.stderr)
        return 2
    except CandidateFormatError as err:
        print(f"error: {args.path}: {err}", file=sys.stderr)
        return 2
    report = check_conditions(candidate)
    equivariant = equivariance_test(candidate, report) if report.passed else False
    if args.json:
        _emit(_report_json(args.path, candidate.shape.p, report, equivariant))
    else:
        yn = lambda b: "yes" if b else "no"
        print(f"candidate: {args.path} (p={candidate.shape.p})")
        print(f"homomorphism: {yn(report.is_homomorphism)}")
        print(f"condition (1) compact image of w: {yn(report.satisfies_c1)}")
        print(f"condition (3) complex-structure equivariance: {yn(report.satisfies_c3)}")
        print(f"injective: {yn(report.injective)}")
        print(f"component equivariance: {yn(equivariant)}")
        print(f"totally geodesic: {yn(report.totally_geodesic)}")
        if report.h_spectrum is not None:
            print(f"weight spectrum: {report.h_spectrum.describe()}")
        for failure in report.failures:
            print(f"failure: {failure}")
    return 0 if report.passed else 1


class DigestCollision(Exception):
    """Two tables would be written to the same certificate file."""


def write_certificates(results, directory: Path) -> None:
    """Write one certificate per table into directory, named by the table's digest.

    Each file is written under a temporary name in the same directory and
    renamed into place, so a reader never sees a partial certificate.
    Raises DigestCollision when a second table has a digest already written.
    """
    directory.mkdir(parents=True, exist_ok=True)
    written = set()
    for result in results:
        digest = result.weight_data.digest()
        path = directory / f"{digest}.json"
        if digest in written:
            # only digests are kept; the first table is read back from its file
            first = json.loads(path.read_text(encoding="utf-8"))["weight_data"]
            raise DigestCollision(
                f"tables {WeightData.from_json_dict(first).describe()} and "
                f"{result.weight_data.describe()} share the certificate name {path.name}"
            )
        written.add(digest)
        tmp = directory / f".{digest}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json_text(result.to_json_dict()) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def cmd_classify(args) -> int:
    if not (1 <= args.p <= MAX_P):
        print(f"error: p must be between 1 and {MAX_P}", file=sys.stderr)
        return 2
    if args.max_weight is not None and args.max_weight < 1:
        print("error: --max-weight must be at least 1", file=sys.stderr)
        return 2
    if args.emit_certs == "":
        print("error: --emit-certs needs a directory", file=sys.stderr)
        return 2
    if args.emit_certs is not None and args.p > MAX_CERT_P:
        print(f"error: --emit-certs takes p between 1 and {MAX_CERT_P}", file=sys.stderr)
        return 2
    try:
        summary = verify_theorem(args.p, max_weight=args.max_weight)
    except UnresolvedRemains as err:
        print(f"error: unresolved weight tables remain: {err}", file=sys.stderr)
        return 3
    except TheoremViolation as err:
        print(f"error: classification violated: {err}", file=sys.stderr)
        return 1
    if args.emit_certs is not None:
        try:
            write_certificates(summary.results(), Path(args.emit_certs))
        except DigestCollision as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        except OSError as err:
            print(f"error: cannot write certificates to {args.emit_certs}: {err.strerror}", file=sys.stderr)
            return 2
    if args.json:
        _emit(summary.to_json_dict())
    else:
        print(f"classification for p={summary.p} (max weight {summary.max_weight})")
        print(f"enumerated: {summary.enumerated}")
        print(f"feasible: {summary.feasible}")
        print(f"infeasible: {summary.infeasible}")
        print(f"unresolved: {summary.unresolved}")
        print("feasible classes:")
        for cls in summary.classes:
            flag = " [non-embedding]" if cls.non_embedding else ""
            notes = [f"{t.label}: U U* = U* U = {t.scale_sq}" for t in cls.terminal]
            note = f" ({'; '.join(notes)})" if notes else ""
            print(f"  {cls.label()}{flag}: {cls.weight_data.describe()}{note}")
        print("theorem verified: every feasible class has all raising blocks zero")
    if args.emit_certs is not None:
        print(f"wrote {summary.enumerated} certificates to {args.emit_certs}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    if (args.plus is None) != (args.minus is None):
        print("error: --plus and --minus must be given together", file=sys.stderr)
        return 2
    if (args.p is None) == (args.plus is None):
        print("error: give either p or --plus/--minus", file=sys.stderr)
        return 2
    if args.plus is not None:
        try:
            wd = WeightData(
                _parse_weight_list(args.plus, "--plus"),
                _parse_weight_list(args.minus, "--minus"),
            )
        except (CandidateFormatError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    elif args.p < 1:
        print("error: p must be at least 1", file=sys.stderr)
        return 2
    else:
        wd = WeightData({1: args.p}, {-1: args.p})
    if args.restarts < 1:
        print("error: --restarts must be at least 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    report = minimize(wd, restarts=args.restarts, seed=args.seed)
    print(f"pattern: {wd.describe()}")
    print(f"restarts: {report.restarts}  seed: {report.seed}")
    print(f"best restart: {report.best_restart}  iterations: {report.iterations}")
    print(f"final residual: {report.final_residual:.17e}")
    return 0


def cmd_selftest(args) -> int:
    failed = run_selftest(echo=print)
    if failed is None:
        print("selftest: all invariants hold")
        return 0
    print(f"selftest: first failing invariant: {failed}")
    return 1


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_preprocess(argv))
    if args.command == "check":
        return cmd_check(args)
    if args.command == "classify":
        return cmd_classify(args)
    if args.command == "oracle":
        return cmd_oracle(args)
    return cmd_selftest(args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
