"""Command-line surface: check, classify, oracle, selftest.

COMMANDS lists each command's arguments, and parse_args reads an argument
list against that table; run never raises SystemExit.

Exit codes: 0 success, 1 failed checks or a violated classification,
2 usage/parse errors or unwritable certificates, 3 unresolved weight tables.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

from .candidates import CandidateFormatError, json_text, load_candidate
from .checker import CheckReport, check_conditions, equivariance_test
from .ladder import TheoremViolation, UnresolvedRemains, verify_theorem
from .numeric import minimize
from .selftest import run_selftest
from .weights import DECIMAL, WeightData

MAX_P = 16
# --emit-certs writes one file per table (1,553,816 at p = 9), so it stops lower
MAX_CERT_P = 9
# The oracle computes in floats, which hold every integer up to 2**53 in
# magnitude exactly; past it neighbouring weights round to one float, and
# the oracle would minimize another table than the one it prints.  The
# fourth powers its line search takes stay far inside the float range.
MAX_WEIGHT = 2**53

# command -> (help, positionals, options).  A positional is (name, type,
# required, help); an option maps its flag to (type, default, metavar,
# help), type None for a flag that takes no value.  A parsed value is
# stored under the positional's name or under the flag without its "--",
# with "_" for "-".
COMMANDS = {
    "check": (
        "validate a candidate embedding file",
        [("path", str, True, "candidate JSON file")],
        {"--json": (None, False, None, "machine-readable report")},
    ),
    "classify": (
        "classify all weight tables for a rank",
        [("p", int, True, f"rank, 1..{MAX_P}")],
        {
            "--json": (None, False, None, "machine-readable report"),
            "--emit-certs": (str, None, "DIR", f"write one certificate per table (p up to {MAX_CERT_P})"),
        },
    ),
    "oracle": (
        "numeric residual minimization for a pattern",
        [("p", int, False, "shorthand for the full-rank +/-1 pattern")],
        {
            "--plus": (str, None, "LIST", "weight:multiplicity list for the plus block"),
            "--minus": (str, None, "LIST", "weight:multiplicity list for the minus block"),
            "--restarts": (int, 20, "N", "descent restarts (default 20)"),
            "--seed": (int, 0, "N", "seed of the starting points (default 0)"),
        },
    ),
    "selftest": ("run the exact invariant suite", [], {}),
}
_HELP = ("-h", "--help")


class UsageError(Exception):
    """An argument list that names no command or does not fit its command."""


class HelpRequested(Exception):
    """-h or --help; the message is the usage text."""


def usage(command: str | None = None) -> str:
    """The usage text of a command, or of the program when command is None."""
    if command is None:
        lines = [
            f"usage: geodesy {{{','.join(COMMANDS)}}} ...",
            "",
            "Verify and classify equivariant embeddings su(1,1) -> su(p,p).",
            "",
            "commands:",
            *(f"  {name:<10}{about}" for name, (about, _, _) in COMMANDS.items()),
            "",
            "Run geodesy COMMAND -h for the arguments of a command.",
        ]
        return "\n".join(lines)
    about, positionals, options = COMMANDS[command]
    spelled = [(f"{flag} {metavar}" if metavar else flag, text) for flag, (_, _, metavar, text) in options.items()]
    words = [name if required else f"[{name}]" for name, _, required, _ in positionals] + [f"[{o}]" for o, _ in spelled]
    rows = [(name, text) for name, _, _, text in positionals] + spelled + [("-h, --help", "show this help and exit")]
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join(
        [f"usage: geodesy {command} {' '.join(words)}".rstrip(), "", about, "", *(f"  {n:<{width}}{t}" for n, t in rows)]
    )


def _dest(flag: str) -> str:
    """The attribute of an option's value: --emit-certs gives emit_certs."""
    return flag[2:].replace("-", "_")


def _convert(kind, raw: str, where: str):
    """raw as an int or a str; an int is written as weights.DECIMAL."""
    if kind is str:
        return raw
    if DECIMAL.fullmatch(raw):
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    raise UsageError(f"{where}: invalid int value: {raw!r}")


def parse_args(argv) -> SimpleNamespace:
    """The command and its arguments.  An option is matched by its exact
    name and takes its value from "=" or from the next argument, which may
    not start with "--"; an argument that starts with "-" is an option
    unless it is "-" or a negative integer, and every argument after "--"
    is positional.  Raises UsageError or HelpRequested."""
    if not argv:
        raise UsageError(f"no command given (choose from {', '.join(COMMANDS)})")
    command, *rest = argv
    if command in _HELP:
        raise HelpRequested(usage())
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r} (choose from {', '.join(COMMANDS)})")
    _, positionals, options = COMMANDS[command]
    if any(arg in _HELP for arg in rest[: rest.index("--") if "--" in rest else None]):
        raise HelpRequested(usage(command))
    values = {_dest(flag): default for flag, (_, default, _, _) in options.items()}
    given = []
    tokens = iter(rest)
    for arg in tokens:
        if arg == "--":
            given += tokens
        elif arg.startswith("-") and arg != "-" and not DECIMAL.fullmatch(arg):
            flag, eq, value = arg.partition("=")
            if flag not in options:
                raise UsageError(f"{command}: unrecognized option {flag!r}")
            kind = options[flag][0]
            if kind is None and eq:
                raise UsageError(f"{command}: {flag} takes no value")
            if kind is not None and not eq:
                value = next(tokens, "--")
                if value.startswith("--"):
                    raise UsageError(f"{command}: {flag} needs a value")
            values[_dest(flag)] = True if kind is None else _convert(kind, value, f"{command}: {flag}")
        else:
            given.append(arg)
    if len(given) > len(positionals):
        raise UsageError(f"{command}: unexpected argument {given[len(positionals)]!r}")
    for (name, kind, required, _), raw in zip_longest(positionals, given):
        if raw is None and required:
            raise UsageError(f"{command}: missing argument {name}")
        values[name] = None if raw is None else _convert(kind, raw, f"{command}: {name}")
    return SimpleNamespace(command=command, **values)


def _parse_weight_list(raw: str, flag: str) -> dict:
    table = {}
    for piece in raw.split(","):
        w, colon, m = piece.partition(":")
        if not (colon and DECIMAL.fullmatch(w) and DECIMAL.fullmatch(m)):
            raise ValueError(f"{flag}: expected weight:multiplicity pairs, got {raw!r}")
        try:
            weight, mult = int(w), int(m)
        except ValueError:  # more digits than int() converts
            raise ValueError(f"{flag}: too many digits in {piece!r}") from None
        if abs(weight) > MAX_WEIGHT:
            raise ValueError(f"{flag}: weight {weight} is past 2**53 in magnitude, so a float cannot hold it exactly")
        if mult < 1:
            raise ValueError(f"{flag}: multiplicity for weight {weight} must be positive")
        if weight in table:
            raise ValueError(f"{flag}: weight {weight} given twice")
        table[weight] = mult
    return table


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
    if args.emit_certs == "":
        print("error: --emit-certs needs a directory", file=sys.stderr)
        return 2
    if args.emit_certs is not None and args.p > MAX_CERT_P:
        print(f"error: --emit-certs takes p between 1 and {MAX_CERT_P}", file=sys.stderr)
        return 2
    try:
        summary = verify_theorem(args.p)
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
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        if max(wd.dim_plus, wd.dim_minus) > MAX_P:
            print(f"error: --plus and --minus each take at most {MAX_P} dimensions", file=sys.stderr)
            return 2
    elif not 1 <= args.p <= MAX_P:
        print(f"error: p must be between 1 and {MAX_P}", file=sys.stderr)
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
    """Run one command line and return its exit code: a usage error prints
    one "error:" line and returns 2, -h or --help prints usage and returns 0."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except HelpRequested as help_:
        print(help_)
        return 0
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
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
