"""Reference entry codec of the candidate wire format, kept only for the tests.

These are the per-entry routines the package used before it parsed
matrices straight into integer numerators and printed them straight from
them: every entry became two ``Fraction``s and one ``GaussRational`` on
the way in, and was read back from one on the way out.  The property
tests hold ``geodesy.candidates`` to them: the same matrices, the same
wire lists and the same ``CandidateFormatError`` messages.  The tests
also build candidate documents as plain lists with them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from geodesy.candidates import CandidateFormatError
from geodesy.checker import EmbeddingCandidate
from geodesy.gaussmat import GaussMatrix, GaussRational


def _entry_to_json(g: GaussRational) -> List[str]:
    return [
        str(g.re.numerator),
        str(g.re.denominator),
        str(g.im.numerator),
        str(g.im.denominator),
    ]


def _entry_from_json(raw, where: str) -> GaussRational:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise CandidateFormatError(f"{where}: entry must be a 4-item list")
    parts = []
    for k, piece in enumerate(raw):
        if isinstance(piece, bool) or not isinstance(piece, (str, int)):
            raise CandidateFormatError(f"{where}[{k}]: expected a decimal integer string")
        # int() alone would also take blanks, underscores, '+' and non-ASCII digits
        if isinstance(piece, str) and not (piece.isascii() and piece.lstrip("-").isdigit()):
            raise CandidateFormatError(f"{where}[{k}]: {piece!r} is not a decimal integer")
        try:
            parts.append(int(piece))
        except ValueError:  # '--1', or more digits than the interpreter converts
            raise CandidateFormatError(f"{where}[{k}]: {piece!r} is not a decimal integer")
    if parts[1] == 0 or parts[3] == 0:
        raise CandidateFormatError(f"{where}: zero denominator")
    return GaussRational(Fraction(parts[0], parts[1]), Fraction(parts[2], parts[3]))


def _matrix_to_json(m: GaussMatrix) -> list:
    return [[_entry_to_json(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def candidate_to_json_dict(c: EmbeddingCandidate) -> dict:
    """The candidate document, as ``save_candidate`` writes it, as lists."""
    return {"p": c.shape.p, "f_u": _matrix_to_json(c.f_u), "f_v": _matrix_to_json(c.f_v), "f_w": _matrix_to_json(c.f_w)}


def _matrix_from_json(raw, n: int, name: str) -> GaussMatrix:
    if not isinstance(raw, list) or len(raw) != n:
        raise CandidateFormatError(f"{name}: expected {n} rows")
    data = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise CandidateFormatError(f"{name}[{i}]: expected {n} entries")
        data.append([_entry_from_json(e, f"{name}[{i}][{j}]") for j, e in enumerate(row)])
    return GaussMatrix(data)
