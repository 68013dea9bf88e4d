"""Candidate files, reference embeddings, and the witness-to-candidate lift.

The JSON wire format stores every matrix entry as four decimal integer
strings [re_num, re_den, im_num, im_den], which crosses the file boundary
without any rounding.  A matrix is read straight into the integer form of
``GaussMatrix``: all pieces of a matrix are checked at once against one
decimal pattern and converted to ints, brought over the lcm of the
denominators and reduced once, so files may hold unreduced entries and
negative denominators.  Only a matrix that fails the check is read again
entry by entry, to name its first defect.  It is written straight from
that form, each part in lowest terms with a positive denominator:
``json_text`` writes every JSON document of the package, and a
``GaussMatrix`` placed in a document is written from its integers with
one format per matrix, without building the nested lists of strings.

The lift of a feasible classification reads its witnesses through
``ladder.witness_blocks`` alone and writes the triple in integers over
den 1; this module is the only place a witness takes matrix form.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import INFINITY
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from operator import add, floordiv, sub
from typing import List

from .algebra import SuPQShape
from .checker import EmbeddingCandidate
from .gaussmat import GaussMatrix, I
from .ladder import DatumClassification, WitnessError, block_cells, witness_blocks
from .weights import DECIMAL, DECIMALS


class CandidateFormatError(ValueError):
    """Malformed candidate document; the message carries a field diagnostic."""


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, of doc
    with each ``GaussMatrix`` in it replaced by its wire lists.

    The standard library falls back to its pure-Python encoder whenever
    ``indent`` is set, and cannot write a ``GaussMatrix`` at all.  This
    writer walks the document the same way, and writes a ``GaussMatrix``
    straight from its integers through ``_matrix_text``, one format per
    matrix.  Tuples are written as lists.
    """
    out: List[str] = []
    _write(doc, out, "\n")
    return "".join(out)


def _scalar(x) -> str:
    """A JSON scalar, or a dict key that is not a string, as json writes it."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == INFINITY:
            return "Infinity"
        if x == -INFINITY:
            return "-Infinity"
        return float.__repr__(x)
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _write(x, out: List[str], nl: str) -> None:
    """Append x to out; nl is a newline plus the indent of x's own line."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, v in sorted(x.items()):
            out.append(sep + _quote(key if isinstance(key, str) else _scalar(key)) + ": ")
            _write(v, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(x, GaussMatrix):
        out.append(_matrix_text(x, nl))
    else:
        out.append(_scalar(x))


def _matrix_text(m: GaussMatrix, nl: str) -> str:
    """The wire matrix m, rows of entries of four decimal strings, each part
    in lowest terms, as ``json_text`` writes it on a line indented as nl, a
    newline plus the indent: one template per matrix, filled by one %."""
    d, re, im = m.den, m.re_num, m.im_num
    ints = [1] * (4 * len(re))  # re_num, re_den, im_num, im_den, entry after entry
    if d == 1:
        ints[0::4], ints[2::4] = re, im
    else:
        dens = [d] * len(re)
        g, h = list(map(gcd, re, dens)), list(map(gcd, im, dens))
        ints[0::4], ints[1::4] = map(floordiv, re, g), map(floordiv, dens, g)
        ints[2::4], ints[3::4] = map(floordiv, im, h), map(floordiv, dens, h)
    row_nl, entry_nl, piece_nl = nl + "  ", nl + "    ", nl + "      "
    entry = "[" + piece_nl + ("," + piece_nl).join(['"%d"'] * 4) + entry_nl + "]"
    row = "[" + entry_nl + ("," + entry_nl).join([entry] * m.cols) + row_nl + "]"
    text = "[" + row_nl + ("," + row_nl).join([row] * m.rows) + nl + "]"
    return text % tuple(ints)


def _entry_from_json(raw, where: str) -> List[int]:
    """The four pieces of one wire entry as ints, denominators nonzero."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise CandidateFormatError(f"{where}: entry must be a 4-item list")
    parts = []
    for k, piece in enumerate(raw):
        if isinstance(piece, bool) or not isinstance(piece, (str, int)):
            raise CandidateFormatError(f"{where}[{k}]: expected a decimal integer string")
        try:
            # int() alone would also take blanks, underscores, '+' and
            # non-ASCII digits; it refuses more digits than it converts
            if isinstance(piece, str) and DECIMAL.fullmatch(piece) is None:
                raise ValueError
            parts.append(int(piece))
        except ValueError:
            raise CandidateFormatError(f"{where}[{k}]: {piece!r} is not a decimal integer")
    if parts[1] == 0 or parts[3] == 0:
        raise CandidateFormatError(f"{where}: zero denominator")
    return parts


def _pieces(raw: list, n: int):
    """The pieces of a wire matrix of n rows, each of n entries of decimal
    strings, as ints in order; None when it has another form or a defect."""
    if set(map(type, raw)) != {list} or set(map(len, raw)) != {n}:
        return None
    entries = list(chain.from_iterable(raw))
    if not set(map(type, entries)) <= {list, tuple} or set(map(len, entries)) != {4}:
        return None
    pieces = list(chain.from_iterable(entries))
    try:
        if DECIMALS.fullmatch(",".join(pieces)) is None:
            return None
        ints = list(map(int, pieces))
    except (TypeError, ValueError):  # a piece that is no string, or more digits than int() converts
        return None
    return None if 0 in ints[1::4] or 0 in ints[3::4] else ints


def _matrix_from_json(raw, n: int, name: str) -> GaussMatrix:
    if not isinstance(raw, list) or len(raw) != n:
        raise CandidateFormatError(f"{name}: expected {n} rows")
    pieces = _pieces(raw, n)
    if pieces is None:  # entry by entry, to name the first defect
        pieces = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != n:
                raise CandidateFormatError(f"{name}[{i}]: expected {n} entries")
            for j, e in enumerate(row):
                try:
                    pieces += _entry_from_json(e, "")
                except CandidateFormatError as err:  # every message starts with `where`
                    raise CandidateFormatError(f"{name}[{i}][{j}]{err}") from None
    re_num, re_den, im_num, im_den = (pieces[k::4] for k in range(4))
    # den // b is negative for a negative denominator b: the sign moves up
    den = lcm(*re_den, *im_den)
    re = [a * (den // b) for a, b in zip(re_num, re_den)]
    im = [a * (den // b) for a, b in zip(im_num, im_den)]
    return GaussMatrix._from_ints(n, n, den, re, im)


def candidate_from_json_dict(doc) -> EmbeddingCandidate:
    if not isinstance(doc, dict):
        raise CandidateFormatError("top level: expected an object")
    if "p" not in doc:
        raise CandidateFormatError("top level: missing field 'p'")
    p = doc["p"]
    if isinstance(p, bool) or not isinstance(p, int) or p < 1:
        raise CandidateFormatError("p: must be a positive integer")
    if p.bit_length() > 64:  # no file holds 2p rows, and 2p may not print
        raise CandidateFormatError("p: too large")
    n = 2 * p
    mats = {}
    for name in ("f_u", "f_v", "f_w"):
        if name not in doc:
            raise CandidateFormatError(f"top level: missing field '{name}'")
        mats[name] = _matrix_from_json(doc[name], n, name)
    try:
        return EmbeddingCandidate(shape=SuPQShape(p), **mats)
    except ValueError as err:
        raise CandidateFormatError(str(err))


def save_candidate(c: EmbeddingCandidate, path) -> None:
    doc = {"p": c.shape.p, "f_u": c.f_u, "f_v": c.f_v, "f_w": c.f_w}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(doc) + "\n")


def load_candidate(path) -> EmbeddingCandidate:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise CandidateFormatError(f"line {err.lineno}, column {err.colno}: {err.msg}")
        except UnicodeDecodeError as err:
            raise CandidateFormatError(f"byte {err.start}: not UTF-8 text ({err.reason})")
        except ValueError as err:  # an integer literal too long to convert
            reason = str(err).split(":")[0]  # the rest names an interpreter setting
            raise CandidateFormatError(f"not valid JSON: {reason}")
        except RecursionError:
            raise CandidateFormatError("not valid JSON: arrays or objects nested too deeply")
    return candidate_from_json_dict(doc)


# ----------------------------------------------------------------------
# Reference embeddings


def embedding_with_rank(p: int, m: int) -> EmbeddingCandidate:
    """m copies of the standard representation padded by 2(p - m) trivials.

    The images are built from the projection D = diag(1,...,1,0,...,0):
    F(u) = (0 D; D 0), F(v) = (0 iD; -iD 0), F(w) = (iD 0; 0 -iD).
    """
    if not (0 <= m <= p):
        raise ValueError("need 0 <= m <= p")
    d = GaussMatrix.diagonal([1] * m + [0] * (p - m))
    zero = GaussMatrix.zeros(p, p)
    f_u = GaussMatrix.block([[zero, d], [d, zero]])
    f_v = GaussMatrix.block([[zero, d * I], [d * (-I), zero]])
    f_w = GaussMatrix.block([[d * I, zero], [zero, d * (-I)]])
    return EmbeddingCandidate(shape=SuPQShape(p), f_u=f_u, f_v=f_v, f_w=f_w)


def diagonal_candidate(p: int) -> EmbeddingCandidate:
    return embedding_with_rank(p, p)


def standard_trivial_candidate(p: int) -> EmbeddingCandidate:
    return embedding_with_rank(p, 1)


# ----------------------------------------------------------------------
# Witness lift


def lift_classification(result: DatumClassification) -> EmbeddingCandidate:
    """Assemble the candidate realized by a feasible classification.

    A witness makes every block 0 or I (ladder.witness_blocks), so the lift
    is integers over den 1: X holds a 1 on the diagonal cells of each
    identity block and Y the partner sign at the mirrored cells
    (ladder.block_cells).  The triple is F(u) = X + Y, F(v) = i(X - Y),
    F(w) = i H with H the diagonal weight operator.
    """
    if result.status != "feasible":
        raise WitnessError("only feasible classifications lift to a candidate")
    wd = result.weight_data
    if wd.dim_plus != wd.dim_minus:
        raise WitnessError("lift needs equal block dimensions")
    p = wd.dim_plus
    n = 2 * p
    layout = wd.layout()

    x, y, h, zero = ([0] * (n * n) for _ in range(4))
    for system, verdict in ((result.odd_system, result.odd), (result.even_system, result.even)):
        for key, (_, rows, _, identity) in witness_blocks(system, verdict.witness).items():
            if identity:
                _, x_cells, y_cells, sign = block_cells(key, layout)
                for kx, ky in zip(x_cells[:: rows + 1], y_cells[:: rows + 1]):
                    # the partner matrix carries sign * U* at the mirrored slot
                    x[kx], y[ky] = 1, sign
    h[:: n + 1] = layout.weight_vector()
    f_u = GaussMatrix._from_ints(n, n, 1, map(add, x, y), zero)
    f_v = GaussMatrix._from_ints(n, n, 1, zero, map(sub, x, y))
    f_w = GaussMatrix._from_ints(n, n, 1, zero, h)
    return EmbeddingCandidate(shape=SuPQShape(p), f_u=f_u, f_v=f_v, f_w=f_w)
