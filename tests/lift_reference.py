"""Reference witness lift, kept only for the tests.

This is the lift the package used before it placed blocks through
``geodesy.ladder.block_cells`` on integer numerators: every entry of X
and of its partner Y was a ``GaussRational``, and each witness block was
copied in entry by entry at the spans of ``block_slot``, conjugated,
transposed and negated by hand for Y.  The block values come from the
matrix witness check of ``ladder_reference``, not from the package.
``test_candidates`` holds ``geodesy.candidates.lift_classification`` to
it on every feasible class of rank up to ``MAX_P``.
"""

from __future__ import annotations

from typing import Dict

from geodesy.algebra import SuPQShape
from geodesy.checker import EmbeddingCandidate
from geodesy.gaussmat import GaussMatrix, GaussRational, I
from geodesy.ladder import DatumClassification, block_slot
from ladder_reference import instantiate_witness

ZERO = GaussRational(0)


def _place(entries: list, n: int, r0: int, c0: int, block: GaussMatrix, conj: bool, negate: bool):
    src = block.conj_transpose() if conj else block
    if negate:
        src = -src
    for i in range(src.rows):
        for j in range(src.cols):
            entries[(r0 + i) * n + (c0 + j)] = src[i, j]


def lift_classification(result: DatumClassification) -> EmbeddingCandidate:
    """F(u) = X + Y, F(v) = i(X - Y), F(w) = i H for a feasible result."""
    wd = result.weight_data
    p = wd.dim_plus
    n = 2 * p
    layout = wd.layout()

    values: Dict[str, GaussMatrix] = {}
    for system, verdict in ((result.odd_system, result.odd), (result.even_system, result.even)):
        values.update(instantiate_witness(system, verdict.witness))
    blocks = {**result.odd_system.blocks(), **result.even_system.blocks()}

    x_entries = [ZERO] * (n * n)
    y_entries = list(x_entries)
    for label, value in sorted(values.items()):
        (r0, _), (c0, _), sign = block_slot(blocks[label], layout)
        _place(x_entries, n, r0, c0, value, conj=False, negate=False)
        # the partner matrix carries sign * U* at the mirrored slot
        _place(y_entries, n, c0, r0, value, conj=True, negate=sign < 0)

    x = GaussMatrix([x_entries[i * n : (i + 1) * n] for i in range(n)])
    y = GaussMatrix([y_entries[i * n : (i + 1) * n] for i in range(n)])
    h = GaussMatrix.diagonal(layout.weight_vector())
    return EmbeddingCandidate(shape=SuPQShape(p), f_u=x + y, f_v=(x - y) * I, f_w=h * I)
