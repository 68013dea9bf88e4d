"""Hypothesis strategies for exact matrices, shared by the test modules.

Entries mix small rationals, which collide and cancel, with large ones
that carry big, unequal denominators; a sixth of the matrices are zero
and half the rest are sparse.  ``upp_elements`` draws elements of u(p,p),
the matrices that ``bracket`` multiplies only once, and ``near_misses``
moves one entry of such an element off u(p,p).
"""

from fractions import Fraction

from hypothesis import strategies as st

from geodesy.gaussmat import GaussMatrix, GaussRational

SIZES = st.integers(1, 4)
ZERO = GaussRational(0)

small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
large = st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(1, 10**12))
rationals = st.one_of(st.just(Fraction(0)), small, large)
gaussians = st.builds(GaussRational, rationals, rationals)


@st.composite
def matrices(draw, rows, cols):
    if draw(st.integers(0, 5)) == 0:
        return GaussMatrix.zeros(rows, cols)
    sparse = draw(st.booleans())
    entry = st.one_of(st.just(ZERO), st.just(ZERO), gaussians) if sparse else gaussians
    return GaussMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)])


def _upp_part(draw, p: int, kind: str) -> GaussMatrix:
    """A k part (A 0; 0 B) with A and B skew-Hermitian, or a p part
    (0 Z; Z* 0), of size 2p."""
    n = 2 * p
    rows = [[ZERO] * n for _ in range(n)]
    if kind == "k":
        for base in (0, p):
            for i in range(base, base + p):
                rows[i][i] = GaussRational(0, draw(rationals))
                for j in range(i + 1, base + p):
                    z = draw(gaussians)
                    rows[i][j], rows[j][i] = z, -z.conjugate()
    else:
        for i in range(p):
            for j in range(p, n):
                z = draw(gaussians)
                rows[i][j], rows[j][i] = z, z.conjugate()
    return GaussMatrix(rows)


@st.composite
def upp_elements(draw, p):
    """An element X = -J X* J of u(p,p), J = diag(I_p, -I_p): a k part, a p
    part, the sum of one of each over their own denominators, or zero."""
    kind = draw(st.sampled_from(["k", "p", "sum", "zero"]))
    if kind == "zero":
        return GaussMatrix.zeros(2 * p, 2 * p)
    if kind == "sum":
        return _upp_part(draw, p, "k") + _upp_part(draw, p, "p")
    return _upp_part(draw, p, kind)


@st.composite
def near_misses(draw, p):
    """An element of u(p,p) with one entry moved off it: a real shift on the
    diagonal, any nonzero shift elsewhere (its mirror entry stays)."""
    m = draw(upp_elements(p))
    n = 2 * p
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    shift = GaussRational(draw(st.one_of(small, large).filter(bool))) if i == j else draw(gaussians.filter(bool))
    rows = [list(m.row(r)) for r in range(n)]
    rows[i][j] = rows[i][j] + shift
    return GaussMatrix(rows)
