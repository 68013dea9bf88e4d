"""Hypothesis strategies for exact matrices, shared by the test modules.

Entries mix small rationals, which collide and cancel, with large ones
that carry big, unequal denominators; a sixth of the matrices are zero
and half the rest are sparse.
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
