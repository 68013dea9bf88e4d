"""Seeded exact random elements for the invariant suites.

Everything here produces Gaussian rational data from a stdlib Random
stream, so the property checks downstream run at zero tolerance.

Every entry takes four draws of ``randint``'s stream, in this order: the real
numerator in [-SPAN, SPAN], its denominator in [1, MAX_DEN], then the
imaginary numerator and its denominator; a matrix draws its entries row
by row.  The numerators are brought straight over ``DEN``, the lcm of
every denominator that can be drawn, and the matrix is reduced once.
The k and p elements are assembled from these integers.  The
k, p and su(p,p) elements are members of u(p,p) by construction, so they
carry the member mark (``gaussmat._member``) and ``bracket`` never tests
them.  ``integer_diagonalizable`` draws matrices until one inverts and
keeps the inverse that showed it, so each draw is inverted once.
"""

from __future__ import annotations

import random
from math import lcm

from .algebra import SuPQShape
from .gaussmat import GaussMatrix, _member

SPAN = 3
MAX_DEN = 3
DEN = lcm(*range(1, MAX_DEN + 1))


def _draw(rng: random.Random, count: int) -> tuple:
    """The real and imaginary numerators over DEN of count drawn entries.

    ``a + below(b - a + 1)`` is what ``rng.randint(a, b)`` returns, with the
    same draws from the stream, at about half the cost of the public call;
    the tests hold the two streams equal."""
    below = rng._randbelow
    re, im = [], []
    for _ in range(count):
        re.append((below(2 * SPAN + 1) - SPAN) * (DEN // (1 + below(MAX_DEN))))
        im.append((below(2 * SPAN + 1) - SPAN) * (DEN // (1 + below(MAX_DEN))))
    return re, im


def _skew(rng: random.Random, n: int) -> tuple:
    """The numerators over 2 * DEN of (m - m*) / 2 for a drawn n x n m."""
    re, im = _draw(rng, n * n)
    pairs = [(i * n + j, j * n + i) for i in range(n) for j in range(n)]
    return [re[k] - re[t] for k, t in pairs], [im[k] + im[t] for k, t in pairs]


def matrix(rng: random.Random, rows: int, cols: int | None = None) -> GaussMatrix:
    cols = rows if cols is None else cols
    return GaussMatrix._from_ints(rows, cols, DEN, *_draw(rng, rows * cols))


def su_pp(rng: random.Random, shape: SuPQShape) -> GaussMatrix:
    """A random element of su(p,p): a random k part plus a random p part."""
    return _member(k_part(rng, shape) + p_part(rng, shape))


def _quadrants(p: int, ul, ur, ll, lr) -> list:
    """The row-major numerators of (UL UR; LL LR) from those of its p x p
    quadrants; None stands for a zero quadrant."""
    zeros = [0] * (p * p)
    out = []
    for left, right in ((ul, ur), (ll, lr)):
        left, right = (zeros if q is None else q for q in (left, right))
        for i in range(0, p * p, p):
            out += left[i : i + p]
            out += right[i : i + p]
    return out


def p_part(rng: random.Random, shape: SuPQShape) -> GaussMatrix:
    """(0 Z; Z* 0) for a drawn p x p Z."""
    p = shape.p
    zr, zi = _draw(rng, p * p)
    # row j of Z* is the conjugate of column j of Z
    adj_re = [x for j in range(p) for x in zr[j::p]]
    adj_im = [-x for j in range(p) for x in zi[j::p]]
    re = _quadrants(p, None, zr, adj_re, None)
    im = _quadrants(p, None, zi, adj_im, None)
    return _member(GaussMatrix._from_ints(2 * p, 2 * p, DEN, re, im))


def k_part(rng: random.Random, shape: SuPQShape) -> GaussMatrix:
    """(A 0; 0 B) for drawn skew-Hermitian A and B, with tr A + tr B taken
    off B's corner."""
    p = shape.p
    ar, ai = _skew(rng, p)
    br, bi = _skew(rng, p)
    br[0] -= sum(ar[:: p + 1]) + sum(br[:: p + 1])
    bi[0] -= sum(ai[:: p + 1]) + sum(bi[:: p + 1])
    re = _quadrants(p, ar, None, None, br)
    im = _quadrants(p, ai, None, None, bi)
    return _member(GaussMatrix._from_ints(2 * p, 2 * p, 2 * DEN, re, im))


def integer_diagonalizable(rng: random.Random, n: int):
    """A matrix with known integer spectrum: S diag(d) S^-1 for d drawn
    from [-2, 2], plus the spectrum.  S is the first drawn matrix that
    inverts; the inverse that tests it is the one used."""
    diag = [rng.randint(-2, 2) for _ in range(n)]
    while True:
        s = matrix(rng, n)
        try:
            inverse = s.inverse()
            break
        except ValueError:
            continue
    a = s @ GaussMatrix.diagonal(diag) @ inverse
    spectrum: dict = {}
    for d in diag:
        spectrum[d] = spectrum.get(d, 0) + 1
    return a, spectrum
