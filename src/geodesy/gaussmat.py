"""Exact dense linear algebra over the Gaussian rationals.

Scalars are ``GaussRational`` a + b*i with a, b arbitrary-precision
rationals.  A ``GaussMatrix`` stores one positive common denominator and
the real and imaginary integer numerators of its entries, reduced so that
the denominator and all numerators share no factor; that form is unique,
so matrix equality is equality of integers.  Products, sums and scalar
multiples work on plain Python ints and reduce once per matrix, and the
entries come back as ``GaussRational``s in lowest terms only when asked
for.

A commutator ab - ba of two elements of u(p,p), the X with X = -J X* J
for J = diag(I_p, -I_p), takes one product: then a* = -J a J, so
(ab)* = b* a* = (-J b J)(-J a J) = J ba J and ba = J (ab)* J, which is
ab's numerators transposed, the imaginary ones negated, and the
off-diagonal quadrants negated.  The test for u(p,p) is O(n^2) integer
comparisons, and a matrix remembers its answer (``in_u_pp``), so each is
tested at most once; a bracket of two members is marked a member without a
test, since u(p,p) is closed under the bracket.  Any other pair of square
matrices takes both products.

The inverse is a fraction-free Gauss-Jordan elimination over the Gaussian
integers (Bareiss 1968): every division in it is exact.  The
characteristic polynomial is the division-free Samuelson-Berkowitz
recurrence on the numerators.  Nothing in this module rounds: every
operation is exact, which is what makes the infeasibility certificates
produced downstream trustworthy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm, prod
from operator import add, itemgetter, matmul, mul, neg, sub
from typing import Iterable, Mapping, Sequence, Union


class NonIntegerSpectrum(ValueError):
    """The characteristic polynomial does not split into integer linear factors."""


class NotSemisimple(ValueError):
    """The product of (a - mu*I) over the distinct eigenvalues is nonzero."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float) and x.is_integer():
        return Fraction(int(x))
    raise TypeError(f"not an exact rational: {x!r}")


class GaussRational:
    """A Gaussian rational a + b*i, always in lowest terms."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    @classmethod
    def of(cls, value) -> "GaussRational":
        """Coerce an int, Fraction, complex with integral parts, or pair."""
        if isinstance(value, GaussRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, complex):
            return cls(_as_fraction(value.real), _as_fraction(value.imag))
        if isinstance(value, tuple) and len(value) == 2:
            return cls(value[0], value[1])
        raise TypeError(f"cannot coerce {value!r} to GaussRational")

    @classmethod
    def _operand(cls, value) -> "GaussRational | None":
        """value as a GaussRational, or None so that an operator can return
        NotImplemented and let the other operand (a GaussMatrix) answer."""
        if isinstance(value, GaussRational):
            return value
        try:
            return cls.of(value)
        except TypeError:
            return None

    def __add__(self, other):
        other = GaussRational._operand(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussRational._operand(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = GaussRational._operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = GaussRational._operand(other)
        if other is None:
            return NotImplemented
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRational._operand(other)
        if other is None:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = GaussRational._operand(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = GaussRational._operand(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussRational({self.re})"
        return f"GaussRational({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


I = GaussRational(0, 1)

Entry = Union[GaussRational, int, Fraction, complex, tuple]


def _pack(entries: Sequence[GaussRational]) -> tuple:
    """(den, re, im): the reduced integer form of a sequence of GaussRationals.

    The lcm of denominators of fractions in lowest terms leaves no factor
    common to it and every numerator, so no further reduction is needed.
    """
    den = lcm(*(e.re.denominator for e in entries), *(e.im.denominator for e in entries))
    re = tuple(e.re.numerator * (den // e.re.denominator) for e in entries)
    im = tuple(e.im.numerator * (den // e.im.denominator) for e in entries)
    return den, re, im


def _scalar_ints(value) -> tuple:
    """(den, re, im) with value == (re + im*i) / den in reduced form."""
    if type(value) is int:
        return 1, value, 0
    den, (re,), (im,) = _pack((GaussRational.of(value),))
    return den, re, im


class GaussMatrix:
    """Immutable dense matrix of Gaussian rationals, row-major.

    Entry k is (re_num[k] + im_num[k]*i) / den, with den > 0 sharing no
    factor with all the numerators.  ``entries``, ``m[i, j]`` and ``row``
    give GaussRationals in lowest terms, built from the integers each time
    they are asked for; ``row`` and ``m[i, j]`` build only what they return.
    ``_u_pp`` memoizes ``in_u_pp``: None until the matrix is tested.
    """

    __slots__ = ("rows", "cols", "den", "re_num", "im_num", "_u_pp")

    def __init__(self, data: Sequence[Sequence[Entry]]):
        rows = len(data)
        if rows == 0:
            raise ValueError("matrix needs at least one row")
        cols = len(data[0])
        ents = []
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            ents.extend(GaussRational.of(x) for x in r)
        self._set(rows, cols, *_pack(ents))

    def _set(self, rows, cols, den, re_num, im_num):
        setattr_ = object.__setattr__
        setattr_(self, "rows", rows)
        setattr_(self, "cols", cols)
        setattr_(self, "den", den)
        setattr_(self, "re_num", re_num)
        setattr_(self, "im_num", im_num)
        setattr_(self, "_u_pp", None)

    def __setattr__(self, name, value):
        raise AttributeError("GaussMatrix is immutable")

    @classmethod
    def _from_ints(cls, rows: int, cols: int, den: int, re, im, reduced: bool = False) -> "GaussMatrix":
        """A matrix from integer numerator sequences over den > 0.

        Divides out the common factor unless the caller knows there is none.
        """
        re, im = tuple(re), tuple(im)
        if not reduced and den != 1:
            g = gcd(den, *re, *im)
            if g != 1:
                den //= g
                re = tuple(x // g for x in re)
                im = tuple(x // g for x in im)
        m = object.__new__(cls)
        m._set(rows, cols, den, re, im)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "GaussMatrix":
        cols = rows if cols is None else cols
        z = (0,) * (rows * cols)
        return cls._from_ints(rows, cols, 1, z, z, reduced=True)

    @classmethod
    def identity(cls, n: int) -> "GaussMatrix":
        re = [0] * (n * n)
        re[:: n + 1] = [1] * n
        return cls._from_ints(n, n, 1, re, (0,) * (n * n), reduced=True)

    @classmethod
    def diagonal(cls, values: Iterable[Entry]) -> "GaussMatrix":
        den, diag_re, diag_im = _pack([GaussRational.of(v) for v in values])
        n = len(diag_re)
        re, im = [0] * (n * n), [0] * (n * n)
        re[:: n + 1], im[:: n + 1] = diag_re, diag_im
        return cls._from_ints(n, n, den, re, im, reduced=True)

    @classmethod
    def block(cls, grid: Sequence[Sequence["GaussMatrix"]]) -> "GaussMatrix":
        """Assemble from a 2-d grid of matrices with consistent edge sizes."""
        den = lcm(*(b.den for band in grid for b in band))
        re, im = [], []
        rows, width = 0, None
        for band in grid:
            height = band[0].rows
            if any(b.rows != height for b in band):
                raise ValueError("inconsistent block heights")
            parts = []
            for b in band:
                f = den // b.den
                if f == 1:
                    parts.append((b.cols, b.re_num, b.im_num))
                else:
                    parts.append((b.cols, [x * f for x in b.re_num], [x * f for x in b.im_num]))
            if width is None:
                width = sum(c for c, _, _ in parts)
            elif height and sum(c for c, _, _ in parts) != width:
                raise ValueError("ragged rows")
            for i in range(height):
                for c, bre, bim in parts:
                    re.extend(bre[i * c : (i + 1) * c])
                    im.extend(bim[i * c : (i + 1) * c])
            rows += height
        if rows == 0:
            raise ValueError("matrix needs at least one row")
        # the lcm of reduced denominators keeps the form reduced (see _pack)
        return cls._from_ints(rows, width, den, re, im, reduced=True)

    def _rationals(self, re, im) -> tuple:
        """GaussRationals in lowest terms of the numerators re, im over den."""
        d = self.den
        return tuple(GaussRational(Fraction(x, d), Fraction(y, d)) for x, y in zip(re, im))

    @property
    def entries(self) -> tuple:
        """The row-major GaussRational entries, in lowest terms."""
        return self._rationals(self.re_num, self.im_num)

    def row(self, i: int) -> tuple:
        c = self.cols
        return self._rationals(self.re_num[i * c : (i + 1) * c], self.im_num[i * c : (i + 1) * c])

    def __getitem__(self, key) -> GaussRational:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        k = i * self.cols + j
        return GaussRational(Fraction(self.re_num[k], self.den), Fraction(self.im_num[k], self.den))

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "GaussMatrix":
        re, im = [], []
        for i in range(r0, r1):
            base = i * self.cols
            re.extend(self.re_num[base + c0 : base + c1])
            im.extend(self.im_num[base + c0 : base + c1])
        return GaussMatrix._from_ints(r1 - r0, c1 - c0, self.den, re, im)

    def _check_same_shape(self, other: "GaussMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _combine(self, other: "GaussMatrix", op) -> "GaussMatrix":
        self._check_same_shape(other)
        if self.den == other.den:
            den = self.den
            re = map(op, self.re_num, other.re_num)
            im = map(op, self.im_num, other.im_num)
        else:
            den = lcm(self.den, other.den)
            fa, fb = den // self.den, den // other.den
            re = [op(x * fa, y * fb) for x, y in zip(self.re_num, other.re_num)]
            im = [op(x * fa, y * fb) for x, y in zip(self.im_num, other.im_num)]
        return GaussMatrix._from_ints(self.rows, self.cols, den, re, im)

    def __add__(self, other: "GaussMatrix") -> "GaussMatrix":
        return self._combine(other, add)

    def __sub__(self, other: "GaussMatrix") -> "GaussMatrix":
        return self._combine(other, sub)

    def __neg__(self) -> "GaussMatrix":
        return GaussMatrix._from_ints(
            self.rows, self.cols, self.den, map(neg, self.re_num), map(neg, self.im_num), reduced=True
        )

    def __mul__(self, scalar) -> "GaussMatrix":
        d, x, y = _scalar_ints(scalar)
        re, im = self.re_num, self.im_num
        if not y:
            out_re, out_im = [a * x for a in re], [b * x for b in im]
        elif not x:
            out_re, out_im = [-b * y for b in im], [a * y for a in re]
        else:
            out_re = [a * x - b * y for a, b in zip(re, im)]
            out_im = [a * y + b * x for a, b in zip(re, im)]
        return GaussMatrix._from_ints(self.rows, self.cols, self.den * d, out_re, out_im)

    __rmul__ = __mul__

    def __matmul__(self, other: "GaussMatrix") -> "GaussMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        re, im = _product(self, other)
        return GaussMatrix._from_ints(self.rows, other.cols, self.den * other.den, re, im)

    def conj_transpose(self) -> "GaussMatrix":
        c = self.cols
        re, im = [], []
        for j in range(c):
            re.extend(self.re_num[j::c])
            im.extend(self.im_num[j::c])
        return GaussMatrix._from_ints(c, self.rows, self.den, re, map(neg, im), reduced=True)

    def trace(self) -> GaussRational:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        step = self.cols + 1
        return GaussRational(
            Fraction(sum(self.re_num[::step]), self.den),
            Fraction(sum(self.im_num[::step]), self.den),
        )

    def is_zero(self) -> bool:
        return not (any(self.re_num) or any(self.im_num))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def inverse(self) -> "GaussMatrix":
        """Exact inverse by fraction-free Gauss-Jordan elimination; raises if singular.

        Bareiss (1968) over the Gaussian integers: with a = N / den, the rows
        of [N | I] are reduced in place, and the pivot step at column c
        replaces every other row i by (p * row_i - row_i[c] * row_c) / q,
        where p is the new pivot and q the one before it (1 at the start).
        By Sylvester's identity every entry stays a minor of the input, so
        each division is exact and no fraction is ever formed.  A column
        with no nonzero entry at or below row c means N is singular.  The
        end state is [d*I | d*N^-1] with d the last pivot, and
        a^-1 = den * N^-1 = den * conj(d) * (d*N^-1) / |d|^2.
        """
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        re_rows = [list(self.re_num[i * n : (i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
        im_rows = [list(self.im_num[i * n : (i + 1) * n]) + [0] * n for i in range(n)]
        qr, qi = 1, 0
        for c in range(n):
            found = next((i for i in range(c, n) if re_rows[i][c] or im_rows[i][c]), None)
            if found is None:
                raise ValueError("matrix is singular")
            re_rows[c], re_rows[found] = re_rows[found], re_rows[c]
            im_rows[c], im_rows[found] = im_rows[found], im_rows[c]
            kr, ki = re_rows[c], im_rows[c]
            pr, pi = kr[c], ki[c]
            qn = qr * qr + qi * qi
            for i in range(n):
                if i == c:
                    continue
                xr, xi = re_rows[i], im_rows[i]
                fr, fi = xr[c], xi[c]
                # t = p * x - f * k, entry by entry
                tr = [pr * a - pi * b - fr * u + fi * v for a, b, u, v in zip(xr, xi, kr, ki)]
                ti = [pr * b + pi * a - fr * v - fi * u for a, b, u, v in zip(xr, xi, kr, ki)]
                if qi:
                    # t / q = t * conj(q) / |q|^2
                    re_rows[i] = [(a * qr + b * qi) // qn for a, b in zip(tr, ti)]
                    im_rows[i] = [(b * qr - a * qi) // qn for a, b in zip(tr, ti)]
                else:
                    re_rows[i] = [a // qr for a in tr]
                    im_rows[i] = [b // qr for b in ti]
            qr, qi = pr, pi
        # qr + qi*i is now the last pivot d
        s = self.den
        re, im = [], []
        for xr, xi in zip(re_rows, im_rows):
            re.extend(s * (a * qr + b * qi) for a, b in zip(xr[n:], xi[n:]))
            im.extend(s * (b * qr - a * qi) for a, b in zip(xr[n:], xi[n:]))
        return GaussMatrix._from_ints(n, n, qr * qr + qi * qi, re, im)

    def __eq__(self, other):
        if not isinstance(other, GaussMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.re_num == other.re_num
            and self.im_num == other.im_num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.re_num, self.im_num))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(self[i, j]) for j in range(self.cols)) for i in range(self.rows)
        )
        return f"GaussMatrix[{body}]"


def _product(a: GaussMatrix, b: GaussMatrix) -> tuple:
    """The real and imaginary numerator lists of a @ b over a.den * b.den,
    not reduced; a.cols must equal b.rows.  Zero entries of a are skipped."""
    n, k, m = a.rows, a.cols, b.cols
    ar, ai = a.re_num, a.im_num
    br, bi = b.re_num, b.im_num
    b_real = not any(bi)
    zero = [0] * m
    out_re, out_im = [], []
    for i in range(n):
        acc_re = acc_im = zero
        for t in range(k):
            x, y = ar[i * k + t], ai[i * k + t]
            if not (x or y):
                continue
            rr, ri = br[t * m : (t + 1) * m], bi[t * m : (t + 1) * m]
            if not y:
                acc_re = [s + x * q for s, q in zip(acc_re, rr)]
                if not b_real:
                    acc_im = [s + x * q for s, q in zip(acc_im, ri)]
            elif not x:
                acc_im = [s + y * q for s, q in zip(acc_im, rr)]
                if not b_real:
                    acc_re = [s - y * q for s, q in zip(acc_re, ri)]
            else:
                acc_re = [s + x * q - y * r for s, q, r in zip(acc_re, rr, ri)]
                acc_im = [s + x * r + y * q for s, q, r in zip(acc_im, rr, ri)]
        out_re += acc_re
        out_im += acc_im
    return out_re, out_im


# ----------------------------------------------------------------------
# Quadrant signs and the adjoint test of u(p,p).
#
# A sign tuple (upper left, upper right, lower left, lower right) scales
# each p x p quadrant of a 2p x 2p matrix.

THETA = (1, -1, -1, 1)  # J . J
U_PP = (-1, 1, 1, -1)  # -J . J
K_PART = (1, 0, 0, 1)
P_PART = (0, 1, 1, 0)


@cache
def _transposer(n: int) -> itemgetter:
    """Takes the row-major numerators of an n x n matrix, n >= 2, to those
    of its transpose."""
    return itemgetter(*(j * n + i for i in range(n) for j in range(n)))


@cache
def _mask(p: int, signs: tuple) -> tuple:
    """Per entry of a row-major 2p x 2p matrix, the sign of its quadrant."""
    ul, ur, ll, lr = signs
    return tuple(([ul] * p + [ur] * p) * p + ([ll] * p + [lr] * p) * p)


def _signed(xs, p: int, signs: tuple) -> tuple:
    """The numerators xs with each quadrant multiplied by its sign."""
    return tuple(map(mul, xs, _mask(p, signs)))


@cache
def _adjoint_masks(p: int, signs: tuple) -> tuple:
    """The transposer of 2p x 2p numerators and the real and imaginary
    quadrant masks that make a* with each quadrant multiplied by its sign."""
    return _transposer(2 * p), _mask(p, signs), _mask(p, tuple(-s for s in signs))


def _signed_adjoint(re, im, p: int, signs: tuple) -> tuple:
    """The real and imaginary numerators, as iterators, of m* with each
    quadrant multiplied by its sign, for the 2p x 2p m with numerators re, im."""
    transpose, re_mask, im_mask = _adjoint_masks(p, signs)
    return map(mul, transpose(re), re_mask), map(mul, transpose(im), im_mask)


def _is_signed_adjoint(a: GaussMatrix, p: int, signs: tuple) -> bool:
    """Whether the 2p x 2p matrix a equals a* with each quadrant multiplied
    by its sign; with U_PP, whether a is in u(p,p)."""
    re, im = _signed_adjoint(a.re_num, a.im_num, p, signs)
    return tuple(re) == a.re_num and tuple(im) == a.im_num


def in_u_pp(a: GaussMatrix) -> bool:
    """Whether a is in u(p,p), 2p = a.rows: a square matrix of even size
    with a = -J a* J.  The answer is remembered on a, so a matrix is tested
    at most once."""
    member = a._u_pp
    if member is None:
        n = a.rows
        member = n == a.cols and n % 2 == 0 and _is_signed_adjoint(a, n // 2, U_PP)
        object.__setattr__(a, "_u_pp", member)
    return member


def _member(m: GaussMatrix) -> GaussMatrix:
    """m, marked as an element of u(p,p) without a test; only for a matrix
    that is one by construction."""
    object.__setattr__(m, "_u_pp", True)
    return m


def bracket(a: GaussMatrix, b: GaussMatrix) -> GaussMatrix:
    """Commutator ab - ba, exact; both arguments must be square and same size.

    Both products lie over a.den * b.den, so they are subtracted as
    integers and the difference is reduced once.  When both arguments are
    in u(p,p), ba = J (ab)* J is taken from ab's numerators instead of a
    second product (see the module docstring), and the result is marked a
    member."""
    if not (a.is_square() and b.is_square() and a.rows == b.rows):
        raise ValueError("bracket needs square matrices of equal size")
    n = a.rows
    ab_re, ab_im = _product(a, b)
    members = in_u_pp(a) and in_u_pp(b)
    if members:
        ba_re, ba_im = _signed_adjoint(ab_re, ab_im, n // 2, THETA)
    else:
        ba_re, ba_im = _product(b, a)
    out = GaussMatrix._from_ints(n, n, a.den * b.den, map(sub, ab_re, ba_re), map(sub, ab_im, ba_im))
    return _member(out) if members else out


# ----------------------------------------------------------------------
# Characteristic polynomial and integer spectra.
#
# Polynomials are tuples of GaussRational coefficients in ascending order,
# (c0, c1, ..., 1) for the monic det(tI - a).


def char_poly(a: GaussMatrix) -> tuple:
    """Coefficients of det(tI - a), ascending and exact; the leading one is 1.

    Samuelson-Berkowitz, which needs no division, on the numerator matrix
    N = den * a: det(tI - a) = den^-n det((den*t)I - N), so the coefficient
    of t^j is that of N's polynomial over den^(n-j).
    """
    if not a.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n, re, im = a.rows, a.re_num, a.im_num
    # det(sI - N_k) of the leading k x k block N_k, descending in s
    vr, vi = [1, -re[0]], [0, -im[0]]
    for k in range(1, n):
        # the column of N_(k+1) above its corner and the row left of it
        cr, ci = re[k : k * n : n], im[k : k * n : n]
        rr, ri = re[k * n : k * n + k], im[k * n : k * n + k]
        # first column of the Toeplitz factor: 1, -N[k,k], -R C, -R N_k C, ...
        tr, ti = [1, -re[k * n + k]], [0, -im[k * n + k]]
        for step in range(k):
            if step:
                cr, ci = (
                    [sum(re[i * n + j] * cr[j] - im[i * n + j] * ci[j] for j in range(k)) for i in range(k)],
                    [sum(re[i * n + j] * ci[j] + im[i * n + j] * cr[j] for j in range(k)) for i in range(k)],
                )
            tr.append(-sum(x * y - u * v for x, u, y, v in zip(rr, ri, cr, ci)))
            ti.append(-sum(x * v + u * y for x, u, y, v in zip(rr, ri, cr, ci)))
        nr, ni = [], []
        for i in range(k + 2):
            sr = si = 0
            for j in range(min(i, k) + 1):
                sr += tr[i - j] * vr[j] - ti[i - j] * vi[j]
                si += tr[i - j] * vi[j] + ti[i - j] * vr[j]
            nr.append(sr)
            ni.append(si)
        vr, vi = nr, ni
    d = a.den
    return tuple(
        GaussRational(Fraction(vr[n - j], d ** (n - j)), Fraction(vi[n - j], d ** (n - j)))
        for j in range(n + 1)
    )


def poly_eval(coeffs: Sequence[GaussRational], a: GaussMatrix) -> GaussMatrix:
    """Evaluate a polynomial at a square matrix (Horner)."""
    if not a.is_square():
        raise ValueError("polynomial evaluation needs a square matrix")
    n = a.rows
    acc = GaussMatrix.zeros(n, n)
    ident = GaussMatrix.identity(n)
    for c in reversed(coeffs):
        acc = acc @ a + ident * c
    return acc


def _integer_coefficients(coeffs: Sequence[GaussRational]) -> list:
    out = []
    for c in coeffs:
        if not c.is_integer():
            raise NonIntegerSpectrum(f"non-integer coefficient {c} in characteristic polynomial")
        out.append(int(c.re))
    return out


def _deflate(desc: list, root: int) -> list:
    """Divide a descending-coefficient polynomial by (t - root); remainder must vanish."""
    quot = [desc[0]]
    for c in desc[1:]:
        quot.append(c + root * quot[-1])
    if quot[-1] != 0:
        raise ValueError("nonzero remainder")
    return quot[:-1]


def integer_spectrum(a: GaussMatrix) -> dict:
    """Map eigenvalue -> multiplicity when char_poly splits over the integers.

    Candidate roots are the integer divisors of the constant coefficient
    (after stripping t^m).  Any failure to split raises NonIntegerSpectrum.
    """
    coeffs = _integer_coefficients(char_poly(a))
    spectrum: dict = {}
    first_nonzero = next(i for i, c in enumerate(coeffs) if c != 0)
    if first_nonzero > 0:
        spectrum[0] = first_nonzero
        coeffs = coeffs[first_nonzero:]
    desc = coeffs[::-1]
    while len(desc) > 1:
        const = desc[-1]
        bound = 1 + max(abs(c) for c in desc)  # Cauchy bound for a monic polynomial
        root = None
        for mag in range(1, min(abs(const), bound) + 1):
            if const % mag:
                continue
            for cand in (mag, -mag):
                val = 0
                for c in desc:
                    val = val * cand + c
                if val == 0:
                    root = cand
                    break
            if root is not None:
                break
        if root is None:
            raise NonIntegerSpectrum(f"no integer root of {desc[::-1]} (ascending)")
        spectrum[root] = spectrum.get(root, 0) + 1
        desc = _deflate(desc, root)
    return spectrum


def eigenprojections(a: GaussMatrix, spectrum: Mapping[int, int]) -> dict:
    """Exact spectral projectors of a semisimple matrix, one per eigenvalue.

    P_lam = prod over mu != lam of (a - mu I) / (lam - mu).  The caller's
    spectrum is certified first, once: prod over distinct mu of (a - mu I)
    must be zero.  Each a - mu I is formed once and shared by every product.
    """
    ident = GaussMatrix.identity(a.rows)
    shifted = {mu: a - ident * mu for mu in sorted(spectrum)}
    if not reduce(matmul, shifted.values(), ident).is_zero():
        raise NotSemisimple("matrix fails the semisimplicity product test")
    projections = {}
    for lam in spectrum:
        others = [mu for mu in shifted if mu != lam]
        scale = Fraction(1, prod(lam - mu for mu in others))
        projections[lam] = reduce(matmul, (shifted[mu] for mu in others), ident) * scale
    return projections
