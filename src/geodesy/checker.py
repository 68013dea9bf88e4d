"""Validation of candidate homomorphisms su(1,1) -> su(p,p).

A candidate is given by the images of the basis u, v, w.  It is accepted
when it is an exact Lie algebra homomorphism (the full bracket table holds)
and satisfies the two equivariance conditions:

  (1) the image of w is block-diagonal (lands in the compact direction);
  (3) the tangent components intertwine the complex structures, i.e.
      p-part(F(v)) = iota(p-part(F(u))) and p-part(F(u)) = -iota(p-part(F(v))),

with the splitting (2) F(x) = k-part + p-part supplied by the Cartan
decomposition.  Total geodesy is the vanishing of both k-parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .algebra import SuPQShape, cartan_decompose, complex_structure, in_su_pp
from .gaussmat import GaussMatrix, I, NonIntegerSpectrum, bracket, integer_spectrum
from .weights import WeightData


@dataclass(frozen=True)
class EmbeddingCandidate:
    shape: SuPQShape
    f_u: GaussMatrix
    f_v: GaussMatrix
    f_w: GaussMatrix

    def __post_init__(self):
        for name in ("f_u", "f_v", "f_w"):
            if not in_su_pp(getattr(self, name), self.shape):
                raise ValueError(f"{name} is not in su({self.shape.p},{self.shape.p})")


@dataclass
class CheckReport:
    is_homomorphism: bool
    satisfies_c1: bool = False
    satisfies_c3: bool = False
    injective: bool = False
    fc_u: Optional[GaussMatrix] = None
    fc_v: Optional[GaussMatrix] = None
    fp_u: Optional[GaussMatrix] = None
    fp_v: Optional[GaussMatrix] = None
    totally_geodesic: bool = False
    h_spectrum: Optional[WeightData] = None
    h_spectrum_error: Optional[str] = None
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.is_homomorphism and self.satisfies_c1 and self.satisfies_c3


def violated_brackets(c: EmbeddingCandidate) -> List[str]:
    """Names of the basis bracket relations the candidate breaks."""
    relations = [
        ("[w,u]=2v", bracket(c.f_w, c.f_u), c.f_v * 2),
        ("[w,v]=-2u", bracket(c.f_w, c.f_v), c.f_u * (-2)),
        ("[u,v]=-2w", bracket(c.f_u, c.f_v), c.f_w * (-2)),
    ]
    return [name for name, got, want in relations if got != want]


def check_conditions(c: EmbeddingCandidate) -> CheckReport:
    """Full report: bracket table, conditions (1) and (3), injectivity, geodesy."""
    failures = violated_brackets(c)
    if failures:
        return CheckReport(is_homomorphism=False, failures=[f"bracket {f} violated" for f in failures])
    report = CheckReport(is_homomorphism=True)

    split_w = cartan_decompose(c.f_w, c.shape)
    report.satisfies_c1 = split_w.p_part.is_zero()
    if not report.satisfies_c1:
        report.failures.append("image of w has a nonzero tangent component")

    split_u = cartan_decompose(c.f_u, c.shape)
    split_v = cartan_decompose(c.f_v, c.shape)
    report.fc_u, report.fp_u = split_u.k_part, split_u.p_part
    report.fc_v, report.fp_v = split_v.k_part, split_v.p_part

    # iota_H sends u to v and v to -u, so condition (3) on the basis reads:
    forward = report.fp_v == complex_structure(report.fp_u, c.shape)
    backward = report.fp_u == -complex_structure(report.fp_v, c.shape)
    report.satisfies_c3 = forward and backward
    if not report.satisfies_c3:
        report.failures.append("tangent components do not intertwine the complex structures")

    # su(1,1) is simple: F(w) = 0 forces F(v) = [F(w), F(u)]/2 = 0 and
    # F(u) = -[F(w), F(v)]/2 = 0, so the kernel is 0 or all of su(1,1)
    report.injective = not c.f_w.is_zero()
    report.totally_geodesic = (
        report.passed and report.fc_u.is_zero() and report.fc_v.is_zero()
    )

    if report.passed:
        try:
            report.h_spectrum = h_weight_analysis(c)
        except NonIntegerSpectrum as err:
            report.h_spectrum_error = str(err)
            report.failures.append("weight operator has a non-integer spectrum")
    return report


def equivariance_test(c: EmbeddingCandidate, report: CheckReport) -> bool:
    """Consistency assertion: both components in report, which
    check_conditions(c) returned, commute with the action of w.

    For any candidate that passes the conditions this holds automatically;
    a forged report with tampered components fails it.
    """
    if not report.passed:
        return False
    checks = [
        (bracket(c.f_w, report.fc_u), report.fc_v * 2),
        (bracket(c.f_w, report.fp_u), report.fp_v * 2),
        (bracket(c.f_w, report.fc_v), report.fc_u * (-2)),
        (bracket(c.f_w, report.fp_v), report.fp_u * (-2)),
    ]
    return all(got == want for got, want in checks)


def weight_operator(c: EmbeddingCandidate) -> GaussMatrix:
    """H = -i F(w), the integer-spectrum generator of the rotation action."""
    return c.f_w * (-I)


def h_weight_analysis(c: EmbeddingCandidate) -> WeightData:
    """Integer spectra of the weight operator on the two diagonal blocks.

    Raises NonIntegerSpectrum when the candidate is not a valid image, which
    after check_conditions passed would be an internal inconsistency.
    """
    h = weight_operator(c)
    p = c.shape.p
    plus = integer_spectrum(h.submatrix(0, p, 0, p))
    minus = integer_spectrum(h.submatrix(p, 2 * p, p, 2 * p))
    return WeightData(plus, minus)
