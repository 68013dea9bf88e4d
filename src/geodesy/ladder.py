"""Per-weight block Gram equations and the sign/trace elimination engine.

For a fixed weight table, the square-zero weight-raising maps decompose
into blocks connecting weight w to weight w + 2: raising maps inside the
plus block ("plus_raise"), inside the minus block ("minus_raise"), and
crossing from minus to plus ("cross").  Requiring the assembled triple to
satisfy the sl(2) relations forces, on each eigenspace, a signed sum of
Gram operators U U* and U* U to equal an integer multiple of the identity,
plus mixed product equations on the off-diagonal blocks.

Feasibility of those equations is decided by four replayable rules:

  R1  all surviving terms negated, right side c*I with c > 0: impossible,
      since the left-hand trace is <= 0 while the right is c*dim > 0.
  R2  mirror image of R1 (all terms positive, c < 0).
  R3  one-signed left side with c = 0: every block in the equation is
      forced to vanish, because tr(U U*) = 0 implies U = 0; the zeros are
      substituted everywhere, including into the product equations.
  R4  once only single-Gram equations remain, the two occurrences of each
      block (U U* = a*I on dim d1, U* U = b*I on dim d2) must agree:
      a = b and d1 = d2, else the trace identity tr(U U*) = tr(U* U) or a
      rank count is violated.  Agreement yields a witness, sqrt(a) times a
      unitary block.

Anything the rules cannot settle is reported as unresolved, never silently
dropped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .gaussmat import GaussMatrix, GaussRational
from .weights import Dims, Layout, WeightData, enumerate_sectors, pair_sectors

PLUS_RAISE = "plus_raise"
MINUS_RAISE = "minus_raise"
CROSS = "cross"

OUTER = "outer"  # U U*, supported on the target eigenspace
INNER = "inner"  # U* U, supported on the source eigenspace


class TheoremViolation(Exception):
    """A feasible class with a nonzero raising block, or a wrong feasible shape."""


class UnresolvedRemains(Exception):
    """The rule set failed to settle some enumerated weight table."""


class ReplayError(Exception):
    """A recorded certificate does not replay against the original system."""


class WitnessError(Exception):
    """A feasible witness does not satisfy the original equations exactly."""


@dataclass(frozen=True)
class BlockUnknown:
    kind: str
    source_weight: int
    target_weight: int
    rows: int
    cols: int
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.target_weight - self.source_weight != 2:
            raise ValueError("blocks raise the weight by exactly 2")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("block dimensions must be positive")
        object.__setattr__(self, "label", f"{self.kind}[{self.source_weight}->{self.target_weight}]")

    def slot(self, layout: Layout) -> Tuple[Tuple[int, int], Tuple[int, int], int]:
        """Where the block sits in the assembled triple: its row span (the
        target eigenspace) and column span (the source eigenspace) inside X,
        and the partner sign.  The partner Y holds sign * U* at the mirrored
        slot, with sign -1 for the two raising kinds and +1 for crossing."""
        target_side = "minus" if self.kind == MINUS_RAISE else "plus"
        source_side = "plus" if self.kind == PLUS_RAISE else "minus"
        sign = +1 if self.kind == CROSS else -1
        rows = layout.span(target_side, self.target_weight)
        cols = layout.span(source_side, self.source_weight)
        return rows, cols, sign


@dataclass(frozen=True)
class GramTerm:
    sign: int
    unknown: BlockUnknown
    flavor: str  # OUTER or INNER


@dataclass(frozen=True)
class ProductTerm:
    sign: int
    left: Tuple[BlockUnknown, bool]   # (block, conjugate-transposed?)
    right: Tuple[BlockUnknown, bool]


@dataclass(frozen=True)
class DiagonalEquation:
    side: str  # "plus" | "minus"
    weight: int
    dim: int
    terms: Tuple[GramTerm, ...]
    rhs: int  # right side is rhs * identity


@dataclass(frozen=True)
class CrossEquation:
    weight: int
    terms: Tuple[ProductTerm, ...]


@dataclass(frozen=True)
class BlockSystem:
    weight_data: WeightData
    sector: str  # "odd" | "even" | "mixed" | "empty"
    unknowns: Dict[str, BlockUnknown]
    diagonal: Tuple[DiagonalEquation, ...]
    cross: Tuple[CrossEquation, ...]


@dataclass(frozen=True)
class CertificateStep:
    rule: str  # R1 | R2 | R3 | R4
    sector: str
    side: str
    weight: int
    conclusion: str
    trace_values: Tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "sector": self.sector,
            "side": self.side,
            "weight": self.weight,
            "conclusion": self.conclusion,
            "trace_values": list(self.trace_values),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CertificateStep":
        return cls(
            rule=doc["rule"],
            sector=doc["sector"],
            side=doc["side"],
            weight=int(doc["weight"]),
            conclusion=doc["conclusion"],
            trace_values=tuple(int(t) for t in doc["trace_values"]),
        )


@dataclass(frozen=True)
class TerminalBlock:
    label: str
    flavor: str      # always "paired": one U U* and one U* U equation hold the block
    scale_sq: int    # the Gram equations read  U U* = scale_sq * I
    dim: int


@dataclass(frozen=True)
class WitnessClass:
    forced_zero: Tuple[str, ...]
    terminal: Tuple[TerminalBlock, ...]


@dataclass(frozen=True)
class Verdict:
    status: str  # "feasible" | "infeasible" | "unresolved"
    sector: str
    certificate: Tuple[CertificateStep, ...] = ()
    witness: Optional[WitnessClass] = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        doc: dict = {"status": self.status, "sector": self.sector}
        if self.status == "infeasible":
            doc["certificate"] = [s.to_json_dict() for s in self.certificate]
        elif self.status == "feasible":
            doc["witness"] = {
                "forced_zero": list(self.witness.forced_zero),
                "terminal": [
                    {"block": t.label, "flavor": t.flavor, "scale_sq": t.scale_sq, "dim": t.dim}
                    for t in self.witness.terminal
                ],
            }
        else:
            doc["detail"] = self.detail
        return doc


# ----------------------------------------------------------------------
# Constraint derivation


def _infer_sector(wd: WeightData) -> str:
    weights = wd.all_weights()
    if not weights:
        return "empty"
    parities = {w % 2 for w in weights}
    if parities == {1}:
        return "odd"
    if parities == {0}:
        return "even"
    return "mixed"


def derive_constraints(wd: WeightData, sector: str | None = None) -> BlockSystem:
    """Instantiate the block unknowns and per-eigenspace equations of a table."""
    if sector is None:
        sector = _infer_sector(wd)
    unknowns: Dict[str, BlockUnknown] = {}
    by_source: Dict[Tuple[str, int], BlockUnknown] = {}

    def add(kind, src, tgt, rows, cols):
        u = BlockUnknown(kind, src, tgt, rows, cols)
        unknowns[u.label] = u
        by_source[kind, src] = u

    for w in sorted(wd.plus, reverse=True):
        if w + 2 in wd.plus:
            add(PLUS_RAISE, w, w + 2, wd.plus[w + 2], wd.plus[w])
    for w in sorted(wd.minus, reverse=True):
        if w + 2 in wd.minus:
            add(MINUS_RAISE, w, w + 2, wd.minus[w + 2], wd.minus[w])
    for w in sorted(wd.minus, reverse=True):
        if w + 2 in wd.plus:
            add(CROSS, w, w + 2, wd.plus[w + 2], wd.minus[w])

    find = by_source.get  # (kind, source weight) -> unknown

    diagonal: List[DiagonalEquation] = []
    for w in sorted(wd.plus, reverse=True):
        terms = []
        e_in = find((PLUS_RAISE, w - 2))
        if e_in:
            terms.append(GramTerm(-1, e_in, OUTER))
        e_out = find((PLUS_RAISE, w))
        if e_out:
            terms.append(GramTerm(+1, e_out, INNER))
        z_in = find((CROSS, w - 2))
        if z_in:
            terms.append(GramTerm(+1, z_in, OUTER))
        diagonal.append(
            DiagonalEquation("plus", w, wd.plus[w], tuple(terms), w)
        )
    for w in sorted(wd.minus, reverse=True):
        terms = []
        f_in = find((MINUS_RAISE, w - 2))
        if f_in:
            terms.append(GramTerm(-1, f_in, OUTER))
        f_out = find((MINUS_RAISE, w))
        if f_out:
            terms.append(GramTerm(+1, f_out, INNER))
        z_out = find((CROSS, w))
        if z_out:
            terms.append(GramTerm(-1, z_out, INNER))
        diagonal.append(
            DiagonalEquation("minus", w, wd.minus[w], tuple(terms), w)
        )

    cross_eqs: List[CrossEquation] = []
    shared = sorted(set(wd.plus) & set(wd.minus), reverse=True)
    for w in shared:
        terms = []
        e_out = find((PLUS_RAISE, w))
        z_out = find((CROSS, w))
        if e_out and z_out:
            terms.append(ProductTerm(+1, (e_out, True), (z_out, False)))
        z_in = find((CROSS, w - 2))
        f_in = find((MINUS_RAISE, w - 2))
        if z_in and f_in:
            terms.append(ProductTerm(-1, (z_in, False), (f_in, True)))
        if terms:
            cross_eqs.append(CrossEquation(w, tuple(terms)))

    return BlockSystem(
        weight_data=wd,
        sector=sector,
        unknowns=unknowns,
        diagonal=tuple(diagonal),
        cross=tuple(cross_eqs),
    )


# ----------------------------------------------------------------------
# Elimination


def _live(eq: DiagonalEquation, forced: set) -> List[GramTerm]:
    return [t for t in eq.terms if t.unknown.label not in forced]


def _live_products(eq: CrossEquation, forced: set) -> List[ProductTerm]:
    return [
        t
        for t in eq.terms
        if t.left[0].label not in forced and t.right[0].label not in forced
    ]


def _r3_step(sector: str, eq: DiagonalEquation, labels: Sequence[str]) -> CertificateStep:
    return CertificateStep(
        rule="R3",
        sector=sector,
        side=eq.side,
        weight=eq.weight,
        conclusion="one-signed left side with zero right side forces zero: "
        + ", ".join(labels),
        trace_values=(0, 0),
    )


def _r1_step(sector: str, eq: DiagonalEquation, live_count: int) -> CertificateStep:
    return CertificateStep(
        rule="R1",
        sector=sector,
        side=eq.side,
        weight=eq.weight,
        conclusion=f"{live_count} negated Gram term(s) equal a positive multiple "
        f"of the identity: left trace <= 0 < {eq.rhs * eq.dim}",
        trace_values=(0, eq.rhs * eq.dim),
    )


def _r2_step(sector: str, eq: DiagonalEquation, live_count: int) -> CertificateStep:
    return CertificateStep(
        rule="R2",
        sector=sector,
        side=eq.side,
        weight=eq.weight,
        conclusion=f"{live_count} positive Gram term(s) equal a negative multiple "
        f"of the identity: left trace >= 0 > {eq.rhs * eq.dim}",
        trace_values=(0, eq.rhs * eq.dim),
    )


def _r4_mismatch_step(
    sector: str, label: str, outer_eq: DiagonalEquation, a: int, d1: int, b: int, d2: int
) -> CertificateStep:
    return CertificateStep(
        rule="R4",
        sector=sector,
        side=outer_eq.side,
        weight=outer_eq.weight,
        conclusion=f"block {label} has U U* = {a}*I on dim {d1} but U* U = {b}*I "
        f"on dim {d2}; trace/rank identity fails",
        trace_values=(a * d1, b * d2),
    )


def eliminate(system: BlockSystem) -> Verdict:
    """Run rules R1-R4 to a fixpoint and return a replayable verdict.

    Zero-forcing (R3) is applied before the contradiction scans so that
    substituted equations surface their contradictions in simplified form;
    scan order is plus side then minus side, weights descending.
    """
    forced: set = set()
    steps: List[CertificateStep] = []
    while True:
        fired = False
        for eq in system.diagonal:
            live = _live(eq, forced)
            if live and eq.rhs == 0 and len({t.sign for t in live}) == 1:
                labels = [t.unknown.label for t in live]
                steps.append(_r3_step(system.sector, eq, labels))
                forced.update(labels)
                fired = True
                break
        if fired:
            continue
        for eq in system.diagonal:
            live = _live(eq, forced)
            if eq.rhs > 0 and all(t.sign < 0 for t in live):
                steps.append(_r1_step(system.sector, eq, len(live)))
                return Verdict("infeasible", system.sector, certificate=tuple(steps))
            if eq.rhs < 0 and all(t.sign > 0 for t in live):
                steps.append(_r2_step(system.sector, eq, len(live)))
                return Verdict("infeasible", system.sector, certificate=tuple(steps))
        break

    # Terminal recognition (R4).
    for ceq in system.cross:
        if _live_products(ceq, forced):
            return Verdict(
                "unresolved",
                system.sector,
                detail=f"product equation at weight {ceq.weight} still has live terms",
            )
    singles: Dict[str, Dict[str, Tuple[int, DiagonalEquation]]] = {}
    for eq in system.diagonal:
        live = _live(eq, forced)
        if not live and eq.rhs == 0:
            continue
        if len(live) != 1:
            return Verdict(
                "unresolved",
                system.sector,
                detail=f"equation at {eq.side} weight {eq.weight} is not a single "
                f"Gram term ({len(live)} terms, right side {eq.rhs})",
            )
        term = live[0]
        a = term.sign * eq.rhs
        if a <= 0:
            return Verdict(
                "unresolved",
                system.sector,
                detail=f"equation at {eq.side} weight {eq.weight} normalizes to a "
                f"non-positive Gram multiple {a}",
            )
        singles.setdefault(term.unknown.label, {})[term.flavor] = (a, eq)

    terminal: List[TerminalBlock] = []
    for label in sorted(singles):
        occ = singles[label]
        if OUTER not in occ or INNER not in occ:
            # derive_constraints puts every block in one OUTER and one INNER
            # equation, so only a hand-built system gets here
            return Verdict(
                "unresolved",
                system.sector,
                detail=f"block {label} occurs in one Gram equation only ({next(iter(occ))})",
            )
        a, outer_eq = occ[OUTER]
        b, inner_eq = occ[INNER]
        d1, d2 = outer_eq.dim, inner_eq.dim
        if a != b or d1 != d2:
            steps.append(_r4_mismatch_step(system.sector, label, outer_eq, a, d1, b, d2))
            return Verdict("infeasible", system.sector, certificate=tuple(steps))
        terminal.append(TerminalBlock(label, "paired", a, d1))

    witness = WitnessClass(
        forced_zero=tuple(sorted(forced)),
        terminal=tuple(terminal),
    )
    return Verdict("feasible", system.sector, witness=witness)


# ----------------------------------------------------------------------
# Certificate replay and witness verification


def replay_certificate(system: BlockSystem, verdict: Verdict) -> None:
    """Re-execute an infeasibility certificate step by step.

    Every step is recomputed from the state the previous steps produced and
    must match the recorded step exactly; the final step must establish the
    contradiction.  Raises ReplayError otherwise.
    """
    if verdict.status != "infeasible":
        raise ReplayError("only infeasible verdicts carry step certificates")
    if not verdict.certificate:
        raise ReplayError("empty certificate")
    by_key = {(eq.side, eq.weight): eq for eq in system.diagonal}
    forced: set = set()
    for i, step in enumerate(verdict.certificate):
        last = i == len(verdict.certificate) - 1
        eq = by_key.get((step.side, step.weight))
        if eq is None:
            raise ReplayError(f"step {i}: no equation at {step.side} weight {step.weight}")
        live = _live(eq, forced)
        if step.rule == "R3":
            if last:
                raise ReplayError("certificate ends on a zero-forcing step")
            if not live or eq.rhs != 0 or len({t.sign for t in live}) != 1:
                raise ReplayError(f"step {i}: R3 precondition fails at {step.side} {step.weight}")
            expected = _r3_step(system.sector, eq, [t.unknown.label for t in live])
            if expected != step:
                raise ReplayError(f"step {i}: recorded R3 step differs from recomputation")
            forced.update(t.unknown.label for t in live)
        elif step.rule == "R1":
            if not (eq.rhs > 0 and all(t.sign < 0 for t in live)):
                raise ReplayError(f"step {i}: R1 precondition fails at {step.side} {step.weight}")
            if _r1_step(system.sector, eq, len(live)) != step:
                raise ReplayError(f"step {i}: recorded R1 step differs from recomputation")
            if not last:
                raise ReplayError("contradiction reached before the final step")
        elif step.rule == "R2":
            if not (eq.rhs < 0 and all(t.sign > 0 for t in live)):
                raise ReplayError(f"step {i}: R2 precondition fails at {step.side} {step.weight}")
            if _r2_step(system.sector, eq, len(live)) != step:
                raise ReplayError(f"step {i}: recorded R2 step differs from recomputation")
            if not last:
                raise ReplayError("contradiction reached before the final step")
        elif step.rule == "R4":
            if not last:
                raise ReplayError("R4 contradiction must be the final step")
            if len(live) != 1:
                raise ReplayError(f"step {i}: R4 expects a single live term")
            label = live[0].unknown.label
            partner = _find_partner(system, forced, label, exclude=eq)
            if partner is None:
                raise ReplayError(f"step {i}: R4 block {label} has no partner equation")
            if _recompute_r4(system.sector, forced, label, eq, partner) != step:
                raise ReplayError(f"step {i}: recorded R4 step differs from recomputation")
        else:
            raise ReplayError(f"step {i}: unknown rule {step.rule}")
    final = verdict.certificate[-1]
    if final.rule not in ("R1", "R2", "R4"):
        raise ReplayError("certificate does not end in a contradiction rule")


def _find_partner(system, forced, label, exclude):
    for eq in system.diagonal:
        if eq is exclude:
            continue
        live = _live(eq, forced)
        if len(live) == 1 and live[0].unknown.label == label:
            return eq
    return None


def _recompute_r4(sector, forced, label, eq, partner) -> CertificateStep:
    term = _live(eq, forced)[0]
    a = term.sign * eq.rhs
    pterm = _live(partner, forced)[0]
    b = pterm.sign * partner.rhs
    if term.flavor == OUTER:
        return _r4_mismatch_step(sector, label, eq, a, eq.dim, b, partner.dim)
    return _r4_mismatch_step(sector, label, partner, b, partner.dim, a, eq.dim)


def gaussian_scale(scale_sq: int) -> GaussRational:
    """An exact Gaussian integer gamma with |gamma|^2 = scale_sq, if one exists."""
    for x in range(int(scale_sq**0.5) + 1, -1, -1):
        rem = scale_sq - x * x
        if rem < 0:
            continue
        y = int(rem**0.5)
        for yy in (y - 1, y, y + 1):
            if yy >= 0 and x * x + yy * yy == scale_sq:
                return GaussRational(x, yy)
    raise WitnessError(
        f"{scale_sq} is not a sum of two squares; no exact unitary multiple exists"
    )


def instantiate_witness(system: BlockSystem, witness: WitnessClass) -> Dict[str, GaussMatrix]:
    """Exact block values realizing a witness class."""
    values: Dict[str, GaussMatrix] = {}
    for label in witness.forced_zero:
        u = system.unknowns[label]
        values[label] = GaussMatrix.zeros(u.rows, u.cols)
    for tb in witness.terminal:
        u = system.unknowns[tb.label]
        gamma = gaussian_scale(tb.scale_sq)
        mat = GaussMatrix.zeros(u.rows, u.cols)
        ents = list(mat.entries)
        for i in range(min(u.rows, u.cols)):
            ents[i * u.cols + i] = gamma
        values[tb.label] = GaussMatrix._raw(u.rows, u.cols, tuple(ents))
    missing = set(system.unknowns) - set(values)
    if missing:
        raise WitnessError(f"witness leaves blocks unassigned: {sorted(missing)}")
    return values


def verify_witness(system: BlockSystem, witness: WitnessClass) -> None:
    """Substitute a witness into every original equation and demand equality."""
    values = instantiate_witness(system, witness)
    for eq in system.diagonal:
        acc = GaussMatrix.zeros(eq.dim, eq.dim)
        for t in eq.terms:
            v = values[t.unknown.label]
            gram = v @ v.conj_transpose() if t.flavor == OUTER else v.conj_transpose() @ v
            acc = acc + gram * t.sign
        if acc != GaussMatrix.identity(eq.dim) * eq.rhs:
            raise WitnessError(
                f"diagonal equation at {eq.side} weight {eq.weight} is not satisfied"
            )
    for ceq in system.cross:
        acc = None
        for t in ceq.terms:
            lv = values[t.left[0].label]
            rv = values[t.right[0].label]
            if t.left[1]:
                lv = lv.conj_transpose()
            if t.right[1]:
                rv = rv.conj_transpose()
            prod = (lv @ rv) * t.sign
            acc = prod if acc is None else acc + prod
        if acc is not None and not acc.is_zero():
            raise WitnessError(f"product equation at weight {ceq.weight} is not satisfied")


# ----------------------------------------------------------------------
# Whole-table classification


@dataclass
class DatumClassification:
    weight_data: WeightData
    odd_system: BlockSystem
    even_system: BlockSystem
    odd: Verdict
    even: Verdict

    @property
    def status(self) -> str:
        statuses = (self.odd.status, self.even.status)
        if "infeasible" in statuses:
            return "infeasible"
        if "unresolved" in statuses:
            return "unresolved"
        return "feasible"

    @property
    def standard_copies(self) -> int:
        return self.weight_data.plus.get(1, 0)

    @property
    def non_embedding(self) -> bool:
        return self.status == "feasible" and all(
            not values or set(values) == {0}
            for values in (self.weight_data.plus, self.weight_data.minus)
        )

    def to_json_dict(self) -> dict:
        doc = {
            "weight_data": self.weight_data.to_json_dict(),
            "status": self.status,
            "sectors": {
                "odd": self.odd.to_json_dict(),
                "even": self.even.to_json_dict(),
            },
        }
        if self.status == "feasible":
            doc["standard_copies"] = self.standard_copies
            doc["non_embedding"] = self.non_embedding
        return doc


def classify_weight_data(wd: WeightData) -> DatumClassification:
    odd_system = derive_constraints(wd.odd_sector(), sector="odd")
    even_system = derive_constraints(wd.even_sector(), sector="even")
    return DatumClassification(
        weight_data=wd,
        odd_system=odd_system,
        even_system=even_system,
        odd=eliminate(odd_system),
        even=eliminate(even_system),
    )


@dataclass(frozen=True)
class SectorVerdict:
    """One decided sector.  Only a feasible sector keeps its system: any
    other is derived again on demand, since derive_constraints is
    deterministic."""

    weight_data: WeightData
    verdict: Verdict
    system: Optional[BlockSystem]

    def derived_system(self) -> BlockSystem:
        if self.system is not None:
            return self.system
        return derive_constraints(self.weight_data, sector=self.verdict.sector)


def _decide(groups: Dict[Dims, List[WeightData]], sector: str) -> Dict[Dims, List[SectorVerdict]]:
    """Derive and eliminate every sector once."""
    decided = {}
    for dims, group in groups.items():
        entries = []
        for wd in group:
            system = derive_constraints(wd, sector=sector)
            verdict = eliminate(system)
            entries.append(SectorVerdict(wd, verdict, system if verdict.status == "feasible" else None))
        decided[dims] = entries
    return decided


def _pair_counts(odd_group: List[SectorVerdict], even_group: List[SectorVerdict]) -> Counter:
    """Status counts of every table pairing the two groups: infeasible if a
    sector is, else unresolved if a sector is, else feasible."""
    odd = Counter(s.verdict.status for s in odd_group)
    even = Counter(s.verdict.status for s in even_group)
    tables = len(odd_group) * len(even_group)
    open_tables = (len(odd_group) - odd["infeasible"]) * (len(even_group) - even["infeasible"])
    feasible = odd["feasible"] * even["feasible"]
    return Counter(infeasible=tables - open_tables, unresolved=open_tables - feasible, feasible=feasible)


def _stream(
    p: int, odd: Dict[Dims, List[SectorVerdict]], even: Dict[Dims, List[SectorVerdict]]
) -> Iterator[DatumClassification]:
    """Every table of rank p with its classification, from the sector
    product.  Each sector's system is derived once per pass: an odd group's
    systems one at a time, its even partner group's all together."""
    for odd_group, even_group in pair_sectors(p, odd, even):
        evens = [(e, e.derived_system()) for e in even_group]
        for o in odd_group:
            odd_system = o.derived_system()
            for e, even_system in evens:
                yield DatumClassification(
                    o.weight_data.combine(e.weight_data), odd_system, even_system, o.verdict, e.verdict
                )


@dataclass
class FeasibleClass:
    standard_copies: int
    trivial_dim: int
    weight_data: WeightData
    non_embedding: bool
    terminal: Tuple[TerminalBlock, ...]  # the odd sector's, then the even sector's

    def label(self) -> str:
        parts = []
        if self.standard_copies:
            parts.append(f"standard^{self.standard_copies}")
        if self.trivial_dim:
            parts.append(f"trivial^{self.trivial_dim}")
        return " + ".join(parts) if parts else "empty"

    def to_json_dict(self) -> dict:
        return {
            "label": self.label(),
            "standard_copies": self.standard_copies,
            "trivial_dim": self.trivial_dim,
            "non_embedding": self.non_embedding,
            "weight_data": self.weight_data.to_json_dict(),
        }


@dataclass
class ClassificationSummary:
    p: int
    max_weight: int
    enumerated: int
    feasible: int
    infeasible: int
    unresolved: int
    classes: List[FeasibleClass]
    odd: Dict[Dims, List[SectorVerdict]]
    even: Dict[Dims, List[SectorVerdict]]

    def results(self) -> Iterator[DatumClassification]:
        """Every enumerated table's classification, built on demand."""
        return _stream(self.p, self.odd, self.even)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "max_weight": self.max_weight,
            "counts": {
                "enumerated": self.enumerated,
                "feasible": self.feasible,
                "infeasible": self.infeasible,
                "unresolved": self.unresolved,
            },
            "feasible_classes": [c.to_json_dict() for c in self.classes],
            "theorem_holds": True,
        }


def _check_feasible_shape(result: DatumClassification) -> None:
    wd = result.weight_data
    for system, verdict in (
        (result.odd_system, result.odd),
        (result.even_system, result.even),
    ):
        if verdict.status != "feasible":
            continue
        forced = set(verdict.witness.forced_zero)
        for label, unk in system.unknowns.items():
            if unk.kind in (PLUS_RAISE, MINUS_RAISE) and label not in forced:
                raise TheoremViolation(
                    f"feasible verdict for {wd.describe()} leaves raising block "
                    f"{label} unconstrained to zero"
                )
    odd = wd.odd_sector()
    if not odd.is_empty():
        m = odd.plus.get(1, 0)
        if odd.plus != {1: m} or odd.minus != {-1: m} or m < 1:
            raise TheoremViolation(
                f"feasible odd sector of {wd.describe()} is not the +/-1 pattern "
                f"with equal multiplicities"
            )
    even = wd.even_sector()
    if not even.is_empty():
        if (set(even.plus) | set(even.minus)) - {0}:
            raise TheoremViolation(
                f"feasible even sector of {wd.describe()} is not weight-0 trivial"
            )


def verify_theorem(p: int, max_weight: int | None = None) -> ClassificationSummary:
    """Classify every admissible table of rank p, one distinct sector at a time.

    A table is one odd sector joined with one even sector of complementary
    dimensions (weights.enumerate_sectors).  Each sector is derived and
    eliminated once, the counts come from the per-dimension products, and a
    table is built only when both its sectors are feasible.

    Raises UnresolvedRemains if any verdict is unresolved and
    TheoremViolation if a feasible class is not totally geodesic in shape
    (nonzero raising block, wrong odd pattern, or nontrivial even sector).
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if max_weight is None:
        max_weight = 2 * p - 1
    odd_sectors, even_sectors = enumerate_sectors(p, max_weight)
    odd = _decide(odd_sectors, "odd")
    even = _decide(even_sectors, "even")
    counts: Counter = Counter()
    feasible = []
    for odd_group, even_group in pair_sectors(p, odd, even):
        counts += _pair_counts(odd_group, even_group)
        feasible += [
            DatumClassification(o.weight_data.combine(e.weight_data), o.system, e.system, o.verdict, e.verdict)
            for o in odd_group
            if o.verdict.status == "feasible"
            for e in even_group
            if e.verdict.status == "feasible"
        ]

    if counts["unresolved"]:
        first = next(r for r in _stream(p, odd, even) if r.status == "unresolved")
        raise UnresolvedRemains(
            f"{counts['unresolved']} weight table(s) unresolved, first: "
            f"{first.weight_data.describe()}"
        )
    classes = []
    for r in feasible:
        _check_feasible_shape(r)
        classes.append(
            FeasibleClass(
                standard_copies=r.standard_copies,
                trivial_dim=2 * p - 2 * r.standard_copies,
                weight_data=r.weight_data,
                non_embedding=r.non_embedding,
                terminal=r.odd.witness.terminal + r.even.witness.terminal,
            )
        )
    classes.sort(key=lambda c: c.standard_copies, reverse=True)
    return ClassificationSummary(
        p=p,
        max_weight=max_weight,
        enumerated=sum(counts.values()),
        feasible=counts["feasible"],
        infeasible=counts["infeasible"],
        unresolved=0,
        classes=classes,
        odd=odd,
        even=even,
    )
