"""Reference sector engine, kept only for the tests.

This is the derivation, elimination and replay the package used before it
decided sectors on plain tuples: ``derive_constraints`` builds a frozen
``BlockUnknown`` per block and a ``GramTerm``/``ProductTerm`` per term,
and ``eliminate`` and ``replay_certificate`` run on that ``BlockSystem``
and still carry the R4 mismatch contradiction (on an admissible table it
never fires).  The per-block dataclasses live here, since the package
keeps every system in its lean tuple form alone; ``BlockUnknown.slot`` is
the placement that ``geodesy.ladder.block_slot`` must reproduce.  The
equivalence tests hold ``geodesy.ladder`` to these routines sector by
sector; they share only the kind and flavor names, ``block_label`` and
the certificate and verdict types with the package.

``step_from_json_dict`` is the step reader as it was before it refused a
document that is not an object, lacks a field or has a field beyond the
schema's: on those it raised TypeError or KeyError, or read the step.
``step_corpus`` makes the documents the two readers are compared on.

``instantiate_witness`` and ``verify_witness`` are the witness check the
package used before it checked witnesses in integers: every block value
is built as a ``GaussMatrix`` and substituted into every equation of the
lean ``SectorSystem``, placed by ``geodesy.ladder.block_slot``.  A block
that does not fit its equation fails there on a shape mismatch, as a
``ValueError``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from geodesy.ladder import (
    CROSS,
    INNER,
    MINUS_RAISE,
    OUTER,
    PLUS_RAISE,
    STEP_FIELDS,
    CertificateStep,
    ReplayError,
    SectorSystem,
    TerminalBlock,
    Verdict,
    WitnessClass,
    WitnessError,
    block_label,
    block_slot,
)
from geodesy.gaussmat import GaussMatrix
from geodesy.weights import Layout, WeightData, enumerate_weight_data


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
        object.__setattr__(self, "label", block_label(self.kind, self.source_weight))

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
    """A table's equations with one object per block and per term."""

    weight_data: WeightData
    sector: str  # "odd" | "even" | "mixed" | "empty"
    unknowns: Dict[str, BlockUnknown]
    diagonal: Tuple[DiagonalEquation, ...]
    cross: Tuple[CrossEquation, ...]


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


# ----------------------------------------------------------------------
# Witness substitution in matrices, on the lean SectorSystem


def step_from_json_dict(doc: dict) -> CertificateStep:
    texts = doc["rule"], doc["sector"], doc["side"], doc["conclusion"]
    if set(map(type, texts)) != {str}:
        raise ValueError(f"step rule, sector, side and conclusion {texts!r} must be strings")
    weight, trace_values = doc["weight"], doc["trace_values"]
    if not isinstance(trace_values, list) or any(type(v) is not int for v in [weight, *trace_values]):
        raise ValueError(f"step weight {weight!r} and trace_values {trace_values!r} must be integers")
    rule, sector, side, conclusion = texts
    return CertificateStep(rule, sector, side, weight, conclusion, tuple(trace_values))


# values a step field may hold in a file: a string, an integer, a list of
# integers, and what is none of these
STEP_VALUES = ["R1", "odd", "plus", "", 0, 2, -3, True, 1.0, None, [0, 4], [], ["0", 0], [False], "00", {"0": 0}]


def step_corpus(count: int, seed: int = 0) -> list:
    """count step documents: the steps of every certificate of rank
    p <= 3, each kept or changed in one way: a field given another value,
    removed, or joined by one the schema does not allow, or the step
    replaced by something that is no object."""
    steps = [
        step.to_json_dict()
        for p in (1, 2, 3)
        for wd in enumerate_weight_data(p)
        for sector in (wd.odd_sector(), wd.even_sector())
        for step in eliminate(derive_constraints(sector)).certificate
    ]
    rng = random.Random(seed)
    docs = []
    for k in range(count):
        doc = dict(rng.choice(steps))
        kind = k % 6
        if kind in (1, 2):
            doc[rng.choice(STEP_FIELDS)] = rng.choice(STEP_VALUES)
        elif kind == 3:
            del doc[rng.choice(STEP_FIELDS)]
        elif kind == 4:
            doc[rng.choice(["rules", "note", "weights"])] = rng.choice(STEP_VALUES)
        elif kind == 5:
            doc = rng.choice([list(doc.values()), "x", 1, None, [doc]])
        docs.append(doc)
    return docs


def instantiate_witness(system: SectorSystem, witness: WitnessClass) -> Dict[str, GaussMatrix]:
    """Exact block values realizing a witness class: zero on a forced block,
    the identity on a terminal one, which must be "paired" with scale_sq 1
    and square of its dim.  Raises WitnessError otherwise and on a label
    that names no block or names one twice."""
    blocks = system.blocks()
    layout = system.weight_data.layout()
    values: Dict[str, GaussMatrix] = {}

    def place(label: str) -> Tuple[int, int]:
        if label not in blocks:
            raise WitnessError(f"witness names {label!r}, which is no block of the system")
        if label in values:
            raise WitnessError(f"witness names block {label} twice")
        (r0, r1), (c0, c1), _ = block_slot(blocks[label], layout)
        return r1 - r0, c1 - c0

    for label in witness.forced_zero:
        values[label] = GaussMatrix.zeros(*place(label))
    for tb in witness.terminal:
        rows, cols = place(tb.label)
        if (tb.flavor, tb.scale_sq, tb.dim, tb.dim) != ("paired", 1, rows, cols):
            raise WitnessError(
                f"terminal block {tb.label} is {rows}x{cols}, but the witness has flavor "
                f"{tb.flavor!r}, scale_sq {tb.scale_sq} and dim {tb.dim}"
            )
        values[tb.label] = GaussMatrix.identity(rows)
    missing = set(blocks) - set(values)
    if missing:
        raise WitnessError(f"witness leaves blocks unassigned: {sorted(missing)}")
    return values


def verify_witness(system: SectorSystem, witness: WitnessClass) -> None:
    """Substitute a witness into every original equation and demand equality."""
    values = instantiate_witness(system, witness)
    for side, w, dim, rhs, terms in system.equations:
        acc = GaussMatrix.zeros(dim, dim)
        for sign, key, flavor in terms:
            v = values[block_label(*key)]
            gram = v @ v.conj_transpose() if flavor == OUTER else v.conj_transpose() @ v
            acc = acc + gram * sign
        if acc != GaussMatrix.identity(dim) * rhs:
            raise WitnessError(f"diagonal equation at {side} weight {w} is not satisfied")
    for w, pairs in system.products:
        acc = None
        for left, right in pairs:
            lv = values[block_label(*left)]
            rv = values[block_label(*right)]
            # E* Z for the blocks leaving w, -Z F* for the blocks entering it
            if left[0] == PLUS_RAISE:
                prod = lv.conj_transpose() @ rv
            else:
                prod = (lv @ rv.conj_transpose()) * -1
            acc = prod if acc is None else acc + prod
        if acc is not None and not acc.is_zero():
            raise WitnessError(f"product equation at weight {w} is not satisfied")
