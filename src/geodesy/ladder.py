"""Per-weight block Gram equations and the sign/trace elimination engine.

For a fixed weight table, the square-zero weight-raising maps decompose
into blocks connecting weight w to weight w + 2: raising maps inside the
plus block ("plus_raise"), inside the minus block ("minus_raise"), and
crossing from minus to plus ("cross").  Requiring the assembled triple to
satisfy the sl(2) relations forces, on each eigenspace, a signed sum of
Gram operators U U* and U* U to equal an integer multiple of the identity,
plus mixed product equations on the off-diagonal blocks.

A system is kept in a lean form (SectorSystem).  A block is named by its
key (kind, source weight); a diagonal equation is the plain tuple
(side, w, dim, rhs, terms) with terms (sign, key, flavor), and a product
equation is (w, pairs) with pairs of keys.  Deciding a sector builds no
object per block or per term, and writes a block's label only where a
certificate step or a witness names it.  SectorSystem.blocks() lists a
system's blocks as label -> key, and block_slot places a block in the
assembled triple; its spans give the block's shape.  block_cells turns
that slot into the flat positions of the block's entries in X and of
their mirrored partners in Y, the one placement that the candidate lift
and the numeric oracle share.  These serve the witnesses, the lift, the
feasible-shape check and the oracle.

Feasibility is decided by three replayable rules:

  R1  all surviving terms negated, right side c*I with c > 0: impossible,
      since the left-hand trace is <= 0 while the right is c*dim > 0.
  R2  mirror image of R1 (all terms positive, c < 0).
  R3  one-signed left side with c = 0: every block in the equation is
      forced to vanish, because tr(U U*) = 0 implies U = 0; the zeros are
      substituted everywhere, including into the product equations.

R3 runs to a fixpoint first, so that substituted equations surface their
contradictions in simplified form; then one R1/R2 scan, plus side then
minus side, weights descending (_fire; eliminate writes the certificate
of its firings).  When neither fires, terminal recognition
asks that no product equation keeps a live term and that every remaining
diagonal equation is a single Gram term a*I with a > 0, each block held by
one U U* = a*I and one U* U = b*I equation with a = b = 1 on equal
dimensions.  The witness is the identity on such a block and zero on every
forced one.  witness_blocks is the one reader of a witness: it gives each
block its shape and whether the witness makes it I or 0.  verify_witness
substitutes that into the equations in integers, and
candidates.lift_classification writes the 1s of the identity blocks into
the triple, so this module does no matrix arithmetic and imports only
weights.  In a derived system only cross[-1->1] can pass: a block
leaving w has a = w + 2 and b = -w if it crosses, a = -(w + 2) and b = w if
it raises, so a = b > 0 already forces a crossing block with w = -1 and
a = 1.  On an admissible table a terminal sector always agrees: the odd one
is {1:m} / {-1:m} and the even one has no live block.  So a mismatch (only
an inadmissible table has one) is not a certified contradiction; like
anything else the rules cannot settle it is reported as unresolved, never
silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .weights import Layout, WeightData, enumerate_sectors, iter_spectra, pair_sectors, sector_counts

PLUS_RAISE = "plus_raise"
MINUS_RAISE = "minus_raise"
CROSS = "cross"

OUTER = "outer"  # U U*, supported on the target eigenspace
INNER = "inner"  # U* U, supported on the source eigenspace

Key = Tuple[str, int]  # (kind, source weight)
Term = Tuple[int, Key, str]  # (sign, key, flavor)
Equation = Tuple[str, int, int, int, Tuple[Term, ...]]  # (side, w, dim, rhs, terms)
ProductEquation = Tuple[int, Tuple[Tuple[Key, Key], ...]]  # (w, pairs of keys)


class TheoremViolation(Exception):
    """A feasible class with a nonzero raising block, or a wrong feasible shape."""


class UnresolvedRemains(Exception):
    """The rule set failed to settle some enumerated weight table."""


class ReplayError(Exception):
    """A recorded certificate does not replay against the original system."""


class WitnessError(Exception):
    """A feasible witness does not satisfy the original equations exactly."""


def block_label(kind: str, source_weight: int) -> str:
    return f"{kind}[{source_weight}->{source_weight + 2}]"


# per kind: the side of its target eigenspace, of its source eigenspace, and its partner sign
_BLOCK_SIDES = {PLUS_RAISE: ("plus", "plus", -1), MINUS_RAISE: ("minus", "minus", -1), CROSS: ("plus", "minus", +1)}


def block_slot(key: Key, layout: Layout) -> Tuple[Tuple[int, int], Tuple[int, int], int]:
    """Where the block sits in the assembled triple: its row span (the
    target eigenspace) and column span (the source eigenspace) inside X,
    and the partner sign.  The partner Y holds sign * U* at the mirrored
    slot, with sign -1 for the two raising kinds and +1 for crossing."""
    kind, src = key
    target_side, source_side, sign = _BLOCK_SIDES[kind]
    return layout.span(target_side, src + 2), layout.span(source_side, src), sign


def block_cells(key: Key, layout: Layout) -> Tuple[Tuple[int, int], List[int], List[int], int]:
    """The block's shape, the row-major flat positions of its entries in X,
    the flat positions of the mirrored entries in Y, and the partner sign.
    Entry (i, j) of U sits at X[r0 + i, c0 + j] and, as sign times its
    conjugate, at Y[c0 + j, r0 + i]; both matrices are n x n, n the
    layout's size."""
    (r0, r1), (c0, c1), sign = block_slot(key, layout)
    n = layout.size
    x_cells: List[int] = []
    y_cells: List[int] = []
    for i in range(r0, r1):  # row i of X, column i of Y
        x_cells += range(i * n + c0, i * n + c1)
        y_cells += range(c0 * n + i, c1 * n + i, n)
    return (r1 - r0, c1 - c0), x_cells, y_cells, sign


@dataclass
class SectorSystem:
    """The Gram equations of a table in lean form (see the module docstring).

    ``equations`` holds the diagonal equations in scan order and
    ``products`` the product equations that have a term.  At a weight w
    held by both blocks the product terms are E* Z, for the pair
    (plus_raise, cross) of blocks leaving w, and -Z F*, for the pair
    (cross, minus_raise) of blocks entering w.
    """

    weight_data: WeightData
    sector: str  # "odd" | "even" | "mixed" | "empty"
    equations: Tuple[Equation, ...]
    products: Tuple[ProductEquation, ...] = ()

    def keys(self) -> set:
        """The key of every block of these equations."""
        keys = {key for eq in self.equations for _, key, _ in eq[4]}
        keys.update(key for _, pairs in self.products for pair in pairs for key in pair)
        return keys

    def blocks(self) -> Dict[str, Key]:
        """Every block of these equations, label -> key, in label order."""
        return dict(sorted((block_label(*key), key) for key in self.keys()))


@dataclass(frozen=True)
class CertificateStep:
    rule: str  # R1 | R2 | R3
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
        """A step as written by to_json_dict; raises ValueError on a rule,
        sector, side or conclusion that is not a string and on a weight or
        trace value that is not an integer, rather than coercing it."""
        texts = doc["rule"], doc["sector"], doc["side"], doc["conclusion"]
        if set(map(type, texts)) != {str}:
            raise ValueError(f"step rule, sector, side and conclusion {texts!r} must be strings")
        weight, trace_values = doc["weight"], doc["trace_values"]
        if not isinstance(trace_values, list) or any(type(v) is not int for v in [weight, *trace_values]):
            raise ValueError(f"step weight {weight!r} and trace_values {trace_values!r} must be integers")
        rule, sector, side, conclusion = texts
        return cls(rule, sector, side, weight, conclusion, tuple(trace_values))


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


def derive_constraints(wd: WeightData, sector: str | None = None) -> SectorSystem:
    """The per-eigenspace equations of a table, in lean form.

    A block (kind, w) exists when both its eigenspaces do: plus_raise when
    w and w + 2 are plus weights, minus_raise likewise on the minus side,
    cross when w is a minus weight and w + 2 a plus weight.  WeightData
    keeps its weights in descending order, the scan order.

    So the equations, their terms and their order depend only on the
    support, which weights are present on each side, and each right side
    is the weight w itself.  A multiplicity enters only as an equation's
    dim, which the rules never read (see _rule): it reaches a verdict only
    through the trace values of a step and terminal recognition.  At the
    top weight W, where W + 2 is absent, the equations at W and W - 2 read
    only which of W, W - 2 and W - 4 each side holds: the top window by
    which verify_theorem decides a sector.
    """
    if sector is None:
        sector = _infer_sector(wd)
    plus, minus = wd.plus, wd.minus
    equations: List[Equation] = []
    for w, dim in plus.items():
        terms = []
        if w - 2 in plus:
            terms.append((-1, (PLUS_RAISE, w - 2), OUTER))
        if w + 2 in plus:
            terms.append((+1, (PLUS_RAISE, w), INNER))
        if w - 2 in minus:
            terms.append((+1, (CROSS, w - 2), OUTER))
        equations.append(("plus", w, dim, w, tuple(terms)))
    for w, dim in minus.items():
        terms = []
        if w - 2 in minus:
            terms.append((-1, (MINUS_RAISE, w - 2), OUTER))
        if w + 2 in minus:
            terms.append((+1, (MINUS_RAISE, w), INNER))
        if w + 2 in plus:
            terms.append((-1, (CROSS, w), INNER))
        equations.append(("minus", w, dim, w, tuple(terms)))

    products = []
    for w in minus:
        if w not in plus:
            continue
        pairs = []
        if w + 2 in plus:
            pairs.append(((PLUS_RAISE, w), (CROSS, w)))
        if w - 2 in minus:
            pairs.append(((CROSS, w - 2), (MINUS_RAISE, w - 2)))
        if pairs:
            products.append((w, tuple(pairs)))
    return SectorSystem(wd, sector, tuple(equations), tuple(products))


# ----------------------------------------------------------------------
# Elimination


def _live(eq: Equation, forced: set) -> Sequence[Term]:
    """The terms of eq whose block is not forced to zero."""
    terms = eq[4]
    return [t for t in terms if t[1] not in forced] if forced else terms


# per contradiction rule: the sign of its live terms, of its right side, and its trace relation
_CONTRADICTION = {"R1": ("negated", "positive", "<= 0 <"), "R2": ("positive", "negative", ">= 0 >")}


def _rule(eq: Equation, live: Sequence[Term]) -> Optional[str]:
    """The rule that fires on eq with these live terms, if any.  The sign of
    the right side tells the rules apart, so at most one fires.

    Only the signs of the live terms and of the right side are read, never
    the dimension.  Two tables of the same support therefore fire the same
    rules on the same equations, force the same blocks and reach the same
    contradiction; an infeasible verdict, which comes before terminal
    recognition, holds for every multiplicity of its support."""
    rhs = eq[3]
    if rhs == 0:
        return "R3" if live and len({t[0] for t in live}) == 1 else None
    if rhs > 0:
        return "R1" if all(t[0] < 0 for t in live) else None
    return "R2" if all(t[0] > 0 for t in live) else None


def _conclusion(rule: str, eq: Equation, live: Sequence[Term]) -> Tuple[str, Tuple[int, int]]:
    """The conclusion and trace values of the step of rule firing on eq
    with these live terms: what the engine writes (_step) and what replay
    compares a recorded step with."""
    if rule == "R3":
        labels = ", ".join(block_label(*t[1]) for t in live)
        return "one-signed left side with zero right side forces zero: " + labels, (0, 0)
    terms, multiple, relation = _CONTRADICTION[rule]
    trace = eq[3] * eq[2]  # rhs * dim
    return (
        f"{len(live)} {terms} Gram term(s) equal a {multiple} multiple "
        f"of the identity: left trace {relation} {trace}",
        (0, trace),
    )


def _step(rule: str, sector: str, eq: Equation, live: Sequence[Term]) -> CertificateStep:
    """The certificate step of rule firing on eq with these live terms."""
    return CertificateStep(rule, sector, eq[0], eq[1], *_conclusion(rule, eq, live))


Firing = Tuple[str, Equation, Sequence[Term]]  # (rule, equation, live terms)


def _fire(system: SectorSystem) -> Tuple[set, List[Firing], bool]:
    """The elimination proper: R3 to a fixpoint, then one R1/R2 scan.
    Returns the forced blocks, the firings in order and whether the last
    firing is a contradiction.  It writes no certificate text, so a caller
    that drops infeasible sectors reads the status here (see _verdict)."""
    forced: set = set()
    firings: List[Firing] = []
    # only a zero right side can force zeros, only a nonzero one contradict
    zero_rhs = [eq for eq in system.equations if eq[3] == 0]
    while True:
        for eq in zero_rhs:
            live = _live(eq, forced)
            if _rule(eq, live):
                firings.append(("R3", eq, live))
                forced.update(t[1] for t in live)
                break
        else:
            break
    for eq in system.equations:
        if eq[3] == 0:
            continue
        live = _live(eq, forced)
        rule = _rule(eq, live)
        if rule:
            firings.append((rule, eq, live))
            return forced, firings, True
    return forced, firings, False


def _verdict(system: SectorSystem, forced: set, firings: List[Firing], contradiction: bool) -> Verdict:
    """The verdict of what _fire found: the certificate of a contradiction,
    else the result of terminal recognition."""
    sector = system.sector
    if contradiction:
        steps = tuple(_step(rule, sector, eq, live) for rule, eq, live in firings)
        return Verdict("infeasible", sector, certificate=steps)
    # Terminal recognition.
    for w, pairs in system.products:
        if any(left not in forced and right not in forced for left, right in pairs):
            return Verdict("unresolved", sector, detail=f"product equation at weight {w} still has live terms")
    singles: Dict[Key, Dict[str, Tuple[int, int]]] = {}
    for eq in system.equations:
        side, w, dim, rhs, _ = eq
        live = _live(eq, forced)
        if not live and rhs == 0:
            continue
        if len(live) != 1:
            return Verdict(
                "unresolved",
                sector,
                detail=f"equation at {side} weight {w} is not a single "
                f"Gram term ({len(live)} terms, right side {rhs})",
            )
        sign, key, flavor = live[0]
        a = sign * rhs
        if a <= 0:
            return Verdict(
                "unresolved",
                sector,
                detail=f"equation at {side} weight {w} normalizes to a non-positive Gram multiple {a}",
            )
        singles.setdefault(key, {})[flavor] = (a, dim)

    terminal: List[TerminalBlock] = []
    for label, occ in sorted((block_label(*key), occ) for key, occ in singles.items()):
        if OUTER not in occ or INNER not in occ:
            # derive_constraints puts every block in one OUTER and one INNER
            # equation, so only a hand-built system gets here
            return Verdict(
                "unresolved",
                sector,
                detail=f"block {label} occurs in one Gram equation only ({next(iter(occ))})",
            )
        (a, d1), (b, d2) = occ[OUTER], occ[INNER]
        if a != b or d1 != d2:
            # the trace or the rank identity fails, but no rule certifies it:
            # an admissible table never gets here
            return Verdict(
                "unresolved",
                sector,
                detail=f"block {label} has U U* = {a}*I on dim {d1} but U* U = {b}*I on dim {d2}",
            )
        if a != 1:
            # the witness is the identity; a derived system never gets here
            return Verdict("unresolved", sector, detail=f"block {label} has U U* = U* U = {a}*I, not the identity")
        terminal.append(TerminalBlock(label, "paired", 1, d1))

    witness = WitnessClass(
        forced_zero=tuple(sorted(block_label(*key) for key in forced)),
        terminal=tuple(terminal),
    )
    return Verdict("feasible", sector, witness=witness)


def eliminate(system: SectorSystem) -> Verdict:
    """Run R3 to a fixpoint, then one R1/R2 scan, then terminal
    recognition, and return a replayable verdict (module docstring)."""
    return _verdict(system, *_fire(system))


# ----------------------------------------------------------------------
# Certificate replay and witness verification


def replay_certificate(system: SectorSystem, verdict: Verdict) -> None:
    """Re-execute an infeasibility certificate step by step.

    Every step is recomputed from the state the previous steps produced and
    must match the recorded step exactly: its equation, named by side and
    weight, must fire its rule, and its sector, conclusion and trace values
    must be the system's sector and what _conclusion writes.  The final
    step, and only it, must be an R1 or R2 contradiction.  Raises
    ReplayError otherwise, also on a step built in code whose side is not
    a str or whose weight is not an int, which from_json_dict refuses.
    """
    if verdict.status != "infeasible":
        raise ReplayError("only infeasible verdicts carry step certificates")
    certificate = verdict.certificate
    if not certificate:
        raise ReplayError("empty certificate")
    by_key = {(eq[0], eq[1]): eq for eq in system.equations}
    forced: set = set()
    final = len(certificate) - 1
    for i, step in enumerate(certificate):
        rule = step.rule
        if type(step.side) is not str or type(step.weight) is not int:
            raise ReplayError(
                f"step {i}: side {step.side!r} and weight {step.weight!r} must be a string and an integer"
            )
        eq = by_key.get((step.side, step.weight))
        if eq is None:
            raise ReplayError(f"step {i}: no equation at {step.side} weight {step.weight}")
        if rule not in ("R1", "R2", "R3"):
            raise ReplayError(f"step {i}: unknown rule {rule}")
        if rule == "R3" and i == final:
            raise ReplayError("certificate ends on a zero-forcing step")
        live = _live(eq, forced)
        if _rule(eq, live) != rule:
            raise ReplayError(f"step {i}: {rule} precondition fails at {step.side} {step.weight}")
        if step.sector != system.sector or (step.conclusion, step.trace_values) != _conclusion(rule, eq, live):
            raise ReplayError(f"step {i}: recorded {rule} step differs from recomputation")
        if rule == "R3":
            forced.update(t[1] for t in live)
        elif i != final:
            raise ReplayError("contradiction reached before the final step")


def witness_blocks(system: SectorSystem, witness: WitnessClass) -> Dict[Key, Tuple[str, int, int, bool]]:
    """Every block of the system, key -> (label, rows, cols, whether the
    witness makes it the identity rather than zero), its forced blocks
    first, then its terminal ones, each in the witness's order.

    A terminal block must be "paired" with scale_sq 1 and square of its dim
    (module docstring).  Raises WitnessError otherwise, on a label or flavor
    that is not a string, on a scale_sq or dim that is not an int (a bool
    or a float is not), and on a label that names no block or names one
    twice or leaves one out.

    It builds no layout: a named block (kind, w) is the multiplicity of
    w + 2 on its target side by that of w on its source side (_BLOCK_SIDES)."""
    blocks = {block_label(*key): key for key in system.keys()}
    wd = system.weight_data
    dims = {"plus": wd.plus, "minus": wd.minus}
    out: Dict[Key, Tuple[str, int, int, bool]] = {}

    def place(label: str, identity: bool) -> Tuple[int, int]:
        if not isinstance(label, str) or label not in blocks:
            raise WitnessError(f"witness names {label!r}, which is no block of the system")
        key = blocks[label]
        if key in out:
            raise WitnessError(f"witness names block {label} twice")
        kind, src = key
        target_side, source_side, _ = _BLOCK_SIDES[kind]
        rows, cols = dims[target_side][src + 2], dims[source_side][src]
        out[key] = (label, rows, cols, identity)
        return rows, cols

    for label in witness.forced_zero:
        place(label, False)
    for tb in witness.terminal:
        rows, cols = place(tb.label, True)
        fields = (tb.flavor, type(tb.scale_sq), tb.scale_sq, type(tb.dim), tb.dim, tb.dim)
        if fields != ("paired", int, 1, int, rows, cols):
            raise WitnessError(
                f"terminal block {tb.label} is {rows}x{cols}, but the witness has flavor "
                f"{tb.flavor!r}, scale_sq {tb.scale_sq!r} and dim {tb.dim!r}"
            )
    if len(out) != len(blocks):
        missing = sorted(label for label, key in blocks.items() if key not in out)
        raise WitnessError(f"witness leaves blocks unassigned: {missing}")
    return out


def verify_witness(system: SectorSystem, witness: WitnessClass) -> None:
    """Substitute a witness into every original equation and demand
    equality, in integers.

    Every block is 0 or I (witness_blocks).  A Gram term's block must span
    its equation's dim, its rows for U U* and its columns for U* U, and
    then a diagonal equation holds exactly when the signs of its identity
    terms sum to its right side.  The pair of a product equation that
    stands for E* Z must agree in rows, the one for -Z F* in columns, and
    every pair must give a product of one shape; then the equation holds
    exactly when its identity pairs cancel, each E* Z counting +1 and each
    -Z F* -1.  Raises WitnessError otherwise."""
    blocks = witness_blocks(system, witness)
    for side, w, dim, rhs, terms in system.equations:
        total = 0
        for sign, key, flavor in terms:
            label, rows, cols, identity = blocks[key]
            if (rows if flavor == OUTER else cols) != dim:
                raise WitnessError(
                    f"block {label} is {rows}x{cols}, which does not fit the equation at {side} weight {w} on dim {dim}"
                )
            if identity:
                total += sign
        if total != rhs and dim:  # on no dimensions every equation holds
            raise WitnessError(f"diagonal equation at {side} weight {w} is not satisfied")
    for w, pairs in system.products:
        total, shape = 0, None
        for left, right in pairs:
            l_label, l_rows, l_cols, l_identity = blocks[left]
            r_label, r_rows, r_cols, r_identity = blocks[right]
            # E* Z for the blocks leaving w, -Z F* for the blocks entering it
            if left[0] == PLUS_RAISE:
                inner, outer, sign = (l_rows, r_rows), (l_cols, r_cols), 1
            else:
                inner, outer, sign = (l_cols, r_cols), (l_rows, r_rows), -1
            if inner[0] != inner[1] or shape not in (None, outer):
                raise WitnessError(
                    f"blocks {l_label} ({l_rows}x{l_cols}) and {r_label} ({r_rows}x{r_cols}) "
                    f"do not fit the product equation at weight {w}"
                )
            shape = outer
            if l_identity and r_identity:
                total += sign
        if total:
            raise WitnessError(f"product equation at weight {w} is not satisfied")


# ----------------------------------------------------------------------
# Whole-table classification


@dataclass
class DatumClassification:
    weight_data: WeightData
    odd_system: SectorSystem
    even_system: SectorSystem
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
    def trivial_dim(self) -> int:
        return self.weight_data.dim_plus + self.weight_data.dim_minus - 2 * self.standard_copies

    @property
    def non_embedding(self) -> bool:
        return self.status == "feasible" and all(
            not values or set(values) == {0}
            for values in (self.weight_data.plus, self.weight_data.minus)
        )

    @property
    def terminal(self) -> Tuple[TerminalBlock, ...]:
        """A feasible table's terminal blocks: the odd sector's, then the even sector's."""
        return self.odd.witness.terminal + self.even.witness.terminal

    def label(self) -> str:
        parts = []
        if self.standard_copies:
            parts.append(f"standard^{self.standard_copies}")
        if self.trivial_dim:
            parts.append(f"trivial^{self.trivial_dim}")
        return " + ".join(parts) if parts else "empty"

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


def _derive_and_eliminate(wd: WeightData, sector: str) -> Tuple[SectorSystem, Verdict]:
    system = derive_constraints(wd, sector=sector)
    return system, eliminate(system)


def classify_weight_data(wd: WeightData) -> DatumClassification:
    odd_system, odd = _derive_and_eliminate(wd.odd_sector(), "odd")
    even_system, even = _derive_and_eliminate(wd.even_sector(), "even")
    return DatumClassification(wd, odd_system, even_system, odd, even)


@dataclass
class ClassificationSummary:
    p: int
    enumerated: int
    classes: List[DatumClassification]  # one per feasible table

    @property
    def max_weight(self) -> int:
        """2p - 1, the largest weight any table of rank p holds."""
        return 2 * self.p - 1

    @property
    def feasible(self) -> int:
        return len(self.classes)

    @property
    def infeasible(self) -> int:
        return self.enumerated - self.feasible

    @property
    def unresolved(self) -> int:
        """Always 0: verify_theorem raises UnresolvedRemains otherwise."""
        return 0

    def results(self) -> Iterator[DatumClassification]:
        """Every enumerated table's classification, in the group order of
        weights.enumerate_sectors.  verify_theorem keeps no infeasible
        sector, so each sector is derived and eliminated here in full: an
        even group's sectors all together, then each odd sector of the
        partner group in turn, so each is derived once per pass."""
        odd, even = enumerate_sectors(self.p)
        for odd_group, even_group in pair_sectors(self.p, odd, even):
            evens = [(e, *_derive_and_eliminate(e, "even")) for e in even_group]
            for o in odd_group:
                odd_system, odd_verdict = _derive_and_eliminate(o, "odd")
                for e, even_system, even_verdict in evens:
                    yield DatumClassification(o.combine(e), odd_system, even_system, odd_verdict, even_verdict)

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
            "feasible_classes": [
                {
                    "label": c.label(),
                    "standard_copies": c.standard_copies,
                    "trivial_dim": c.trivial_dim,
                    "non_embedding": c.non_embedding,
                    "weight_data": c.weight_data.to_json_dict(),
                }
                for c in self.classes
            ],
            "theorem_holds": True,
        }


def _check_feasible_shape(wd: WeightData, system: SectorSystem, verdict: Verdict) -> None:
    """Raise TheoremViolation unless a feasible sector is totally geodesic in
    shape: every raising block forced to zero, an odd sector the +/-1 pattern
    with equal multiplicities and an even one weight-0 trivial."""
    forced = set(verdict.witness.forced_zero)
    for label, (kind, _) in system.blocks().items():
        if kind != CROSS and label not in forced:
            raise TheoremViolation(
                f"feasible verdict for {wd.describe()} leaves raising block "
                f"{label} unconstrained to zero"
            )
    if system.sector == "odd":
        m = wd.plus.get(1, 0)
        if not wd.is_empty() and (wd.plus != {1: m} or wd.minus != {-1: m}):
            raise TheoremViolation(
                f"feasible odd sector {wd.describe()} is not the +/-1 pattern "
                f"with equal multiplicities"
            )
    elif (set(wd.plus) | set(wd.minus)) - {0}:
        raise TheoremViolation(f"feasible even sector {wd.describe()} is not weight-0 trivial")


# where a head weight sits: on plus only, on minus only, or on both
_SIDES = ((True, False), (False, True), (True, True))

# the 27 top windows: each of W, W - 2 and W - 4 on plus, on minus or on
# both, keyed at the marker 3 for every W >= 3 of either parity
WINDOWS = tuple(
    (3, *(plus for plus, _ in sides), *(minus for _, minus in sides)) for sides in product(_SIDES, repeat=3)
)


def head_keys() -> List[Tuple[int, ...]]:
    """The 107 rank-free head keys (top, plus bits, minus bits) that
    verify_theorem can decide: the 27 WINDOWS, then the supports, every
    pair of subsets of {1, -1} (16, top 1) and then of {2, 0, -2} (64,
    top 2), one subset for each side.  A weight the sum lacks is in
    neither subset, and the parity of top is the parity of the sector."""
    return [*WINDOWS, *((top, *bits) for top in (1, 2) for bits in product((False, True), repeat=2 * (top + 1)))]


def _head_status(key: Tuple[int, ...]) -> str:
    """The status of a head key (top, plus bits, minus bits), see
    verify_theorem: eliminate(...).status on the multiplicity-1 table whose
    side holds the weight top - 2i when its i-th bit is set, a sector of
    the parity of top.  When top is at least 3 only the equations at top
    and top - 2, the top window, are kept.  An infeasible key gets no
    certificate (_fire)."""
    top, *bits = key
    n = len(bits) // 2
    plus: Dict[int, int] = {}
    minus: Dict[int, int] = {}
    for i in range(n):
        if bits[i]:
            plus[top - 2 * i] = 1
        if bits[n + i]:
            minus[top - 2 * i] = 1
    system = derive_constraints(WeightData._trusted(plus, minus), sector="odd" if top % 2 else "even")
    if top >= 3:
        system.equations, system.products = tuple(eq for eq in system.equations if eq[1] >= top - 2), ()
    fired = _fire(system)
    return "infeasible" if fired[2] else _verdict(system, *fired).status


def verify_theorem(p: int) -> ClassificationSummary:
    """Classify every admissible table of rank p from the sector count of
    each group and the few sectors that are not infeasible.

    A table is one odd sector joined with one even sector of complementary
    dimensions (weights.enumerate_sectors), and a sector splits the weights
    of a sum of irreducibles between the two sides (weights.iter_spectra).
    Only the sector count of each (parity, dimensions) group and its walked
    sectors that are not infeasible are kept.  The table counts come from
    the per-group products, and a table is built only when both its sectors
    are feasible.

    A sector's head key is a marker top and whether each head weight is a
    plus weight and whether it is a minus weight.  Each key is decided
    once per run (_head_status); head_keys lists them all.  Let W be the
    sum's top weight.

    - W >= 3: the head is W, W - 2 and W - 4, all present in the sum, and
      the marker is 3, not W, at either parity.  W + 2 is absent, so a
      sector's equations at W and W - 2 have exactly the terms of the
      window's multiplicity-1 table there and the right sides W and W - 2;
      only dim differs, which the rules never read.  The terms follow from
      the six bits alone and both right sides are positive at every
      W >= 3, so R3 and R2 cannot fire in the window and R1 fires when an
      equation has no positive live term: the window has one status at
      every W, odd or even, and one set of 27 windows serves both
      parities.  An infeasible window is an R1 firing on terms all
      negated; in the full sector R3 only removes live terms, so that
      equation stays negated and the sector is infeasible too.
    - W <= 2: the head is {1, -1} (odd) or {2, 0, -2} (even), the marker
      its top, 1 or 2, and a weight the sum lacks is on neither side.  So
      the key is the sector's support and its whole system is eliminated;
      an infeasible verdict reads only signs, so it holds for every
      multiplicity of the support (_rule).

    The sector count of each group comes from a product over the top
    weights (weights.sector_counts), not from the sums, and the groups are
    made in the order of weights.enumerate_sectors.  From p = 2 on a sum
    can hold an irreducible of dimension 4 or more, so W >= 3, and the 27
    windows are decided first.  All of them are infeasible, so every sector
    of such a sum is infeasible; a window that is not is refused with
    UnresolvedRemains, before any sector is derived, and never walked.  So
    the walk reads only the sums of irreducibles of dimension at most 3
    (weights.iter_spectra(p, 3)), whose sectors have W <= 2.

    A head weight sends none, some or all of its copies to plus, and all
    the picks of one such class share a key, so the classes whose key is
    not infeasible are found once per head shape (marker, min(t, 2) per
    head weight).  Only they are walked, one head pick at a time, each pick
    a whole sector with d = sum(pick) on plus; each of their sectors goes
    through derivation and elimination in full and is kept, with its system
    and verdict, unless it is infeasible: terminal recognition compares
    dimensions, and a feasible sector keeps its own system.  Every sector
    not kept is infeasible, so each pair of kept sectors of a group pair is
    a table that is feasible or unresolved, and every other table is
    infeasible; one pass over the pairs counts the tables, keeps the
    feasible ones and names the first unresolved one.  6 of the 80 supports
    are feasible, so rank 1 decides 9 keys (supports only), rank 2 decides
    53 and every rank from 3 on the same 68 (27 windows and 41 supports);
    each walks the O(p^2) sums with W <= 2 and derives only the sectors of
    the feasible supports.

    Raises UnresolvedRemains if a window or any table is unresolved, and then
    TheoremViolation if a kept feasible sector is not totally geodesic in
    shape (nonzero raising block, wrong odd pattern, or nontrivial even
    sector; _check_feasible_shape, once per sector).
    """
    # per parity, even first: dims -> [sector count, kept (sector, system, verdict)s]
    groups = tuple({dims: [n, []] for dims, n in counts.items()} for counts in reversed(sector_counts(p)))
    head_status = cache(_head_status)

    @cache
    def open_classes(marker: int, shape: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        """The classes of a head shape whose key is not infeasible.  For a head
        weight of multiplicity t and s = min(t, 2), class 0 sends no copy to
        plus, class s every copy and class 1 < s some."""
        return [
            c for c in product(*(range(s + 1) for s in shape))
            if head_status((marker, *(a > 0 for a in c), *(a < s for a, s in zip(c, shape)))) != "infeasible"
        ]

    # a sum with top weight W >= 3 holds an irreducible of dimension 4 or
    # more, from p = 2 on, and its sectors are infeasible when their window is
    if p >= 2:
        for key in WINDOWS:
            status = head_status(key)
            if status != "infeasible":
                raise UnresolvedRemains(f"top window {key} is {status}, so no sum with top weight 3 or more is decided")
    for parity, size, dims, weights, totals in iter_spectra(p, 3):
        held = dict(zip(weights, totals))
        weights = range(2 - parity, parity - 3, -2)  # the support inside {1, -1} or {2, 0, -2}
        totals = [held.get(w, 0) for w in weights]
        shape = tuple(min(t, 2) for t in totals)
        for cls in open_classes(weights[0], shape):
            # no copy, every copy or 1..t - 1 of the t copies on plus
            picks = ((0,) if c == 0 else (t,) if c == s else range(1, t) for c, s, t in zip(cls, shape, totals))
            for pick in product(*picks):
                d = sum(pick)
                if d not in dims:
                    continue
                wd = WeightData._trusted(
                    {w: a for w, a in zip(weights, pick) if a},
                    {w: t - a for w, a, t in zip(weights, pick, totals) if a < t},
                )
                system, verdict = _derive_and_eliminate(wd, "odd" if parity else "even")
                if verdict.status != "infeasible":
                    groups[parity][d, size - d][1].append((wd, system, verdict))

    enumerated = unresolved = 0
    first = None
    classes: List[DatumClassification] = []
    for (n_odd, odd), (n_even, even) in pair_sectors(p, groups[1], groups[0]):
        enumerated += n_odd * n_even
        for o, o_system, o_verdict in odd:
            for e, e_system, e_verdict in even:
                # neither sector is infeasible, so the table is feasible or unresolved
                table = DatumClassification(o.combine(e), o_system, e_system, o_verdict, e_verdict)
                if table.status == "feasible":
                    classes.append(table)
                else:
                    unresolved += 1
                    first = first or table
    if unresolved:
        raise UnresolvedRemains(f"{unresolved} weight table(s) unresolved, first: {first.weight_data.describe()}")
    for _, kept in (*groups[1].values(), *groups[0].values()):
        for wd, system, verdict in kept:
            if verdict.status == "feasible":
                _check_feasible_shape(wd, system, verdict)
    classes.sort(key=lambda c: c.standard_copies, reverse=True)
    return ClassificationSummary(p=p, enumerated=enumerated, classes=classes)
