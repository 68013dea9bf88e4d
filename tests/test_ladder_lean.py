"""The lean sector engine against the per-block reference in ladder_reference.

``geodesy.ladder`` keeps every system as plain tuples; ``ladder_reference``
is the engine it replaced, with one ``BlockUnknown`` per block.  On every
sector of rank p <= 6 the two must give equal verdicts (status, every
certificate step field, witness) and accept the same certificates.  On
every table of rank p <= 4 and both its sectors the lean system must equal
the reference ``BlockSystem``: the same equations once the reference is
written as tuples, the same block labels, ``block_slot`` placing every
block where ``BlockUnknown.slot`` does, and ``block_cells`` giving the flat
positions of those spans in X and, mirrored, in Y.  On arbitrary tables,
inadmissible ones included, the two must agree except where the reference
ends in its R4 mismatch contradiction, which the lean engine reports as
unresolved.

The package checks a witness in integers; ``ladder_reference`` keeps the
check that substituted it as matrices.  The two must accept and refuse
the same witnesses: on every feasible sector of rank p <= 5 its own
witness and the witnesses one change away, on every sector of rank p <= 4
and on arbitrary tables the block assignments of zero and identity
blocks, and on hand-built systems with product equations or with blocks
that do not fit their equations.  Where the matrix check fails on a shape
mismatch, the integer check must raise WitnessError.
"""

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladder_reference as ref
from geodesy.ladder import (
    CROSS,
    INNER,
    MINUS_RAISE,
    OUTER,
    PLUS_RAISE,
    ReplayError,
    SectorSystem,
    TerminalBlock,
    Verdict,
    WitnessClass,
    WitnessError,
    block_cells,
    block_label,
    block_slot,
    derive_constraints,
    eliminate,
    replay_certificate,
    verify_witness,
)
from geodesy.weights import WeightData, enumerate_sectors, enumerate_weight_data


@lru_cache(maxsize=None)
def sectors(max_p: int) -> tuple:
    """Every distinct (sector name, table) of the ranks 1..max_p."""
    seen = {}
    for p in range(1, max_p + 1):
        odd, even = enumerate_sectors(p)
        for name, groups in (("odd", odd), ("even", even)):
            for group in groups.values():
                for wd in group:
                    seen[name, wd] = None
    return tuple(seen)


def test_sector_list_covers_every_rank():
    assert len(sectors(6)) == 8165


def test_verdicts_equal_reference_on_every_sector():
    for name, wd in sectors(6):
        new = eliminate(derive_constraints(wd, sector=name))
        old = ref.eliminate(ref.derive_constraints(wd, sector=name))
        assert new == old, (name, wd)


def _accepts(replay, system, verdict) -> bool:
    try:
        replay(system, verdict)
    except ReplayError:
        return False
    return True


def _variants(certificate: tuple) -> list:
    """The certificate and certificates that differ from it in one way."""
    out = [certificate, certificate[-1:], certificate[:-1], certificate[::-1], certificate + certificate[-1:]]
    swap = {"R1": "R2", "R2": "R1", "R3": "R1"}
    for i, step in enumerate(certificate):
        for change in (
            {"rule": swap[step.rule]},
            {"weight": step.weight + 2},
            {"side": "minus" if step.side == "plus" else "plus"},
            {"sector": "even" if step.sector == "odd" else "odd"},
            {"conclusion": step.conclusion.replace("1", "2", 1)},
            {"trace_values": step.trace_values + (0,)},
        ):
            out.append(certificate[:i] + (dataclasses.replace(step, **change),) + certificate[i + 1 :])
    return out


def test_replay_accepts_what_reference_accepts_on_every_sector():
    previous = ()
    for name, wd in sectors(6):
        system = derive_constraints(wd, sector=name)
        ref_system = ref.derive_constraints(wd, sector=name)
        verdict = ref.eliminate(ref_system)
        candidates = [previous]  # another sector's certificate
        if verdict.status == "infeasible":
            assert _accepts(replay_certificate, system, verdict)
            candidates += _variants(verdict.certificate)
            previous = verdict.certificate
        for certificate in candidates:
            claimed = Verdict("infeasible", name, certificate=certificate)
            new = _accepts(replay_certificate, system, claimed)
            assert new == _accepts(ref.replay_certificate, ref_system, claimed), (name, wd, certificate)


def _key(unknown: ref.BlockUnknown) -> tuple:
    return unknown.kind, unknown.source_weight


def _as_tuples(ref_system: ref.BlockSystem) -> tuple:
    """The reference equations written as the lean (equations, products).

    A lean product pair stands for E* Z when its left block is plus_raise
    and for -Z F* otherwise; every reference product term must be that one.
    """
    equations = tuple(
        (eq.side, eq.weight, eq.dim, eq.rhs, tuple((t.sign, _key(t.unknown), t.flavor) for t in eq.terms))
        for eq in ref_system.diagonal
    )
    products = []
    for ceq in ref_system.cross:
        for t in ceq.terms:
            e_star_z = t.left[0].kind == PLUS_RAISE
            assert (t.sign, t.left[1], t.right[1]) == ((+1, True, False) if e_star_z else (-1, False, True))
        products.append((ceq.weight, tuple((_key(t.left[0]), _key(t.right[0])) for t in ceq.terms)))
    return equations, tuple(products)


def assert_equals_reference(system, ref_system):
    assert (system.weight_data, system.sector) == (ref_system.weight_data, ref_system.sector)
    assert (system.equations, system.products) == _as_tuples(ref_system)
    blocks = system.blocks()
    assert list(blocks) == sorted(ref_system.unknowns)
    layout = system.weight_data.layout()
    for label, key in blocks.items():
        unknown = ref_system.unknowns[label]
        assert key == _key(unknown)
        rows, cols, sign = block_slot(key, layout)
        assert (rows, cols, sign) == unknown.slot(layout)
        assert (rows[1] - rows[0], cols[1] - cols[0]) == (unknown.rows, unknown.cols)
        # block_cells: entry (i, j) at X[r0 + i, c0 + j] and Y[c0 + j, r0 + i], row-major
        n = layout.size
        cells = [(i, j) for i in range(*rows) for j in range(*cols)]
        assert block_cells(key, layout) == (
            (unknown.rows, unknown.cols),
            [i * n + j for i, j in cells],
            [j * n + i for i, j in cells],
            sign,
        )


def test_lean_system_equals_reference_on_every_table():
    for p in range(1, 5):
        for wd in enumerate_weight_data(p):
            for table, sector in ((wd, None), (wd.odd_sector(), "odd"), (wd.even_sector(), "even")):
                assert_equals_reference(
                    derive_constraints(table, sector=sector), ref.derive_constraints(table, sector=sector)
                )


WEIGHTS = st.integers(-7, 7)
MULTIPLICITIES = st.integers(1, 3)


@st.composite
def tables(draw):
    """Tables of one parity or of both, mostly inadmissible.  Half of them
    get the odd part {1:a} / {-1:b}, the one terminal odd shape, so that
    the reference's R4 mismatch fires (a != b, even part feasible)."""
    parity = draw(st.sampled_from([0, 1, None]))
    weights = WEIGHTS if parity is None else WEIGHTS.filter(lambda w: w % 2 == parity)
    side = st.dictionaries(weights, MULTIPLICITIES, max_size=6)
    plus, minus = draw(side), draw(side)
    if draw(st.booleans()):
        plus = {w: m for w, m in plus.items() if w % 2 == 0}
        minus = {w: m for w, m in minus.items() if w % 2 == 0}
        plus[1], minus[-1] = draw(MULTIPLICITIES), draw(MULTIPLICITIES)
    return WeightData(plus, minus)


R4_TAIL = "; trace/rank identity fails"


@settings(max_examples=400, deadline=None)
@given(tables())
def test_arbitrary_tables_agree_with_reference(wd):
    system = derive_constraints(wd)
    ref_system = ref.derive_constraints(wd)
    assert_equals_reference(system, ref_system)
    new, old = eliminate(system), ref.eliminate(ref_system)
    if old.certificate and old.certificate[-1].rule == "R4":
        # the reference's terminal mismatch is reported, not certified
        assert new.status == "unresolved" and new.certificate == ()
        assert new.detail + R4_TAIL == old.certificate[-1].conclusion
        return
    assert new == old
    if old.status == "infeasible":
        replay_certificate(system, old)


def test_reference_r4_conclusion_ends_with_the_mismatch_tail():
    # the table of test_rank_mismatch_is_unresolved, through the reference
    old = ref.eliminate(ref.derive_constraints(WeightData({1: 2}, {-1: 1})))
    assert [s.rule for s in old.certificate] == ["R4"]
    assert old.certificate[0].conclusion.endswith(R4_TAIL)


# -- the integer witness check against the matrix substitution ---------


def _witness_accepts(verify, system, witness) -> bool:
    try:
        verify(system, witness)
    except WitnessError:
        return False
    return True


def assert_witness_check_equals_reference(system, witness):
    new = _witness_accepts(verify_witness, system, witness)
    assert new == _witness_accepts(ref.verify_witness, system, witness), (system, witness)
    return new


def _identity(system, label) -> TerminalBlock:
    """The block as a paired terminal block, dim its rows."""
    (r0, r1), _, _ = block_slot(system.blocks()[label], system.weight_data.layout())
    return TerminalBlock(label, "paired", 1, r1 - r0)


def _assignments(system) -> list:
    """Witnesses that make every block zero, every block the identity
    (dim its rows), and each block alone the identity."""
    labels = tuple(system.blocks())
    out = [WitnessClass(labels, ()), WitnessClass((), tuple(_identity(system, label) for label in labels))]
    for label in labels:
        out.append(WitnessClass(tuple(other for other in labels if other != label), (_identity(system, label),)))
    return out


def _witness_variants(system, witness) -> list:
    """The witness and the witnesses one change away from it: a forced
    block made terminal, a terminal block made forced or dropped, and a
    terminal block with a wrong scale_sq, dim or flavor."""
    forced, terminal = witness.forced_zero, witness.terminal
    out = [witness]
    for i, label in enumerate(forced):
        out.append(WitnessClass(forced[:i] + forced[i + 1 :], terminal + (_identity(system, label),)))
    for i, tb in enumerate(terminal):
        rest = terminal[:i] + terminal[i + 1 :]
        out += [WitnessClass(forced + (tb.label,), rest), WitnessClass(forced, rest)]
        for change in ({"scale_sq": 2}, {"dim": tb.dim + 1}, {"flavor": "bogus"}):
            out.append(WitnessClass(forced, rest[:i] + (dataclasses.replace(tb, **change),) + rest[i:]))
    return out


def test_witness_check_equals_reference_on_every_feasible_sector():
    feasible = 0
    for name, wd in sectors(5):
        system = derive_constraints(wd, sector=name)
        verdict = eliminate(system)
        if verdict.status != "feasible":
            continue
        feasible += 1
        variants = _witness_variants(system, verdict.witness)
        accepted = [assert_witness_check_equals_reference(system, witness) for witness in variants]
        # the witness itself holds; every change of a block breaks an equation
        assert accepted == [True] + [False] * (len(variants) - 1), (name, wd)
    # {1:m} / {-1:m} for m = 0..5, and {0:a} / {0:b} for a, b = 0..5 with a + b even
    assert feasible == 6 + 18


def test_witness_check_equals_reference_on_every_sector():
    accepted = 0
    for name, wd in sectors(4):
        system = derive_constraints(wd, sector=name)
        for witness in _assignments(system):
            accepted += assert_witness_check_equals_reference(system, witness)
    assert accepted > 0


@settings(max_examples=200, deadline=None)
@given(tables())
def test_witness_check_equals_reference_on_arbitrary_tables(wd):
    system = derive_constraints(wd)
    for witness in _assignments(system):
        assert_witness_check_equals_reference(system, witness)


def _product_systems() -> list:
    """(system, witness) pairs of the hand-built product-equation systems
    of test_ladder: a crossing block tied by a product equation to a forced
    raising block, the same with the raising block's equation relaxed so
    that only the product equation fails, and the pairs E* Z_out and
    -Z_in F* at one weight, together and each alone."""
    e, z = (PLUS_RAISE, -1), (CROSS, -1)
    wd = WeightData({1: 1, -1: 1}, {1: 1, -1: 1})
    products = ((-1, ((e, z),)),)
    tied = SectorSystem(
        wd, "odd",
        (("plus", 1, 1, 1, ((+1, z, OUTER),)), ("plus", -1, 1, 0, ((+1, e, INNER),)), ("minus", -1, 1, -1, ((-1, z, INNER),))),
        products,
    )
    relaxed = SectorSystem(
        wd, "odd",
        (("plus", 1, 1, 1, ((+1, z, OUTER),)), ("plus", -1, 1, 1, ((+1, e, INNER),)), ("minus", -1, 1, -1, ((-1, z, INNER),))),
        products,
    )
    both_identity = WitnessClass((), tuple(TerminalBlock(block_label(*key), "paired", 1, 1) for key in (e, z)))
    out = [(tied, eliminate(tied).witness), (relaxed, both_identity)]

    e, z_out, z_in, f = (PLUS_RAISE, 1), (CROSS, 1), (CROSS, -1), (MINUS_RAISE, -1)
    gram = (
        ("plus", 3, e, OUTER), ("plus", 1, e, INNER),
        ("plus", 3, z_out, OUTER), ("minus", 1, z_out, INNER),
        ("plus", 1, z_in, OUTER), ("minus", -1, z_in, INNER),
        ("minus", 1, f, OUTER), ("minus", -1, f, INNER),
    )
    equations = tuple((side, w, 1, 1, ((+1, key, flavor),)) for side, w, key, flavor in gram)
    wd = WeightData({3: 1, 1: 1}, {1: 1, -1: 1})
    every_identity = WitnessClass(
        (), tuple(TerminalBlock(block_label(*key), "paired", 1, 1) for key in (e, z_out, z_in, f))
    )
    for pairs in (((e, z_out), (z_in, f)), ((e, z_out),), ((z_in, f),)):
        out.append((SectorSystem(wd, "mixed", equations, ((1, pairs),)), every_identity))
    return out


def test_witness_check_equals_reference_on_hand_built_product_equations():
    accepted = []
    for system, witness in _product_systems():
        accepted.append(assert_witness_check_equals_reference(system, witness))
        for other in _assignments(system) + _witness_variants(system, witness):
            assert_witness_check_equals_reference(system, other)
    assert accepted == [True, False, True, False, False]


def test_a_block_that_does_not_fit_its_equation_is_refused():
    # cross[-1->1] of {1: 2} / {-1: 2} is 2x2, but these equations are on
    # one dimension: the matrix substitution fails on a shape mismatch, for
    # the identity and for zero alike, and the integer check refuses both
    z = (CROSS, -1)
    label = block_label(*z)
    system = SectorSystem(
        WeightData({1: 2}, {-1: 2}), "odd", (("plus", 1, 1, 1, ((+1, z, OUTER),)), ("minus", -1, 1, -1, ((-1, z, INNER),)))
    )
    # in a product equation: plus_raise[1->3] is 1x2 and cross[-1->1] is
    # 2x1, so E* Z, which needs equal rows, is no product
    e, z = (PLUS_RAISE, 1), (CROSS, -1)
    product = SectorSystem(WeightData({3: 1, 1: 2}, {1: 1, -1: 1}), "mixed", (), ((1, ((e, z),)),))
    # two products that each exist but differ in shape: E* Z is 2x1 for
    # the blocks leaving 1 and 1x1 for those leaving -1, and no sum
    leaving = ((PLUS_RAISE, 1), (CROSS, 1)), ((PLUS_RAISE, -1), (CROSS, -1))
    mixed = SectorSystem(WeightData({3: 1, 1: 2, -1: 1}, {1: 1, -1: 1}), "mixed", (), ((1, leaving),))
    for system, witness in (
        (system, WitnessClass((), (TerminalBlock(label, "paired", 1, 2),))),
        (system, WitnessClass((label,), ())),
        (product, WitnessClass((block_label(*e), block_label(*z)), ())),
        (mixed, WitnessClass(tuple(mixed.blocks()), ())),
    ):
        with pytest.raises(ValueError, match="shape mismatch|cannot multiply"):
            ref.verify_witness(system, witness)
        with pytest.raises(WitnessError, match="fit"):
            verify_witness(system, witness)
