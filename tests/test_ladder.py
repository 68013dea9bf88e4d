import dataclasses
import inspect
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodesy.candidates import lift_classification
from geodesy.ladder import (
    CROSS,
    INNER,
    MINUS_RAISE,
    OUTER,
    PLUS_RAISE,
    CertificateStep,
    ReplayError,
    SectorSystem,
    TerminalBlock,
    TheoremViolation,
    UnresolvedRemains,
    WINDOWS,
    Verdict,
    WitnessClass,
    WitnessError,
    _derive_and_eliminate,
    _head_status,
    block_label,
    head_keys,
    block_slot,
    classify_weight_data,
    derive_constraints,
    eliminate,
    replay_certificate,
    verify_theorem,
    verify_witness,
)
from geodesy.cli import MAX_P
from geodesy.weights import WeightData, enumerate_sectors, enumerate_weight_data, pair_sectors


# -- derivation ---------------------------------------------------------


def test_derive_standard_pattern():
    for m in (1, 2, 3):
        wd = WeightData({1: m}, {-1: m})
        system = derive_constraints(wd)
        assert system.blocks() == {"cross[-1->1]": (CROSS, -1)}
        (r0, r1), (c0, c1), _ = block_slot((CROSS, -1), wd.layout())
        assert r1 - r0 == m and c1 - c0 == m
        plus_eq, minus_eq = system.equations
        side, weight, dim, rhs, terms = plus_eq
        assert side == "plus" and weight == 1 and rhs == 1 and dim == m
        assert terms == ((+1, (CROSS, -1), OUTER),)
        side, weight, dim, rhs, terms = minus_eq
        assert side == "minus" and rhs == -1 and dim == m
        assert terms == ((-1, (CROSS, -1), INNER),)
        assert system.products == ()
        assert system.sector == "odd"


def test_derive_end_of_even_sector_pattern():
    wd = WeightData({2: 1}, {0: 1, -2: 1})
    system = derive_constraints(wd)
    assert sorted(system.blocks()) == ["cross[0->2]", "minus_raise[-2->0]"]
    side, weight, dim, rhs, terms = next(eq for eq in system.equations if eq[:2] == ("minus", 0))
    f_in = system.blocks()["minus_raise[-2->0]"]
    z_out = system.blocks()["cross[0->2]"]
    assert terms == ((-1, f_in, OUTER), (-1, z_out, INNER))
    assert rhs == 0


def test_derive_trivial_sector_has_no_unknowns():
    for p in (1, 2, 3):
        system = derive_constraints(WeightData({0: p}, {0: p}))
        assert system.blocks() == {}
        assert all(terms == () and rhs == 0 for _, _, _, rhs, terms in system.equations)
        assert system.products == ()


def test_derive_emits_product_equations():
    # both blocks hold weights 1 and -1; at weight 1 only the incoming
    # product survives, at weight -1 only the outgoing one.  A pair whose
    # left block is plus_raise stands for E* Z, any other for -Z F*.
    wd = WeightData({1: 1, -1: 1}, {1: 1, -1: 1})
    system = derive_constraints(wd)
    blocks = system.blocks()
    assert [w for w, _ in system.products] == [1, -1]
    (_, at_one), (_, at_minus_one) = system.products
    # -Z F* at weight 1
    assert at_one == ((blocks["cross[-1->1]"], blocks["minus_raise[-1->1]"]),)
    # E* Z at weight -1
    assert at_minus_one == ((blocks["plus_raise[-1->1]"], blocks["cross[-1->1]"]),)


def test_telescoping_trace_structure():
    # summing the plus-side equations must cancel every raising Gram term
    # and leave each incoming crossing term exactly once
    for p in (1, 2, 3):
        for wd in enumerate_weight_data(p):
            system = derive_constraints(wd)
            net = {}
            crossings = set()
            rhs_total = 0
            for side, _, dim, rhs, terms in system.equations:
                if side != "plus":
                    continue
                rhs_total += rhs * dim
                for sign, key, flavor in terms:
                    if key[0] == PLUS_RAISE:
                        net[key] = net.get(key, 0) + sign
                    else:
                        assert key[0] == CROSS and flavor == OUTER and sign == 1
                        crossings.add(block_label(*key))
            assert all(v == 0 for v in net.values())
            assert rhs_total == sum(w * m for w, m in wd.plus.items())
            expected_crossings = {
                label for label, (kind, _) in system.blocks().items() if kind == CROSS
            }
            assert crossings == expected_crossings


# -- elimination --------------------------------------------------------


def test_standard_pattern_is_feasible():
    for m in (1, 2, 4):
        system = derive_constraints(WeightData({1: m}, {-1: m}))
        verdict = eliminate(system)
        assert verdict.status == "feasible"
        assert verdict.witness.forced_zero == ()
        (terminal,) = verdict.witness.terminal
        assert terminal.label == "cross[-1->1]"
        assert terminal.scale_sq == 1 and terminal.dim == m
        verify_witness(system, verdict.witness)


def test_tall_odd_ladder_is_infeasible_by_r1():
    system = derive_constraints(WeightData({3: 1, 1: 1}, {-1: 1, -3: 1}))
    verdict = eliminate(system)
    assert verdict.status == "infeasible"
    (step,) = verdict.certificate
    assert step.rule == "R1" and step.side == "plus" and step.weight == 3
    replay_certificate(system, verdict)


def test_end_of_even_sector_contradiction():
    system = derive_constraints(WeightData({2: 1}, {0: 1, -2: 1}))
    verdict = eliminate(system)
    assert verdict.status == "infeasible"
    assert [s.rule for s in verdict.certificate] == ["R3", "R1"]
    forcing, final = verdict.certificate
    assert forcing.side == "minus" and forcing.weight == 0
    assert "cross[0->2]" in forcing.conclusion and "minus_raise[-2->0]" in forcing.conclusion
    assert final.side == "plus" and final.weight == 2
    assert "0 negated" in final.conclusion  # the left side is empty by then
    assert final.trace_values == (0, 2)
    replay_certificate(system, verdict)


def test_negative_plus_weight_fires_r2():
    system = derive_constraints(WeightData({-1: 1}, {1: 1}))
    verdict = eliminate(system)
    assert verdict.status == "infeasible"
    assert verdict.certificate[-1].rule in ("R1", "R2")


def test_rank_mismatch_is_unresolved():
    # zz* = 1 on a 2-dim space but z*z = 1 on a 1-dim space cannot both
    # hold, but no rule certifies it: only an inadmissible table has such a
    # terminal mismatch, and it is reported, not decided
    system = derive_constraints(WeightData({1: 2}, {-1: 1}))
    verdict = eliminate(system)
    assert verdict.status == "unresolved"
    assert verdict.certificate == ()
    assert verdict.detail == "block cross[-1->1] has U U* = 1*I on dim 2 but U* U = 1*I on dim 1"


def test_terminal_scale_other_than_one_is_unresolved():
    # U U* = U* U = 2*I is solvable, but the witness is the identity, which
    # does not solve it; derive_constraints never builds such a system
    key = (CROSS, -1)
    system = SectorSystem(
        weight_data=WeightData({1: 1}, {-1: 1}),
        sector="odd",
        equations=(("plus", 1, 1, 2, ((+1, key, OUTER),)), ("minus", -1, 1, -2, ((-1, key, INNER),))),
    )
    verdict = eliminate(system)
    assert verdict.status == "unresolved"
    assert verdict.detail == "block cross[-1->1] has U U* = U* U = 2*I, not the identity"


def test_sign_lemmas_via_rules():
    # any enumerated even sector carrying a negative plus weight or a positive
    # minus weight must be eliminated by a sign rule
    for p in (2, 3):
        for wd in enumerate_weight_data(p):
            even = wd.even_sector()
            if even.is_empty():
                continue
            bad_plus = even.plus and min(even.plus) < 0
            bad_minus = even.minus and max(even.minus) > 0
            if not (bad_plus or bad_minus):
                continue
            verdict = eliminate(derive_constraints(even, sector="even"))
            assert verdict.status == "infeasible"
            assert verdict.certificate[-1].rule in ("R1", "R2")


def test_unresolved_is_reported_not_hidden():
    a = (PLUS_RAISE, 0)
    b = (CROSS, 0)
    system = SectorSystem(
        weight_data=WeightData({2: 1, 0: 1}, {0: 1}),
        sector="even",
        equations=(
            ("plus", 2, 1, 2, ((-1, a, OUTER), (+1, b, OUTER))),
            ("plus", 0, 1, 2, ((+1, a, INNER),)),
            ("minus", 0, 1, -2, ((-1, b, INNER),)),
        ),
    )
    verdict = eliminate(system)
    assert verdict.status == "unresolved"
    assert "plus weight 2" in verdict.detail


def _one_sided_system() -> SectorSystem:
    """A block that sits in its OUTER equation only: U U* = I on a 2-dim
    space with U 2x1, which no 2x1 block satisfies.  derive_constraints
    never builds such a system."""
    return SectorSystem(
        weight_data=WeightData({2: 2, 0: 1}, {0: 1}),
        sector="even",
        equations=(("plus", 2, 2, 1, ((+1, (PLUS_RAISE, 0), OUTER),)),),
    )


def test_one_sided_block_is_unresolved():
    verdict = eliminate(_one_sided_system())
    assert verdict.status == "unresolved"
    assert verdict.detail == "block plus_raise[0->2] occurs in one Gram equation only (outer)"


def test_replay_rejects_any_r4_step():
    # R4 is no rule of the engine: a step naming it is rejected wherever it
    # stands, whether or not the block's equations would disagree
    mismatch = derive_constraints(WeightData({1: 2}, {-1: 1}))
    r4 = CertificateStep(
        "R4", "odd", "plus", 1,
        "block cross[-1->1] has U U* = 1*I on dim 2 but U* U = 1*I on dim 1; trace/rank identity fails",
        (2, 1),
    )
    with pytest.raises(ReplayError, match="step 0: unknown rule R4"):
        replay_certificate(mismatch, Verdict("infeasible", "odd", certificate=(r4,)))
    one_sided = CertificateStep("R4", "even", "plus", 2, "block plus_raise[0->2] needs rank 2", (2, 1))
    with pytest.raises(ReplayError, match="step 0: unknown rule R4"):
        replay_certificate(_one_sided_system(), Verdict("infeasible", "even", certificate=(one_sided,)))
    system = derive_constraints(WeightData({2: 1}, {0: 1, -2: 1}))
    forcing, final = eliminate(system).certificate
    after_r3 = CertificateStep("R4", "even", final.side, final.weight, final.conclusion, final.trace_values)
    with pytest.raises(ReplayError, match="step 1: unknown rule R4"):
        replay_certificate(system, Verdict("infeasible", "even", certificate=(forcing, after_r3)))


def test_unresolved_product_equation():
    a = (PLUS_RAISE, -1)
    z = (CROSS, -1)
    system = SectorSystem(
        weight_data=WeightData({1: 1, -1: 1}, {1: 1, -1: 1}),
        sector="odd",
        equations=(
            ("plus", 1, 1, 1, ((+1, a, INNER),)),
            ("minus", -1, 1, -1, ((-1, z, INNER),)),
        ),
        products=((-1, ((a, z),)),),
    )
    verdict = eliminate(system)
    assert verdict.status == "unresolved"
    assert "product equation" in verdict.detail


def test_sector_independence():
    base = WeightData({1: 1, 0: 1}, {-1: 1, 0: 1})
    altered = WeightData({1: 1, 2: 1}, {-1: 1, -2: 1})
    v1 = eliminate(derive_constraints(base.odd_sector(), sector="odd"))
    v2 = eliminate(derive_constraints(altered.odd_sector(), sector="odd"))
    assert v1 == v2


# -- certificates and witnesses ----------------------------------------


def test_replay_rejects_tampered_certificate():
    system = derive_constraints(WeightData({2: 1}, {0: 1, -2: 1}))
    verdict = eliminate(system)
    good = verdict.certificate
    wrong_weight = (good[0], CertificateStep("R1", good[1].sector, "plus", 0, good[1].conclusion, good[1].trace_values))
    with pytest.raises(ReplayError):
        replay_certificate(system, Verdict("infeasible", system.sector, certificate=wrong_weight))
    reordered = (good[1],)
    with pytest.raises(ReplayError):
        replay_certificate(system, Verdict("infeasible", system.sector, certificate=reordered))
    truncated = (good[0],)
    with pytest.raises(ReplayError):
        replay_certificate(system, Verdict("infeasible", system.sector, certificate=truncated))
    with pytest.raises(ReplayError):
        replay_certificate(system, Verdict("feasible", system.sector))


@pytest.mark.parametrize("field", ["side", "weight"])
def test_replay_refuses_an_unhashable_side_or_weight_by_step(field):
    # a step built in code, not read through from_json_dict, may carry a
    # list; replay names the step instead of failing on the equation lookup
    system = derive_constraints(WeightData({3: 1, 1: 1}, {-1: 1, -3: 1}))
    good = eliminate(system).certificate
    last = good[-1]
    bad = dataclasses.replace(last, **{field: [getattr(last, field)]})
    message = f"step {len(good) - 1}: side .* and weight .* must be a string and an integer"
    with pytest.raises(ReplayError, match=message):
        replay_certificate(system, Verdict("infeasible", system.sector, certificate=(*good[:-1], bad)))


def test_witness_substitution_checks_all_equations():
    system = derive_constraints(WeightData({1: 2}, {-1: 2}))
    verdict = eliminate(system)
    verify_witness(system, verdict.witness)
    from geodesy.ladder import TerminalBlock, WitnessClass

    wrong_scale = WitnessClass(
        forced_zero=verdict.witness.forced_zero,
        terminal=(TerminalBlock("cross[-1->1]", "paired", 2, 2),),
    )
    with pytest.raises(WitnessError):
        verify_witness(system, wrong_scale)
    incomplete = WitnessClass(forced_zero=(), terminal=())
    with pytest.raises(WitnessError):
        verify_witness(system, incomplete)


def test_witness_substitution_covers_product_equations():
    # hand-built system: one live crossing block plus a raising block that is
    # forced to zero, tied together by a product equation; the witness must
    # be substituted into the product equation too
    from geodesy.ladder import TerminalBlock, WitnessClass

    e = (PLUS_RAISE, -1)
    z = (CROSS, -1)
    system = SectorSystem(
        weight_data=WeightData({1: 1, -1: 1}, {1: 1, -1: 1}),
        sector="odd",
        equations=(
            ("plus", 1, 1, 1, ((+1, z, OUTER),)),
            ("plus", -1, 1, 0, ((+1, e, INNER),)),
            ("minus", -1, 1, -1, ((-1, z, INNER),)),
        ),
        products=((-1, ((e, z),)),),
    )
    e_label, z_label = "plus_raise[-1->1]", "cross[-1->1]"
    assert system.blocks() == {z_label: z, e_label: e}
    # the pair's left block is plus_raise, so it stands for E* Z
    assert system.products == ((-1, ((e, z),)),)
    verdict = eliminate(system)
    assert verdict.status == "feasible"
    assert verdict.witness.forced_zero == (e_label,)
    verify_witness(system, verdict.witness)
    # a block that only a product equation names is a block all the same
    assert dataclasses.replace(system, equations=system.equations[:1]).blocks() == system.blocks()

    # values satisfying every diagonal equation can still break the product
    # equation; the check must reach it
    relaxed = SectorSystem(
        weight_data=system.weight_data,
        sector="odd",
        equations=(
            ("plus", 1, 1, 1, ((+1, z, OUTER),)),
            ("plus", -1, 1, 1, ((+1, e, INNER),)),
            ("minus", -1, 1, -1, ((-1, z, INNER),)),
        ),
        products=system.products,
    )
    bad = WitnessClass(
        forced_zero=(),
        terminal=(
            TerminalBlock(e_label, "paired", 1, 1),
            TerminalBlock(z_label, "paired", 1, 1),
        ),
    )
    with pytest.raises(WitnessError, match="product equation"):
        verify_witness(relaxed, bad)


def test_witness_product_equation_has_both_signs():
    # hand-built: at weight 1 the pairs (E, Z_out) and (Z_in, F) stand for
    # E* Z_out - Z_in F*; with every block 1 the two cancel exactly, and
    # either pair alone is 1 or -1
    from geodesy.ladder import TerminalBlock, WitnessClass

    e, z_out, z_in, f = (PLUS_RAISE, 1), (CROSS, 1), (CROSS, -1), (MINUS_RAISE, -1)
    gram = (
        ("plus", 3, e, OUTER), ("plus", 1, e, INNER),
        ("plus", 3, z_out, OUTER), ("minus", 1, z_out, INNER),
        ("plus", 1, z_in, OUTER), ("minus", -1, z_in, INNER),
        ("minus", 1, f, OUTER), ("minus", -1, f, INNER),
    )
    equations = tuple((side, w, 1, 1, ((+1, key, flavor),)) for side, w, key, flavor in gram)
    wd = WeightData({3: 1, 1: 1}, {1: 1, -1: 1})
    witness = WitnessClass(
        forced_zero=(),
        terminal=tuple(TerminalBlock(block_label(*key), "paired", 1, 1) for key in (e, z_out, z_in, f)),
    )
    both = SectorSystem(wd, "mixed", equations, ((1, ((e, z_out), (z_in, f))),))
    verify_witness(both, witness)
    for pairs in (((e, z_out),), ((z_in, f),)):
        with pytest.raises(WitnessError, match="product equation at weight 1"):
            verify_witness(SectorSystem(wd, "mixed", equations, ((1, pairs),)), witness)


def lift_with(system: SectorSystem, witness: WitnessClass):
    """lift_classification of the system's table, posed as feasible, with
    witness in place of the verdict of the system's sector."""
    result = classify_weight_data(system.weight_data)
    verdict = dataclasses.replace(getattr(result, system.sector), witness=witness)
    return lift_classification(SimpleNamespace(**{**vars(result), system.sector: verdict}, status="feasible"))


def test_witness_fields_are_checked():
    from geodesy.ladder import TerminalBlock, WitnessClass

    system = derive_constraints(WeightData({1: 2}, {-1: 2}))
    verify_witness(system, eliminate(system).witness)
    block = "cross[-1->1]"
    paired = TerminalBlock(block, "paired", 1, 2)
    for terminal in (
        (TerminalBlock(block, "paired", 1, 5),),  # forged dim
        (TerminalBlock(block, "bogus", 1, 2),),  # forged flavor
        (TerminalBlock(block, "paired", 4, 2),),  # a scale the equations do not admit
        (paired, TerminalBlock("cross[1->3]", "paired", 1, 2)),  # no such block
        (paired, paired),  # named twice
    ):
        with pytest.raises(WitnessError):
            verify_witness(system, WitnessClass(forced_zero=(), terminal=terminal))
    with pytest.raises(WitnessError, match="twice"):
        verify_witness(system, WitnessClass(forced_zero=(block,), terminal=(paired,)))
    with pytest.raises(WitnessError, match="no block"):
        lift_with(system, WitnessClass(forced_zero=("plus_raise[-1->1]",), terminal=()))


def test_step_reader_rejects_what_it_used_to_coerce():
    system = derive_constraints(WeightData({2: 1}, {0: 1, -2: 1}))
    verdict = eliminate(system)
    docs = [step.to_json_dict() for step in verdict.certificate]
    steps = tuple(CertificateStep.from_json_dict(doc) for doc in docs)
    assert steps == verdict.certificate
    replay_certificate(system, Verdict("infeasible", system.sector, certificate=steps))
    for field, value in (
        ("weight", "2"), ("weight", 0.25), ("weight", True), ("weight", float(docs[0]["weight"])),
        ("trace_values", ["0", 0]), ("trace_values", [0.0, 0]), ("trace_values", [False, 0]),
        ("trace_values", "00"), ("trace_values", {"0": 0}),
    ):
        with pytest.raises(ValueError):
            CertificateStep.from_json_dict({**docs[0], field: value})


def test_witness_fields_must_have_their_types():
    # a certificate file can hold any JSON value in a witness field; one
    # that equals the right value without being of its type (True == 1,
    # 1.0 == 1) is refused, and so is a label that cannot be looked up
    from geodesy.ladder import TerminalBlock, WitnessClass

    system = derive_constraints(WeightData({1: 1}, {-1: 1}))
    block = "cross[-1->1]"
    for terminal in (
        TerminalBlock(block, "paired", True, 1.0),
        TerminalBlock(block, "paired", True, 1),
        TerminalBlock(block, "paired", 1.0, 1),
        TerminalBlock(block, "paired", 1, 1.0),
        TerminalBlock(block, "paired", 1, True),
        TerminalBlock(block, ["paired"], 1, 1),
        TerminalBlock(block, None, 1, 1),
        TerminalBlock([block], "paired", 1, 1),
        TerminalBlock(None, "paired", 1, 1),
    ):
        for check in (verify_witness, lift_with):
            with pytest.raises(WitnessError):
                check(system, WitnessClass(forced_zero=(), terminal=(terminal,)))
    for label in ([block], None, 1, ("cross", -1)):
        for check in (verify_witness, lift_with):
            with pytest.raises(WitnessError, match="no block"):
                check(system, WitnessClass(forced_zero=(label,), terminal=()))
    verify_witness(system, WitnessClass(forced_zero=(), terminal=(TerminalBlock(block, "paired", 1, 1),)))


def test_witness_validator_messages_name_labels_in_label_order():
    from geodesy.ladder import TerminalBlock

    system = derive_constraints(WeightData({1: 2}, {-1: 2}))
    block = "cross[-1->1]"
    for witness, message in (
        (WitnessClass(("bogus",), ()), "witness names 'bogus', which is no block of the system"),
        (WitnessClass((block, block), ()), "witness names block cross[-1->1] twice"),
        (
            WitnessClass((), (TerminalBlock(block, "paired", 1.0, 2),)),
            "terminal block cross[-1->1] is 2x2, but the witness has flavor 'paired', scale_sq 1.0 and dim 2",
        ),
        (WitnessClass((), ()), "witness leaves blocks unassigned: ['cross[-1->1]']"),
    ):
        for check in (verify_witness, lift_with):
            with pytest.raises(WitnessError) as err:
                check(system, witness)
            assert str(err.value) == message
    # the blocks a witness leaves out are listed in label order, whatever
    # order the system's equations meet them in
    listed = 0
    for p in (1, 2, 3, 4):
        for wd in enumerate_weight_data(p):
            for sector in (wd.odd_sector(), wd.even_sector()):
                system = derive_constraints(sector)
                labels = list(system.blocks())
                if len(labels) < 2:
                    continue
                listed += 1
                with pytest.raises(WitnessError) as err:
                    verify_witness(system, WitnessClass(tuple(labels[::2]), ()))
                assert str(err.value) == f"witness leaves blocks unassigned: {labels[1::2]}"
    assert listed > 0


def test_step_reader_refuses_fields_that_are_not_strings():
    system = derive_constraints(WeightData({2: 1}, {0: 1, -2: 1}))
    docs = [step.to_json_dict() for step in eliminate(system).certificate]
    for field in ("rule", "sector", "side", "conclusion"):
        for value in ([docs[0][field]], None, 1, {"x": 1}):
            with pytest.raises(ValueError, match="must be strings"):
                CertificateStep.from_json_dict({**docs[0], field: value})


def test_step_reader_refuses_a_malformed_step():
    system = derive_constraints(WeightData({2: 1}, {0: 1, -2: 1}))
    doc = eliminate(system).certificate[0].to_json_dict()
    for step, message in (
        ("x", "step is a str, not an object"),
        ([doc], "step is a list, not an object"),
        (None, "step is a NoneType, not an object"),
        ({"rule": "R1"}, "step lacks the field 'sector'"),
        ({key: value for key, value in doc.items() if key != "trace_values"}, "step lacks the field 'trace_values'"),
        (
            {**doc, "note": "extra"},
            "step has the field 'note', which is not one of rule, sector, side, weight, conclusion, trace_values",
        ),
    ):
        with pytest.raises(ValueError) as err:
            CertificateStep.from_json_dict(step)
        assert str(err.value) == message


@pytest.mark.parametrize("record", [CertificateStep, TerminalBlock, WitnessClass, Verdict])
def test_records_take_their_fields_and_stay_frozen(record):
    # each record writes its own __init__: it must take the fields in their
    # order with their defaults, so that keyword calls and
    # dataclasses.replace build what the generated one built
    fields = dataclasses.fields(record)
    params = list(inspect.signature(record.__init__).parameters.values())[1:]
    assert [p.name for p in params] == [f.name for f in fields]
    assert [p.default for p in params] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default for f in fields
    ]
    values = [f"value {k}" for k in range(len(fields))]
    made = record(*values)
    assert dataclasses.astuple(made) == tuple(values) and made == record(**{f.name: v for f, v in zip(fields, values)})
    assert hash(made) == hash(record(*values))
    changed = dataclasses.replace(made, **{fields[0].name: "changed"})
    assert dataclasses.astuple(changed) == ("changed", *values[1:])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(made, fields[0].name, "changed")
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(made, fields[-1].name)
    if record is Verdict:
        assert Verdict("feasible", "odd") == Verdict("feasible", "odd", (), None, "")


def test_ladder_imports_only_weights():
    # the engine, replay and the witness check need no matrix kernel; a
    # witness takes matrix form only in candidates
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, geodesy.ladder; print(sorted(m for m in sys.modules if m.split('.')[0] in ('geodesy', 'numpy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out == "['geodesy', 'geodesy.ladder', 'geodesy.weights']\n"


def test_certificates_replay_for_all_small_ranks():
    for p in (1, 2, 3):
        for wd in enumerate_weight_data(p):
            result = classify_weight_data(wd)
            for system, verdict in (
                (result.odd_system, result.odd),
                (result.even_system, result.even),
            ):
                if verdict.status == "infeasible":
                    replay_certificate(system, verdict)
                else:
                    assert verdict.status == "feasible"
                    verify_witness(system, verdict.witness)


# -- whole-rank classification ------------------------------------------


def test_verify_theorem_small_ranks():
    summary = verify_theorem(1)
    assert summary.enumerated == 3
    assert [c.label() for c in summary.classes] == ["standard^1", "trivial^2"]
    assert summary.classes[0].weight_data == WeightData({1: 1}, {-1: 1})
    assert not summary.classes[0].non_embedding
    assert summary.classes[1].non_embedding

    summary2 = verify_theorem(2)
    assert summary2.unresolved == 0
    assert [c.standard_copies for c in summary2.classes] == [2, 1, 0]

    # rank 3 admits the mixed two-standards-plus-trivial class
    summary3 = verify_theorem(3)
    mixed = WeightData({1: 2, 0: 1}, {0: 1, -1: 2})
    assert any(c.weight_data == mixed for c in summary3.classes)


def test_verify_theorem_results_match_per_table_classification():
    for p in (1, 2, 3):
        summary = verify_theorem(p)
        streamed = {r.weight_data: r for r in summary.results()}
        assert len(streamed) == summary.enumerated
        assert set(streamed) == set(enumerate_weight_data(p))
        for wd, result in streamed.items():
            assert result.to_json_dict() == classify_weight_data(wd).to_json_dict()
            assert result.odd_system == derive_constraints(wd.odd_sector(), sector="odd")
            assert result.even_system == derive_constraints(wd.even_sector(), sector="even")


def trace_ladder(monkeypatch, status=None):
    """Make verify_theorem record what it does, with status(key) in place of
    _head_status, if given: returns (systems derived, head keys decided,
    sectors walked as (sector, table)), filled as it runs."""
    import geodesy.ladder as ladder_mod

    derived, keys, sectors = [], [], []
    original_derive, original_walk = ladder_mod.derive_constraints, ladder_mod._derive_and_eliminate
    status = status or _head_status

    def counting(wd, sector=None):
        derived.append((sector, wd.key()))
        return original_derive(wd, sector=sector)

    def recording(key):
        keys.append(key)
        return status(key)

    def recording_sector(wd, sector):
        sectors.append((sector, wd))
        return original_walk(wd, sector)

    monkeypatch.setattr(ladder_mod, "derive_constraints", counting)
    monkeypatch.setattr(ladder_mod, "_head_status", recording)
    monkeypatch.setattr(ladder_mod, "_derive_and_eliminate", recording_sector)
    return derived, keys, sectors


def traced_verify_theorem(monkeypatch, p, status=None):
    """verify_theorem(p) under trace_ladder: (summary, *what it recorded)."""
    import geodesy.ladder as ladder_mod

    traced = trace_ladder(monkeypatch, status)
    try:
        return (ladder_mod.verify_theorem(p), *traced)
    finally:
        monkeypatch.undo()


def test_verify_theorem_decides_each_head_key_once(monkeypatch):
    # the 27 top windows, shared by both parities, are decided first when a
    # sum has top weight 3 or more, and all the classes of a head shape
    # together, so p = 4 decides 68 keys (27 top windows and 41 small
    # supports), each derived once, and derives the 18 sectors of the
    # supports that are not infeasible; p = 5 decides the same 68 keys and
    # derives 24 sectors
    for p, enumerated, n_keys, n_derived in ((4, 533, 68, 86), (5, 2773, 68, 92)):
        summary, derived, keys, _ = traced_verify_theorem(monkeypatch, p)
        assert summary.enumerated == enumerated
        assert len(keys) == len(set(keys)) == n_keys
        assert len(derived) == n_derived


# the "-None" in the case ids names the unbounded enumeration, the one
# weight bound (2p - 1) that every table of rank p meets
@pytest.mark.parametrize("p", range(1, 10), ids="{}-None".format)
def test_verify_theorem_decides_only_the_keys_of_head_keys(monkeypatch, p):
    # a sum with top weight W <= 2 is keyed by its support inside {1, -1} or
    # {2, 0, -2}, a weight it lacks on neither side, so every key decided is
    # one of the 27 windows and 80 supports: 9 supports at p = 1, 53 keys
    # at p = 2, and from p = 3 on all the windows and the 41 supports of sums
    _, _, keys, _ = traced_verify_theorem(monkeypatch, p)
    windows = {key for key in head_keys() if key[0] >= 3}
    supports = {key for key in head_keys() if key[0] < 3}
    assert len(keys) == len(set(keys)) == {1: 9, 2: 53}.get(p, 68)
    assert set(keys) <= windows | supports
    if p >= 3:
        assert (len(set(keys) & windows), len(set(keys) & supports)) == (27, 41)


def all_sectors(p):
    """(parity, dims, sector) for every sector of enumerate_sectors, the odd ones first."""
    for parity, groups in zip((1, 0), enumerate_sectors(p)):
        for dims, group in groups.items():
            for wd in group:
                yield parity, dims, wd


def top_weight(wd):
    return max(wd.all_weights(), default=0)


@pytest.mark.parametrize("window, status", [(WINDOWS[0], "feasible"), (WINDOWS[-1], "unresolved")], ids=["first", "last"])
@pytest.mark.parametrize("p", range(2, 7))
def test_verify_theorem_refuses_a_window_that_is_not_infeasible(monkeypatch, p, window, status):
    # the walk reads only the sums with top weight W <= 2, which holds only
    # while every window is infeasible: an open window is named, and nothing
    # past the windows is decided or derived
    import geodesy.ladder as ladder_mod

    def one_open_window(key):
        real = _head_status(key)
        return status if key == window else real

    derived, keys, sectors = trace_ladder(monkeypatch, one_open_window)
    with pytest.raises(UnresolvedRemains) as err:
        ladder_mod.verify_theorem(p)
    assert str(err.value) == f"top window {window} is {status}, so no sum with top weight 3 or more is decided"
    assert keys == list(WINDOWS[: WINDOWS.index(window) + 1])
    assert sectors == [] and len(derived) == len(keys)


@pytest.mark.parametrize("p", range(1, 6), ids="{}-None".format)
def test_verify_theorem_derives_every_sector_when_no_window_is_infeasible(monkeypatch, p):
    # every head key is reported feasible. At p = 1 no window is decided and
    # every sector has top weight <= 2, so each is derived in full, once, and
    # the summary is unchanged; from p = 2 on the first window stops the run
    # before any sector is derived
    import geodesy.ladder as ladder_mod

    def feasible_head(key):
        _head_status(key)
        return "feasible"

    expected = verify_theorem(p)
    derived, keys, sectors = trace_ladder(monkeypatch, feasible_head)
    if p >= 2:
        with pytest.raises(UnresolvedRemains) as err:
            ladder_mod.verify_theorem(p)
        assert str(err.value) == f"top window {WINDOWS[0]} is feasible, so no sum with top weight 3 or more is decided"
        assert keys == [WINDOWS[0]] and sectors == [] and len(derived) == 1
        return
    summary = ladder_mod.verify_theorem(p)
    assert summary.to_json_dict() == expected.to_json_dict()
    assert [c.terminal for c in summary.classes] == [c.terminal for c in expected.classes]
    assert len(keys) == len(set(keys)) and not set(keys) & set(WINDOWS)
    assert len(sectors) == sum(1 for _ in all_sectors(p))
    assert len(derived) == len(keys) + sum(1 for _ in all_sectors(p))


@pytest.mark.parametrize("p", range(1, 6))
def test_verify_theorem_derives_every_sector_of_top_weight_2_when_no_support_is_infeasible(monkeypatch, p):
    # the windows keep their status and every support is reported open, so
    # the walk derives each sector with top weight W <= 2 in full, once,
    # and still reaches the same summary
    def open_supports(key):
        status = _head_status(key)
        return status if key[0] >= 3 else "feasible"

    expected = verify_theorem(p)
    summary, derived, keys, sectors = traced_verify_theorem(monkeypatch, p, open_supports)
    assert summary.to_json_dict() == expected.to_json_dict()
    assert [c.terminal for c in summary.classes] == [c.terminal for c in expected.classes]
    assert len(keys) == len(set(keys))
    low = [("odd" if parity else "even", wd.key()) for parity, _, wd in all_sectors(p) if top_weight(wd) <= 2]
    assert sorted((sector, wd.key()) for sector, wd in sectors) == sorted(low)
    assert len(set(low)) == len(low) and len(derived) == len(keys) + len(low)


@pytest.mark.parametrize("p", range(1, 7))
def test_verify_theorem_matches_direct_elimination_of_every_sector(p):
    # verify_theorem against the direct elimination of every sector of
    # enumerate_sectors
    groups = (defaultdict(list), defaultdict(list))  # by parity: dims -> (sector, verdict)s
    for parity, dims, wd in all_sectors(p):
        groups[parity][dims].append((wd, _derive_and_eliminate(wd, "odd" if parity else "even")[1]))
    counts, classes = Counter(), []
    for odd, even in pair_sectors(p, groups[1], groups[0]):
        odd_statuses, even_statuses = (Counter(v.status for _, v in group) for group in (odd, even))
        open_tables = (len(odd) - odd_statuses["infeasible"]) * (len(even) - even_statuses["infeasible"])
        both = odd_statuses["feasible"] * even_statuses["feasible"]
        counts.update(infeasible=len(odd) * len(even) - open_tables, unresolved=open_tables - both, feasible=both)
        classes += [
            (o.combine(e).key(), o_verdict.witness.terminal + e_verdict.witness.terminal)
            for o, o_verdict in odd if o_verdict.status == "feasible"
            for e, e_verdict in even if e_verdict.status == "feasible"
        ]
    summary = verify_theorem(p)
    assert counts["unresolved"] == 0
    assert (summary.enumerated, summary.infeasible, summary.feasible) == (
        sum(counts.values()), counts["infeasible"], counts["feasible"]
    )
    assert sorted(classes) == sorted((c.weight_data.key(), c.terminal) for c in summary.classes)


def test_verify_theorem_counts_match_per_table_classification():
    for p in (1, 2, 3, 4):
        statuses = Counter(classify_weight_data(wd).status for wd in enumerate_weight_data(p))
        counts = verify_theorem(p).to_json_dict()["counts"]
        assert counts == {"enumerated": sum(statuses.values()), "unresolved": 0, **statuses}


def test_verify_theorem_keeps_only_counts_and_feasible_sectors():
    # a sum of irreducibles is decided as it is enumerated, by counts for each
    # head class whose key is infeasible; only the counts, the key statuses,
    # the open classes of each head shape and the feasible sectors outlive it
    tracemalloc.start()
    try:
        verify_theorem(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak


def test_verify_theorem_flags_unresolved(monkeypatch):
    import geodesy.ladder as ladder_mod

    def no_contradiction(system):
        return set(), [], False

    def fake_verdict(system, *fired):
        return Verdict("unresolved", system.sector, detail="forced for the test")

    def no_results(self):
        raise AssertionError("the unresolved count and the first table come from the kept sectors")

    # naming the first unresolved table must not decide every sector again
    monkeypatch.setattr(ladder_mod.ClassificationSummary, "results", no_results)
    # every sector that is not infeasible is unresolved: the windows stay
    # infeasible, and the walk of the sums with top weight W <= 2 names the tables
    monkeypatch.setattr(ladder_mod, "_verdict", fake_verdict)
    with pytest.raises(UnresolvedRemains) as err:
        ladder_mod.verify_theorem(3)
    assert str(err.value) == "4 weight table(s) unresolved, first: plus {0:3} minus {0:3}"
    # every head key and every sector, through eliminate or not, is unresolved
    monkeypatch.setattr(ladder_mod, "_fire", no_contradiction)
    with pytest.raises(UnresolvedRemains) as err:
        ladder_mod.verify_theorem(1)
    assert str(err.value) == "3 weight table(s) unresolved, first: plus {0:1} minus {0:1}"


def test_feasible_shape_check_rejects_surviving_raising_block():
    from geodesy.ladder import _check_feasible_shape

    wd = WeightData({1: 1, 0: 1}, {-1: 1, 0: 1})
    result = classify_weight_data(wd)
    assert result.status == "feasible"
    _check_feasible_shape(wd.odd_sector(), result.odd_system, result.odd)
    _check_feasible_shape(wd.even_sector(), result.even_system, result.even)

    # tamper: pretend a raising block of either kind survived in the odd
    # sector, as a live term of its weight-1 equation
    for key in ((PLUS_RAISE, -1), (MINUS_RAISE, -3)):
        (side, w, dim, rhs, terms), *rest = result.odd_system.equations
        tampered = dataclasses.replace(
            result.odd_system, equations=((side, w, dim, rhs, terms + ((-1, key, OUTER),)), *rest)
        )
        assert block_label(*key) in tampered.blocks()
        with pytest.raises(TheoremViolation, match=r"raising block " + re.escape(block_label(*key))):
            _check_feasible_shape(wd.odd_sector(), tampered, result.odd)

    # forge a feasible verdict that forces every raising block of a sector
    # of the wrong shape
    for sector, forged, message in (
        ("odd", WeightData({1: 2}, {-1: 1}), "is not the +/-1 pattern"),
        ("even", WeightData({2: 1, 0: 1}, {0: 1, -2: 1}), "is not weight-0 trivial"),
    ):
        system = derive_constraints(forged, sector=sector)
        raising = tuple(label for label, (kind, _) in system.blocks().items() if kind != CROSS)
        verdict = Verdict("feasible", sector, witness=WitnessClass(raising, ()))
        with pytest.raises(TheoremViolation, match=re.escape(f"{sector} sector {forged.describe()} {message}")):
            _check_feasible_shape(forged, system, verdict)


def test_classification_status_combination():
    result = classify_weight_data(WeightData({2: 1, 1: 1}, {0: 1, -1: 1, -2: 1}))
    assert result.odd.status == "feasible"
    assert result.even.status == "infeasible"
    assert result.status == "infeasible"


def test_no_sector_of_small_rank_is_unresolved_or_ends_in_r4():
    # the terminal mismatch that R4 used to certify needs an inadmissible
    # table; every admissible sector is decided by R1-R3 or is feasible
    for p in range(1, 7):
        for name, groups in zip(("odd", "even"), enumerate_sectors(p)):
            for group in groups.values():
                for wd in group:
                    verdict = eliminate(derive_constraints(wd, sector=name))
                    assert verdict.status in ("feasible", "infeasible"), (name, wd, verdict.detail)
                    assert all(step.rule in ("R1", "R2", "R3") for step in verdict.certificate)



SMALL_TABLE = st.dictionaries(st.integers(-3, 3), st.integers(1, 3), max_size=3)


@st.composite
def small_tables(draw):
    """Arbitrary small tables, inadmissible and mixed-parity ones included;
    half of them get {1:m} / {-1:m} so that feasible verdicts turn up."""
    plus, minus = draw(SMALL_TABLE), draw(SMALL_TABLE)
    if draw(st.booleans()):
        plus[1] = minus[-1] = draw(st.integers(1, 3))
    return WeightData(plus, minus)


@settings(max_examples=500, deadline=None)
@given(small_tables())
def test_every_terminal_block_is_the_square_cross_block_at_minus_one(wd):
    # the equations admit no other terminal block, so the witness is the
    # identity there and no other scale is ever needed
    system = derive_constraints(wd)
    verdict = eliminate(system)
    if verdict.status != "feasible":
        return
    layout = wd.layout()
    for tb in verdict.witness.terminal:
        assert (tb.label, tb.flavor, tb.scale_sq) == ("cross[-1->1]", "paired", 1)
        (r0, r1), (c0, c1), _ = block_slot(system.blocks()[tb.label], layout)
        assert r1 - r0 == c1 - c0 == tb.dim
    verify_witness(system, verdict.witness)


SUPPORT = st.sets(st.integers(-5, 5), max_size=4)


@st.composite
def tables_of_one_support(draw):
    """Two tables with the same support and independent multiplicities,
    inadmissible and mixed-parity ones included."""
    plus, minus = sorted(draw(SUPPORT)), sorted(draw(SUPPORT))
    multiplicity = st.integers(1, 4)
    return tuple(
        WeightData({w: draw(multiplicity) for w in plus}, {w: draw(multiplicity) for w in minus})
        for _ in range(2)
    )


@settings(max_examples=500, deadline=None)
@given(tables_of_one_support())
def test_multiplicities_do_not_change_an_infeasible_verdict(tables):
    # a verdict depends on the support alone, for every table
    verdicts = [eliminate(derive_constraints(wd)) for wd in tables]
    if all(v.status != "infeasible" for v in verdicts):
        return
    assert [v.status for v in verdicts] == ["infeasible", "infeasible"]

    def shape(step):
        # an R1 or R2 conclusion ends on its trace value, rhs * dim
        conclusion = step.conclusion
        if step.rule != "R3":
            conclusion, value = conclusion.rsplit(" ", 1)
            assert value == str(step.trace_values[1])
        return step.rule, step.sector, step.side, step.weight, conclusion

    assert [shape(s) for s in verdicts[0].certificate] == [shape(s) for s in verdicts[1].certificate]
    for wd, verdict in zip(tables, verdicts):
        for step in verdict.certificate:
            dim = getattr(wd, step.side)[step.weight]
            assert step.trace_values == (0, step.weight * dim)


def top_system(wd):
    """The equations of wd at its top weight W and at W - 2."""
    top = max(wd.all_weights())
    return SectorSystem(wd, "top", tuple(eq for eq in derive_constraints(wd).equations if eq[1] in (top, top - 2)))


def top_window(wd):
    """The multiplicity-1 table of the weights W, W - 2 and W - 4 that each side of wd holds."""
    top = max(wd.all_weights())
    return WeightData(*({w: 1 for w in (top, top - 2, top - 4) if w in side} for side in (wd.plus, wd.minus)))


def without_dims(system):
    return [(side, w, rhs, terms) for side, w, _, rhs, terms in system.equations]


@pytest.mark.parametrize("p", range(1, 7))
def test_a_sector_with_top_weight_3_or_more_is_decided_by_its_top_window(p):
    # what verify_theorem's window dict relies on: the window has the
    # sector's top equations, and both are infeasible
    for _, _, wd in all_sectors(p):
        if max(wd.all_weights(), default=0) < 3:
            continue
        window = top_system(top_window(wd))
        assert without_dims(top_system(wd)) == without_dims(window)
        assert eliminate(window).status == "infeasible"
        assert eliminate(derive_constraints(wd)).status == "infeasible"


@st.composite
def tables_with_a_high_top_weight(draw):
    """A table whose top weight W is 3..101, with up to five more weights
    below it on each side and multiplicities 1..4; inadmissible and
    mixed-parity ones included."""
    top = draw(st.integers(3, 101))
    below = st.dictionaries(st.integers(-top, top - 1), st.integers(1, 4), max_size=5)
    plus, minus = draw(below), draw(below)
    side = plus if draw(st.booleans()) else minus
    side[top] = draw(st.integers(1, 4))
    return WeightData(plus, minus)


@settings(max_examples=500, deadline=None)
@given(tables_with_a_high_top_weight())
def test_top_equations_depend_only_on_the_top_window(wd):
    assert without_dims(top_system(wd)) == without_dims(top_system(top_window(wd)))
    assert eliminate(derive_constraints(wd)).status == "infeasible"


# -- the rank-free table of head keys -----------------------------------


@pytest.mark.parametrize("parity", [1, 0])
def test_a_top_window_has_one_status_at_every_top_weight(parity, monkeypatch):
    # the 27 windows, keyed at the marker W = 3 and shared by both parities,
    # have the same status at every W of this parity, odd from 3 or even
    # from 4, and all are infeasible
    windows = {key for key in head_keys() if key[0] >= 3}
    assert len(windows) == 27
    # each of W, W - 2 and W - 4 on plus, on minus or on both
    assert all(key[0] == 3 and all(key[1:4][i] or key[4:][i] for i in range(3)) for key in windows)
    for key in windows:
        for top in (*range(4 - parity, 2 * MAX_P + 1, 2), 102 - parity):
            assert _head_status((top, *key[1:])) == _head_status(key) == "infeasible"

    # and they are exactly the windows verify_theorem decides
    import geodesy.ladder as ladder_mod

    keys = []

    def recording(key):
        keys.append(key)
        return _head_status(key)

    monkeypatch.setattr(ladder_mod, "_head_status", recording)
    ladder_mod.verify_theorem(5)
    assert {key for key in keys if key[0] >= 3} == windows


def test_exactly_six_small_supports_are_feasible():
    # the supports inside {1, -1} and {2, 0, -2}, whole systems eliminated
    statuses, feasible = Counter(), set()
    for parity, top in ((1, 1), (0, 2)):
        head = range(top, -top - 1, -2)
        supports = [key for key in head_keys() if key[0] == top]
        assert len(set(supports)) == len(supports) == 4 ** len(head)
        for key in supports:
            bits = key[1:]
            status = _head_status(key)
            statuses[status] += 1
            if status == "feasible":
                plus, minus = (
                    frozenset(w for w, present in zip(head, side) if present)
                    for side in (bits[: len(head)], bits[len(head) :])
                )
                feasible.add((parity, plus, minus))
    assert sum(statuses.values()) == 16 + 64
    assert statuses["unresolved"] == 0
    assert feasible == {
        (1, frozenset(), frozenset()),
        (1, frozenset({1}), frozenset({-1})),
        (0, frozenset(), frozenset()),
        (0, frozenset({0}), frozenset()),
        (0, frozenset(), frozenset({0})),
        (0, frozenset({0}), frozenset({0})),
    }


def test_head_status_matches_full_elimination_on_every_head_key():
    # _head_status reads the status without writing a certificate; the full
    # path derives the key's table, keeps the top window when top >= 3 and
    # reads eliminate(...).status.  Each window is also decided at W = 4.
    statuses = Counter()
    keys = head_keys()
    for key in keys + [(4, *key[1:]) for key in keys if key[0] == 3]:
        top, *bits = key
        n = len(bits) // 2
        head = range(top, top - 2 * n, -2)
        table = WeightData(
            {w: 1 for w, present in zip(head, bits[:n]) if present},
            {w: 1 for w, present in zip(head, bits[n:]) if present},
        )
        system = derive_constraints(table, sector="odd" if top % 2 else "even")
        if top >= 3:
            system = SectorSystem(table, system.sector, tuple(eq for eq in system.equations if eq[1] >= top - 2))
        status = eliminate(system).status
        assert _head_status(key) == status, key
        statuses[status] += 1
    assert statuses == {"infeasible": 128, "feasible": 6}


@pytest.mark.parametrize("parity", [1, 0])
@pytest.mark.parametrize("which", ["window", "support"])
def test_selftest_head_keys_check_fails_when_one_key_changes_status(parity, which, monkeypatch):
    import geodesy.selftest as selftest_mod

    selftest_mod.check_head_keys()
    # a window at the marker W = 3 or at W = 4, or an infeasible support of
    # the parity: a seventh feasible one
    if which == "window":
        windows = [key for key in head_keys() if key[0] >= 3]
        changed = (4 - parity, *windows[len(windows) // 2][1:])
    else:
        changed = next(key for key in head_keys() if key[0] == 2 - parity and _head_status(key) == "infeasible")
    monkeypatch.setattr(selftest_mod, "_head_status", lambda key: "feasible" if key == changed else _head_status(key))
    with pytest.raises(AssertionError):
        selftest_mod.check_head_keys()
