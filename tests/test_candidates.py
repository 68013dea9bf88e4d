import json
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_reference
import lift_reference
import wire_reference as ref
from geodesy.candidates import (
    CandidateFormatError,
    _entry_from_json,
    _matrix_from_json,
    _pieces,
    candidate_from_json_dict,
    diagonal_candidate,
    embedding_with_rank,
    json_text,
    lift_classification,
    load_candidate,
    save_candidate,
    standard_trivial_candidate,
)
from geodesy.checker import check_conditions, equivariance_test
from geodesy.cli import MAX_P, run
from geodesy.gaussmat import GaussMatrix
from geodesy.ladder import block_cells, block_slot, classify_weight_data, derive_constraints, verify_theorem
from geodesy.weights import enumerate_weight_data
from kernel_strategies import SIZES, matrices

BUNDLED = Path(__file__).resolve().parent.parent / "candidates"


def test_builders_pass_checks():
    for p in (1, 2, 3):
        for m in range(0, p + 1):
            report = check_conditions(embedding_with_rank(p, m))
            assert report.passed and report.totally_geodesic
            assert report.injective == (m > 0)


def test_builder_validation():
    with pytest.raises(ValueError):
        embedding_with_rank(2, 3)


def test_round_trip_of_builders():
    for candidate in (diagonal_candidate(2), standard_trivial_candidate(3)):
        doc = ref.candidate_to_json_dict(candidate)
        back = candidate_from_json_dict(doc)
        assert back.f_u == candidate.f_u
        assert back.f_v == candidate.f_v
        assert back.f_w == candidate.f_w


def test_file_round_trip(tmp_path):
    path = tmp_path / "candidate.json"
    save_candidate(diagonal_candidate(2), path)
    loaded = load_candidate(path)
    assert loaded.f_w == diagonal_candidate(2).f_w
    # round trip again through the text form
    text_one = path.read_text()
    save_candidate(loaded, path)
    assert path.read_text() == text_one


def test_bundled_candidates_match_builders():
    diagonal = load_candidate(BUNDLED / "diagonal_p2.json")
    assert diagonal.f_u == diagonal_candidate(2).f_u
    assert diagonal.f_w == diagonal_candidate(2).f_w
    mixed = load_candidate(BUNDLED / "standard_trivial_p2.json")
    assert mixed.f_u == standard_trivial_candidate(2).f_u


def test_parse_errors_carry_field_diagnostics(tmp_path):
    with pytest.raises(CandidateFormatError, match="missing field 'p'"):
        candidate_from_json_dict({})
    with pytest.raises(CandidateFormatError, match="f_u"):
        candidate_from_json_dict({"p": 1, "f_u": [], "f_v": [], "f_w": []})
    doc = ref.candidate_to_json_dict(diagonal_candidate(1))
    doc["f_u"][0][1][1] = "0"
    with pytest.raises(CandidateFormatError, match=r"f_u\[0\]\[1\]: zero denominator"):
        candidate_from_json_dict(doc)
    doc = ref.candidate_to_json_dict(diagonal_candidate(1))
    doc["f_u"][0][1][0] = "one"
    with pytest.raises(CandidateFormatError, match="decimal integer"):
        candidate_from_json_dict(doc)
    truncated = tmp_path / "broken.json"
    truncated.write_text('{"p": 1, "f_u": [[')
    with pytest.raises(CandidateFormatError, match="line 1"):
        load_candidate(truncated)


def test_non_member_document_rejected():
    doc = ref.candidate_to_json_dict(diagonal_candidate(1))
    doc["f_w"][0][0] = ["1", "1", "0", "1"]  # real diagonal entry: not skew
    with pytest.raises(CandidateFormatError, match="su"):
        candidate_from_json_dict(doc)


entry_strings = st.integers(-9, 9).map(str)


@given(
    st.integers(1, 2),
    st.data(),
)
@settings(max_examples=25, deadline=None)
def test_entry_grid_round_trip(p, data):
    n = 2 * p
    # exercise only the entry codec; the matrices need not be algebra members
    grid = data.draw(
        st.lists(
            st.lists(
                st.tuples(entry_strings, st.sampled_from(["1", "2", "3"]), entry_strings, st.sampled_from(["1", "2"])),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
    for i in range(n):
        for j in range(n):
            a, b, c, d = _entry_from_json(list(grid[i][j]), "x")
            den = lcm(b, d)
            wire = json.loads(json_text(GaussMatrix._from_ints(1, 1, den, [a * (den // b)], [c * (den // d)])))[0][0]
            assert wire == ref._entry_to_json(ref._entry_from_json(list(grid[i][j]), "x"))
            a2, b2, c2, d2 = _entry_from_json(wire, "x")
            assert (Fraction(a2, b2), Fraction(c2, d2)) == (Fraction(a, b), Fraction(c, d))
            assert b2 > 0 and d2 > 0 and gcd(a2, b2) == 1 and gcd(c2, d2) == 1


# -- the integer wire format against the per-entry Fraction reference --------

numerators = st.one_of(
    st.integers(-12, 12),
    st.integers(10**299, 10**300 - 1),  # 300 digits
    st.integers(-(10**300), 10**300),
)
denominators = st.one_of(st.integers(-12, 12), st.integers(1, 10**300)).filter(bool)


def _piece(draw, value: int, ints: bool):
    """A piece as a decimal string, "-0" for some zeros, or a JSON integer
    when ints is set."""
    if ints and draw(st.integers(0, 2)) == 0:
        return value
    return "-0" if value == 0 and draw(st.booleans()) else str(value)


@st.composite
def wire_entries(draw, ints: bool = True):
    """Unreduced entries: a common factor k (possibly negative) on each part;
    a list as JSON gives, or a tuple as a caller may."""
    entry = []
    for _ in range(2):
        k = draw(st.sampled_from([1, 1, 2, -1, -3, 10**20]))
        entry += [_piece(draw, k * draw(numerators), ints), _piece(draw, k * draw(denominators), ints)]
    return tuple(entry) if draw(st.integers(0, 4)) == 0 else entry


@st.composite
def wire_grids(draw) -> tuple:
    n = draw(st.integers(1, 4))
    sparse = draw(st.booleans())  # about half the entries zero, as in most report matrices
    # only strings, as files hold, half the time: the grids the check of all pieces at once takes
    entries = wire_entries(ints=draw(st.booleans()))
    entry = (st.just(["0", "1", "0", "1"]) | entries) if sparse else entries
    return n, [[draw(entry) for _ in range(n)] for _ in range(n)]


@given(wire_grids())
@settings(max_examples=150, deadline=None)
def test_matrix_wire_matches_reference(case):
    n, grid = case
    got = _matrix_from_json(grid, n, "f_u")
    want = ref._matrix_from_json(grid, n, "f_u")
    assert (got.den, got.re_num, got.im_num) == (want.den, want.re_num, want.im_num)
    assert json.loads(json_text(got)) == ref._matrix_to_json(want)


BAD_PIECES = [None, True, False, 1.0, 1.5, [], {}, "", "-", "+1", " 1", "1 ", "1_0", "--1", "1-", "0x1", "\u0661", "1e3", "9" * 5000,
              "1\n", "\uff11", "\u00b2", "0-1", ",", "1,", ",1", "1,2", "-1,-2"]
BAD_VALUES = [None, True, 0, "x", [], {}, ["0", "1", "0"], ["0", "1", "0", "1", "0"], ("0", "1")]


@st.composite
def malformed_wire_grids(draw, max_defects: int = 3) -> tuple:
    """A valid grid with one to max_defects defects, so that their order counts."""
    n, grid = draw(wire_grids())
    grid = [[list(e) for e in row] for row in grid]  # fresh lists to damage
    raw = grid
    kinds = draw(st.lists(st.sampled_from(["piece", "zero", "entry", "row", "rows"]), min_size=1, max_size=max_defects, unique=True))
    # innermost first, so that a later defect never lands inside an earlier one
    for kind in sorted(kinds, key=["piece", "zero", "entry", "row", "rows"].index):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        if kind == "piece":
            grid[i][j][k % 4] = draw(st.sampled_from(BAD_PIECES))
        elif kind == "zero":
            grid[i][j][draw(st.sampled_from([1, 3]))] = draw(st.sampled_from(["0", "-0", 0, "00"]))
        elif kind == "entry":
            grid[i][j] = draw(st.sampled_from(BAD_VALUES))
        elif kind == "row":
            grid[i] = draw(st.sampled_from(BAD_VALUES + [grid[i][:-1], grid[i] + grid[i][:1]]))
        else:
            raw = draw(st.sampled_from(BAD_VALUES + [grid[:-1], grid + grid[:1]]))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
        if isinstance(grid[i], list) and j < len(grid[i]) and isinstance(grid[i][j], list):
            grid[i][j] = tuple(grid[i][j])  # a well-formed tuple entry, not a defect
    return n, raw


def _error(parse, raw, n):
    with pytest.raises(CandidateFormatError) as err:
        parse(raw, n, "f_v")
    return str(err.value)


@given(malformed_wire_grids() | malformed_wire_grids(max_defects=1))
@settings(max_examples=400, deadline=None)
def test_malformed_wire_matches_reference_message(case):
    n, raw = case
    assert _error(_matrix_from_json, raw, n) == _error(ref._matrix_from_json, raw, n)


@given(wire_grids() | malformed_wire_grids())
@settings(max_examples=200, deadline=None)
def test_whole_matrix_check_takes_only_decimal_strings_the_reference_takes(case):
    n, raw = case
    if not (isinstance(raw, list) and len(raw) == n):  # _matrix_from_json's own first check
        return
    try:
        ref._matrix_from_json(raw, n, "f_u")
        strings = all(isinstance(x, str) for row in raw for e in row for x in e)
    except CandidateFormatError:
        strings = False
    want = [int(x) for row in raw for e in row for x in e] if strings else None
    assert _pieces(raw, n) == want


def test_wire_integer_form_of_unreduced_entries():
    raw = [[["2", "-4", "0", "3"], ["-0", "-7", "6", "-10"]], [[3, 3, 0, 1], ["0", "1", "0", "1"]]]
    m = _matrix_from_json(raw, 2, "f_u")
    assert (m.den, m.re_num, m.im_num) == (10, (-5, 0, 10, 0), (0, -6, 0, 0))
    assert json.loads(json_text(m)) == [
        [["-1", "2", "0", "1"], ["0", "1", "-3", "5"]],
        [["1", "1", "0", "1"], ["0", "1", "0", "1"]],
    ]


# -- the indent=2 writer against json.dumps ----------------------------------

json_strings = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "\u2028", "\U0001d530", "\ud800", "é"])
json_floats = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324])
json_ints = st.integers() | st.integers(-(10**400), 10**400)
json_documents = st.recursive(
    st.none() | st.booleans() | json_ints | json_floats | json_strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(json_strings, max_size=4)
    | st.dictionaries(json_strings, inner, max_size=4)
    | st.dictionaries(json_ints, inner, max_size=3),
    max_leaves=20,
)


@given(json_documents)
@settings(max_examples=300, deadline=None)
def test_json_text_matches_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def as_wire_lists(doc):
    """doc with every GaussMatrix replaced by its wire lists."""
    if isinstance(doc, GaussMatrix):
        return ref._matrix_to_json(doc)
    if isinstance(doc, dict):
        return {k: as_wire_lists(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [as_wire_lists(v) for v in doc]
    return doc


@st.composite
def any_matrices(draw):
    """Matrices of 1 x 1 up to 4 x 4 and every shape between, zero ones and
    ones with den > 1, negative and purely imaginary entries included."""
    return draw(matrices(draw(SIZES), draw(SIZES)))


@given(any_matrices(), any_matrices(), any_matrices(), st.none() | json_ints | json_strings)
@settings(max_examples=200, deadline=None)
def test_json_text_writes_matrices_as_their_wire_lists(top, value, deep, other):
    docs = (
        top,
        {"report": value, "note": other, "rows": [[deep, other], other]},
        [other, [[deep, top], {"m": value}]],
    )
    for doc in docs:
        assert json_text(doc) == json.dumps(as_wire_lists(doc), indent=2, sort_keys=True)


def test_json_text_rejects_what_json_rejects():
    for doc in ({"a": object()}, [1, {2, 3}], {(1, 2): 0}, {"a": 1, 2: "b"}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            json_text(doc)


def test_lift_of_every_feasible_class_passes(tmp_path, capsys):
    # every feasible class that classify reports, at every rank it takes,
    # goes through check's own algebra, which shares no code with the
    # elimination that found it
    path = tmp_path / "lift.json"
    for p in range(1, MAX_P + 1):
        classes = verify_theorem(p).classes
        assert sorted((c.standard_copies, c.trivial_dim) for c in classes) == [(m, 2 * p - 2 * m) for m in range(p + 1)]
        for cls in classes:
            assert cls.non_embedding == (cls.standard_copies == 0)
            candidate = lift_classification(cls)
            report = check_conditions(candidate)
            assert report.passed, cls.weight_data.describe()
            assert report.totally_geodesic
            assert equivariance_test(candidate, report)
            assert report.h_spectrum == cls.weight_data
            # the lift survives a trip through the wire format
            save_candidate(candidate, path)
            assert load_candidate(path).f_u == candidate.f_u
    # and the CLI passes the largest standard lift, standard^MAX_P
    assert classes[0].standard_copies == MAX_P
    save_candidate(lift_classification(classes[0]), path)
    capsys.readouterr()
    assert run(["check", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["totally_geodesic"] is True


def assert_same_candidate(a, b):
    assert (a.shape, a.f_u, a.f_v, a.f_w) == (b.shape, b.f_u, b.f_v, b.f_w)


def test_lift_matches_reference_on_every_feasible_table():
    classes = [cls for p in range(1, MAX_P + 1) for cls in verify_theorem(p).classes]
    assert len(classes) == sum(p + 1 for p in range(1, MAX_P + 1))
    for cls in classes:
        assert_same_candidate(lift_classification(cls), lift_reference.lift_classification(cls))


def test_block_cells_place_dense_blocks_as_the_reference_does():
    # witness blocks are identities and zeros, but the oracle scatters dense
    # blocks through block_cells: Gaussian blocks with mixed denominators,
    # on every block of every table, exercise the conjugate and both
    # partner signs
    rng = random.Random(5)
    signs = set()
    for p in (1, 2, 3):
        for wd in enumerate_weight_data(p):
            layout = wd.layout()
            n = layout.size
            x, y, ref_x, ref_y = ([lift_reference.ZERO] * (n * n) for _ in range(4))
            for key in derive_constraints(wd).blocks().values():
                (rows, cols), x_cells, y_cells, sign = block_cells(key, layout)
                value = algebra_reference.matrix(rng, rows, cols) * Fraction(1, rng.choice((1, 2, 5, 7)))
                for kx, ky, entry in zip(x_cells, y_cells, value.entries):
                    x[kx], y[ky] = entry, entry.conjugate() * sign
                (r0, _), (c0, _), _ = block_slot(key, layout)
                lift_reference._place(ref_x, n, r0, c0, value, conj=False, negate=False)
                lift_reference._place(ref_y, n, c0, r0, value, conj=True, negate=sign < 0)
                signs.add(sign)
            assert (x, y) == (ref_x, ref_y), wd.describe()
    assert signs == {-1, 1}


def test_lift_rejects_infeasible_results():
    from geodesy.ladder import WitnessError
    from geodesy.weights import WeightData

    result = classify_weight_data(WeightData({-1: 1}, {1: 1}))
    with pytest.raises(WitnessError):
        lift_classification(result)
