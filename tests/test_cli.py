import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geodesy.candidates import diagonal_candidate
from geodesy.cli import COMMANDS, MAX_CERT_P, MAX_P, MAX_WEIGHT, run
from geodesy.ladder import CertificateStep, Verdict, derive_constraints, replay_certificate
from geodesy.selftest import CHECKS
from geodesy.weights import WeightData, enumerate_weight_data
from wire_reference import candidate_to_json_dict

BUNDLED = Path(__file__).resolve().parent.parent / "candidates"
DOCS = Path(__file__).resolve().parent.parent / "docs"


def test_check_accepts_bundled_diagonal(capsys):
    code = run(["check", str(BUNDLED / "diagonal_p2.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "totally geodesic: yes" in out
    assert "weight spectrum: plus {1:2} minus {-1:2}" in out


def test_check_rejects_perturbed_file(tmp_path, capsys):
    doc = candidate_to_json_dict(diagonal_candidate(2))
    doc["f_u"][0][2] = ["2", "1", "0", "1"]
    doc["f_u"][2][0] = ["2", "1", "0", "1"]
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(doc))
    code = run(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "bracket [w,u]=2v violated" in out


def test_check_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"p": 2, "f_u": [[')
    assert run(["check", str(path)]) == 2
    assert run(["check", str(tmp_path / "missing.json")]) == 2


def test_check_unreadable_input_exit_code(tmp_path, capsys):
    binary = tmp_path / "latin1.json"
    binary.write_bytes(b'{"p": 1, "f_u": "\xff\xfe"}')
    for path in (binary, tmp_path):
        assert run(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1 and "Traceback" not in err


VALID_P1 = candidate_to_json_dict(diagonal_candidate(1))
MATRICES = ("f_u", "f_v", "f_w")

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _list_of(length):
    return lambda value: isinstance(value, list) and len(value) == length


def _decimal(value) -> bool:
    """An entry piece the candidate schema allows: an integer or a decimal string."""
    if isinstance(value, str):
        return re.fullmatch(r"-?[0-9]+", value) is not None
    return type(value) is int


@st.composite
def malformed_candidates(draw) -> str:
    """The text of a p = 1 candidate file with exactly one defect."""
    doc = json.loads(json.dumps(VALID_P1))
    kind = draw(
        st.sampled_from(
            ["top", "missing", "p", "matrix", "row", "entry", "piece", "zero", "not_su", "truncate"]
        )
    )
    name = draw(st.sampled_from(MATRICES))
    i, j, k = draw(st.integers(0, 1)), draw(st.integers(0, 1)), draw(st.integers(0, 3))
    if kind == "truncate":
        text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "top":
        doc = draw(json_values.filter(lambda value: not isinstance(value, dict)))
    elif kind == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "p":
        doc["p"] = draw(json_values.filter(lambda value: not (type(value) is int and value == 1)))
    elif kind == "matrix":
        doc[name] = draw(json_values.filter(lambda value: not _list_of(2)(value)))
    elif kind == "row":
        doc[name][i] = draw(json_values.filter(lambda value: not _list_of(2)(value)))
    elif kind == "entry":
        doc[name][i][j] = draw(json_values.filter(lambda value: not _list_of(4)(value)))
    elif kind == "piece":
        doc[name][i][j][k] = draw(json_values.filter(lambda value: not _decimal(value)))
    elif kind == "zero":
        doc[name][i][j][draw(st.sampled_from([1, 3]))] = draw(st.sampled_from(["0", 0, "-0", " 0"]))
    else:
        # a nonzero real diagonal entry is never in su(1,1)
        doc[name][i][i] = [str(draw(st.integers(1, 10**6))), "1", "0", "1"]
    return json.dumps(doc)


def _check_file(path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["check", str(path)])
    return code, out.getvalue(), err.getvalue()


def _assert_rejected(path):
    code, out, err = _check_file(path)
    assert code == 2, err
    assert out == ""
    assert err.count("\n") == 1 and len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {path}: "), err


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=malformed_candidates())
def test_check_fuzz_malformed_candidates_exit_2(tmp_path, text):
    path = tmp_path / "candidate.json"
    path.write_text(text, encoding="utf-8")
    _assert_rejected(path)


@pytest.mark.parametrize(
    "text",
    [
        '{"p": 1' + "0" * 5000 + "}",  # longer than the interpreter converts
        '{"p": ' + "9" * 4300 + ', "f_u": []}',  # 2p would not print
        "[" * 100_000 + "]" * 100_000,  # deeper than the decoder recurses
        json.dumps({**VALID_P1, "f_u": [[["1" * 5000, "1", "0", "1"]] * 2] * 2}),
    ]
    # zero written in ways int() accepts but the schema's decimal pattern does not
    + [json.dumps(VALID_P1).replace('"0"', piece, 1) for piece in ('" 0"', '"0_0"', '"+0"', '"\\u0660"')],
    ids=["long_integer", "huge_p", "deep_nesting", "long_entry_string", "blank", "underscore", "plus", "arabic_digit"],
)
def test_check_pathological_json_exit_2(tmp_path, text):
    path = tmp_path / "candidate.json"
    path.write_text(text, encoding="utf-8")
    _assert_rejected(path)


def test_check_fuzz_base_document_is_valid(tmp_path):
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(VALID_P1), encoding="utf-8")
    assert _check_file(path)[0] == 0


def test_check_json_output_validates(capsys):
    import jsonschema

    code = run(["check", str(BUNDLED / "standard_trivial_p2.json"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    schema = json.loads((DOCS / "check_report.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["totally_geodesic"] is True


def test_classify_exit_codes(capsys):
    assert run(["classify", "1"]) == 0
    capsys.readouterr()
    assert run(["classify", "0"]) == 2
    capsys.readouterr()
    assert run(["classify", str(MAX_P + 1)]) == 2
    capsys.readouterr()


def test_classify_refuses_certificates_past_their_cap(tmp_path, capsys):
    target = tmp_path / "certs"
    assert run(["classify", str(MAX_CERT_P + 1), "--json", "--emit-certs", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --emit-certs takes p between 1 and {MAX_CERT_P}\n"
    assert not target.exists()


def test_classify_refuses_an_empty_certificate_directory(tmp_path, monkeypatch, capsys):
    # an empty DIR would be the working directory; nothing is written
    monkeypatch.chdir(tmp_path)
    assert run(["classify", "2", "--emit-certs", ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --emit-certs needs a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_classify_text_output(capsys):
    code = run(["classify", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "enumerated: 3" in out
    assert "standard^1" in out
    assert "[non-embedding]" in out
    # the standard class line shows its unitary crossing witness
    assert "cross[-1->1]: U U* = U* U = 1" in out


def test_classify_json_validates(capsys):
    import jsonschema

    code = run(["classify", "2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    schema = json.loads((DOCS / "classify_report.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["counts"] == {
        "enumerated": 18,
        "feasible": 3,
        "infeasible": 15,
        "unresolved": 0,
    }


def test_classify_emitted_certificates_replay(tmp_path, capsys):
    import jsonschema

    code = run(["classify", "2", "--emit-certs", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 18
    schema = json.loads((DOCS / "certificate.schema.json").read_text())
    for path in files:
        doc = json.loads(path.read_text())
        jsonschema.validate(doc, schema)
        wd = WeightData.from_json_dict(doc["weight_data"])
        assert path.stem == wd.digest()
        for sector_name, parity in (("odd", 1), ("even", 0)):
            sector_doc = doc["sectors"][sector_name]
            if sector_doc["status"] != "infeasible":
                continue
            system = derive_constraints(wd.sector(parity), sector=sector_name)
            verdict = Verdict(
                "infeasible",
                sector_name,
                certificate=tuple(
                    CertificateStep.from_json_dict(s) for s in sector_doc["certificate"]
                ),
            )
            replay_certificate(system, verdict)


def test_classify_certificate_name_collision_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(WeightData, "digest", lambda self: "0" * 16)
    code = run(["classify", "1", "--emit-certs", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    tables = [wd.describe() for wd in enumerate_weight_data(1)]
    assert sum(t in lines[0] for t in tables) == 2
    assert [f.name for f in tmp_path.iterdir()] == ["0" * 16 + ".json"]


def test_certificate_write_is_atomic(tmp_path, monkeypatch, capsys):
    assert run(["classify", "1", "--emit-certs", str(tmp_path)]) == 0
    capsys.readouterr()
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert len(before) == 3 and all(name.endswith(".json") for name in before)

    import geodesy.cli as cli_mod

    class FullDisk:
        """A file the certificate writer opens; the disk fills after 16 characters."""

        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:16])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli_mod, "open", FullDisk, raising=False)
    assert run(["classify", "1", "--emit-certs", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write certificates")
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


@pytest.mark.parametrize("emit", [False, True], ids=["plain", "emit_certs"])
def test_classify_exits_3_on_a_top_window_that_is_not_infeasible(tmp_path, monkeypatch, emit):
    import geodesy.ladder as ladder_mod

    window, status = ladder_mod.WINDOWS[5], ladder_mod._head_status
    monkeypatch.setattr(ladder_mod, "_head_status", lambda key: "feasible" if key == window else status(key))
    target = tmp_path / "certs"
    code, out, err = _run(["classify", "3", *(["--emit-certs", str(target)] if emit else [])])
    assert (code, out) == (3, "")
    assert err == (
        f"error: unresolved weight tables remain: top window {window} is feasible, "
        "so no sum with top weight 3 or more is decided\n"
    )
    assert not target.exists()


def test_classify_unwritable_certificate_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory")
    assert run(["classify", "1", "--emit-certs", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_oracle_pattern_flags(capsys):
    code = run(["oracle", "--plus", "0:1", "--minus", "0:1", "--restarts", "2", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "final residual: 0.0" in out


def test_oracle_negative_weight_tokens(capsys):
    code = run(["oracle", "--plus", "1:1", "--minus", "-1:1", "--restarts", "2", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pattern: plus {1:1} minus {-1:1}" in out


def test_oracle_rank_shorthand(capsys):
    code = run(["oracle", "1", "--restarts", "2", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "plus {1:1} minus {-1:1}" in out


def test_oracle_malformed_pattern(capsys):
    assert run(["oracle", "--plus", "1:1", "--minus", "nope"]) == 2
    capsys.readouterr()
    assert run(["oracle", "--plus", "1:1"]) == 2
    capsys.readouterr()
    assert run(["oracle", "--plus", "1:0", "--minus", "-1:1"]) == 2
    capsys.readouterr()
    assert run(["oracle"]) == 2
    capsys.readouterr()
    # a rank and a pattern together: neither is run
    assert run(["oracle", "3", "--plus", "1:1", "--minus", "-1:1", "--restarts", "1"]) == 2
    assert capsys.readouterr() == ("", "error: give either p or --plus/--minus\n")


@pytest.mark.parametrize("plus", ["true:1", "1.5:1", "1:0", "1:1,0:0"])
def test_oracle_rejects_bad_weight_lists(plus, capsys):
    # a bool or non-integer weight, or a multiplicity below 1
    assert run(["oracle", "--plus", plus, "--minus", "-1:1", "--restarts", "1", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: --plus: ")



def too_large(flag, weight):
    """The error line of a weight past MAX_WEIGHT."""
    return f"error: {flag}: weight {weight} is past 2**53 in magnitude, so a float cannot hold it exactly\n"


@pytest.mark.parametrize("flag", ["--plus", "--minus"])
def test_oracle_rejects_a_weight_too_large_for_a_float(flag):
    # 400 digits overflow a float, and 10**20 and 10**20 - 2 round to one
    # float: both exit 2 before any matrix is built
    for weight in ("9" * 400, 10**20):
        pattern = {"--plus": "1:1", "--minus": "-1:1"}
        pattern[flag] = f"{weight}:1"
        code, out, err = _run(["oracle", *(arg for item in pattern.items() for arg in item), "--restarts", "1"])
        assert (code, out, err) == (2, "", too_large(flag, weight))
    # a table whose weights would round together: one error line, no minimization
    w = 10**20
    code, out, err = _run(["oracle", "--plus", f"{w}:2,{w - 2}:3", "--minus", f"{w - 2}:2,{w - 4}:3", "--restarts", "1"])
    assert (code, out, err) == (2, "", too_large("--plus", w))


def _run_without_warnings(argv):
    """_run(argv) with every warning, numpy's overflow ones included, raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _run(argv)


@pytest.mark.parametrize("weight", [10**200, 10**159 + 7], ids=["201_digits", "160_digits"])
def test_oracle_rejects_a_weight_whose_square_overflows_a_float(weight):
    # the weight fits a float, but the residual holds its square: exit 2
    # with one error line before any matrix is built, not an overflow
    # warning and a residual of inf
    code, out, err = _run_without_warnings(["oracle", "--plus", f"{weight}:1", "--minus", "-1:1", "--restarts", "1"])
    assert (code, out, err) == (2, "", too_large("--plus", weight))


@pytest.mark.parametrize("sign", [1, -1])
def test_oracle_residual_is_finite_at_the_largest_accepted_weight(sign):
    w = sign * MAX_WEIGHT
    # a table without blocks, and one with blocks between w and w -/+ 4, so a descent runs
    high, mid, low = sorted((w, w - 2 * sign, w - 4 * sign), reverse=True)
    for plus, minus in ((f"{w}:1", "-1:1"), (f"{high}:2,{mid}:2", f"{mid}:2,{low}:2")):
        code, out, err = _run_without_warnings(["oracle", "--plus", plus, "--minus", minus, "--restarts", "3"])
        assert (code, err) == (0, "")
        residual = float(out.splitlines()[-1].removeprefix("final residual: "))
        assert float(w) ** 2 / 2 <= residual < math.inf  # about the square of the weight, and finite
    # one more is refused
    code, _, err = _run(["oracle", "--plus", f"{w + sign}:1", "--minus", "-1:1"])
    assert (code, err) == (2, too_large("--plus", w + sign))

RANK_LIMIT = f"p must be between 1 and {MAX_P}"
BLOCK_LIMIT = f"--plus and --minus each take at most {MAX_P} dimensions"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "0"], RANK_LIMIT),
        (["oracle", str(MAX_P + 1)], RANK_LIMIT),
        (["oracle", "--plus", f"1:{10**30}", "--minus", "-1:1"], BLOCK_LIMIT),
        (["oracle", "--plus", "1:1", "--minus", f"0:1,-1:{MAX_P}"], BLOCK_LIMIT),
    ],
    ids=["rank_0", "rank_past_max_p", "huge_plus_block", "minus_block_past_max_p"],
)
def test_oracle_refuses_a_table_past_max_p(argv, message):
    # refused before any matrix is built: a rank of 10**5 would ask for hundreds of GiB
    assert _run([*argv, "--restarts", "1"]) == (2, "", f"error: {message}\n")


def test_oracle_runs_at_max_p():
    code, out, _ = _run(["oracle", "--plus", f"1:{MAX_P}", "--minus", f"-1:{MAX_P}", "--restarts", "1"])
    assert code == 0 and out.startswith(f"pattern: plus {{1:{MAX_P}}} minus {{-1:{MAX_P}}}")


def test_oracle_output_is_deterministic(capsys):
    args = ["oracle", "--plus", "1:1", "--minus", "-1:1", "--restarts", "3", "--seed", "12"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second


# check, classify, an argument the parser rejects (exit 2 on stderr), then
# oracle and check again: one process runs them as separate processes do
RUN_SERIES = [
    ["check", "candidates/diagonal_p2.json", "--json"],
    ["classify", "2", "--json"],
    ["classify", "two"],
    ["oracle", "--plus", "1:1", "--minus", "-1:1", "--restarts", "2", "--seed", "5"],
    ["check", "candidates/standard_trivial_p2.json"],
]


def test_run_series_matches_separate_processes(monkeypatch):
    root = BUNDLED.parent
    monkeypatch.chdir(root)
    in_process = []
    for argv in RUN_SERIES:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        in_process.append((code, out.getvalue(), err.getvalue()))
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    separate = [
        subprocess.run([sys.executable, "-m", "geodesy.cli", *argv], capture_output=True, text=True, cwd=root, env=env)
        for argv in RUN_SERIES
    ]
    assert in_process == [(r.returncode, r.stdout, r.stderr) for r in separate]
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0]
    assert "invalid int value: 'two'" in in_process[2][2]


def _run(argv):
    """(exit code, stdout, stderr) of run(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["classfy", "2"],
        ["classify", "2", "--js"],  # no prefix matching
        ["oracle", "1", "--seed"],
        ["classify", "2", "--emit-certs", "--json"],
        ["oracle", "--plus", "1:1", "--minus"],
        ["classify"],
        ["check"],
        ["classify", "2", "3"],
        ["selftest", "now"],
        ["classify", "2", "--json=yes"],
        ["classify", "two"],
        ["oracle", "1", "--restarts", "3.0"],
        ["oracle", "1", "--seed", "x"],
        ["classify", "9" * 5000],  # more digits than int() converts
    ],
    ids=[
        "no_command", "unknown_command", "unknown_option", "missing_value", "missing_value_before_option",
        "missing_value_at_end", "missing_positional", "missing_path", "extra_positional", "extra_positional_selftest",
        "flag_with_value", "bad_integer", "bad_integer_option", "bad_integer_seed", "huge_integer",
    ],
)
def test_usage_error_returns_2_with_one_error_line(argv):
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


def test_classify_has_no_weight_bound_option():
    # every table of rank p has its weights within 2p - 1, so classify takes none
    refused = "error: classify: unrecognized option '--max-weight'\n"
    assert _run(["classify", "2", "--max-weight", "3"]) == (2, "", refused)
    code, out, _ = _run(["classify", "-h"])
    assert code == 0 and out.splitlines()[0] == "usage: geodesy classify p [--json] [--emit-certs DIR]"


# int() takes all of these, and the old weight-list pattern matched a
# non-ASCII digit and a trailing newline; only -?[0-9]+ is an integer
NOT_DECIMAL = ["\u0662", " 2", "2 ", "+2", "0_2", "2\n", "\uff12"]


@pytest.mark.parametrize("raw", NOT_DECIMAL)
@pytest.mark.parametrize("where", ["p", "--restarts", "--seed"])
def test_integer_arguments_take_only_ascii_decimals(raw, where):
    argv = {
        "p": ["classify", raw, "--json"],
        "--restarts": ["oracle", "1", "--restarts", raw],
        "--seed": ["oracle", "1", "--restarts", "1", "--seed", raw],
    }[where]
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"invalid int value: {raw!r}" in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "plus, minus",
    [("\u0661:\u0661", "-\u0661:\u0661"), ("1:1\n", "-1:1"), ("1:1", "-1:1\n"), ("1:+1", "-1:1"), (" 1:1", "-1:1"),
     ("1:1,", "-1:1"), ("1:1:1", "-1:1"), ("", "-1:1"),
     pytest.param("1:1", "-1:" + "1" * 5000, id="more_digits_than_int_converts")],
)
def test_weight_lists_take_only_ascii_decimals(plus, minus):
    code, out, err = _run(["oracle", "--plus", plus, "--minus", minus, "--restarts", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: --") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["classify", "2", "--json", "--emit-certs", ""], ["classify", "2", "--json", "--emit-certs="]),
        (
            ["oracle", "--plus", "1:1", "--minus", "-1:1", "--restarts", "2", "--seed", "5"],
            ["oracle", "--plus=1:1", "--minus=-1:1", "--restarts=2", "--seed=5"],
        ),
        (["oracle", "--seed", "-1", "1"], ["oracle", "--seed=-1", "1"]),
        (["oracle", "-3"], ["oracle", "--", "-3"]),
    ],
)
def test_option_value_after_equals_sign_parses_alike(spaced, joined):
    result = _run(spaced)
    assert result == _run(joined)
    assert result[0] in (0, 2)


def test_negative_weight_list_after_its_flag(capsys):
    # a value that starts with "-" is taken as the option's value
    assert run(["oracle", "--plus", "1:2", "--minus", "-1:2", "--restarts", "1"]) == 0
    assert "pattern: plus {1:2} minus {-1:2}" in capsys.readouterr().out
    assert run(["oracle", "--minus=-1:2", "--plus", "1:2", "--restarts", "1"]) == 0
    assert "pattern: plus {1:2} minus {-1:2}" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_prints_usage_and_returns_0(command, flag):
    # help wins over anything else on the line, even a bad argument
    argv = [flag] if command is None else [command, "bad", flag, "--bogus"]
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: geodesy {command or ''}")
    names = COMMANDS if command is None else [*(name for name, *_ in COMMANDS[command][1]), *COMMANDS[command][2]]
    assert all(name in out for name in names)


def test_run_classification_script_matches_classify(tmp_path):
    # the script archives what `classify p --json` prints and the files that
    # `classify p --emit-certs` writes, for every p up to --max-p
    root = BUNDLED.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_classification.py"), "--max-p", "3"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert script.returncode == 0, script.stderr
    results = tmp_path / "results"
    assert sorted(f.name for f in results.iterdir()) == [
        f"{kind}_p{p}{ext}" for kind, ext in (("certificates", ""), ("summary", ".json")) for p in (1, 2, 3)
    ]
    for p in (1, 2, 3):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert run(["classify", str(p), "--json"]) == 0
        assert (results / f"summary_p{p}.json").read_text(encoding="utf-8") == out.getvalue()
        emitted = tmp_path / f"emitted_p{p}"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert run(["classify", str(p), "--emit-certs", str(emitted)]) == 0
        archived = results / f"certificates_p{p}"
        names = sorted(f.name for f in emitted.iterdir())
        assert names and sorted(f.name for f in archived.iterdir()) == names
        for name in names:
            assert (archived / name).read_bytes() == (emitted / name).read_bytes()


def test_time_ranks_script_prints_one_json_line_per_rank(tmp_path):
    root = BUNDLED.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = subprocess.run(
        [sys.executable, str(root / "scripts" / "time_ranks.py"), "3", "4", "--repeat", "1"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert script.returncode == 0, script.stderr
    lines = [json.loads(line) for line in script.stdout.splitlines()]
    assert [(line["p"], line["derived_systems"]) for line in lines] == [(3, 80), (4, 86)]
    assert [(line["head_keys"], line["walked_sectors"], line["walked_sums"]) for line in lines] == [
        (68, 12, 11), (68, 18, 15)
    ]
    assert [(line["head_windows"], line["head_supports"]) for line in lines] == [(27, 41), (27, 41)]
    assert all(line["best_s"] > 0 and line["peak_rss_mb"] > 0 for line in lines)


def test_time_exact_script_prints_one_json_line_per_phase(tmp_path):
    root = BUNDLED.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = subprocess.run(
        [sys.executable, str(root / "scripts" / "time_exact.py"), "--seed", "3", "--repeat", "1"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert script.returncode == 0, script.stderr
    lines = [json.loads(line) for line in script.stdout.splitlines()]
    # the output ends with one total per phase, in the order phases first appear
    totals = [line for line in lines if "total_s" in line]
    lines = lines[: len(lines) - len(totals)]
    # each line's first call is one of its --repeat calls, so never faster than the best
    assert all(line["first_s"] >= line["best_s"] > 0 for line in lines)
    phases = Counter(line["phase"] for line in lines)
    # 20 candidates, of which the 10 sparse and dense ones pass and reach equivariance_test
    assert phases == {
        "parse": 20, "check_conditions": 20, "equivariance_test": 10, "report": 20, "lift": 1, "selftest": len(CHECKS)
    }
    # the workload's order: the selftest checks, then the candidates; the lift last
    assert list(phases) == ["selftest", "parse", "check_conditions", "equivariance_test", "report", "lift"]
    assert [line["phase"] for line in totals] == list(phases)
    for line in totals:
        for key, total in (("best_s", "total_s"), ("first_s", "first_s")):
            assert line[total] == pytest.approx(sum(x[key] for x in lines if x["phase"] == line["phase"]), abs=1e-6)
    # the lift line lifts every feasible class of rank up to MAX_P, p + 1 per rank
    classes = sum(p + 1 for p in range(1, MAX_P + 1))
    assert [(line["max_p"], line["tables"]) for line in lines if line["phase"] == "lift"] == [(MAX_P, classes)]
    assert [line["check"] for line in lines if line["phase"] == "selftest"] == [name for name, _ in CHECKS]


def test_time_oracle_script_prints_one_json_line_per_table(tmp_path):
    root = BUNDLED.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = subprocess.run(
        [sys.executable, str(root / "scripts" / "time_oracle.py"), "--repeat", "1"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert script.returncode == 0, script.stderr
    *lines, total = [json.loads(line) for line in script.stdout.splitlines()]
    # the oracle workload's tables: every 6th of the 120 with p <= 3
    tables = [wd for p in (1, 2, 3) for wd in enumerate_weight_data(p)][::6]
    assert [line["table"] for line in lines] == [wd.describe() for wd in tables]
    keys = ["table", "feasible", "best_s", "first_s", "restarts", "descend_calls", "steps"]
    assert all(list(line) == keys and 0 < line["best_s"] <= line["first_s"] for line in lines)
    assert list(total) == ["tables", *keys[2:], "numpy_random_loaded"] and total["tables"] == len(tables)
    for key in keys[4:]:
        assert total[key] == sum(line[key] for line in lines)
    for key in ("best_s", "first_s"):
        assert total[key] == pytest.approx(sum(line[key] for line in lines), abs=1e-6)
    # the starting points are drawn without numpy's Generator
    assert total["numpy_random_loaded"] is False
    # the restarts that ran, and the benchmark's traced numeric.restarts and
    # numeric.iterations; the two tables without unknowns run no restart
    assert (total["restarts"], total["descend_calls"], total["steps"]) == (52, 18, 409)
    # a table with a target runs one restart per call, the others all of theirs in one
    for line in lines:
        if line["descend_calls"]:
            assert line["descend_calls"] == (line["restarts"] if line["feasible"] else 1)


def test_time_cli_script_prints_one_json_line(tmp_path):
    root = BUNDLED.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = subprocess.run(
        [sys.executable, str(root / "scripts" / "time_cli.py"), "classify", "2", "--json", "--repeat", "1"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert script.returncode == 0, script.stderr
    (line,) = [json.loads(line) for line in script.stdout.splitlines()]
    phases = ["import_s", "first_run_s", "second_run_s"]
    assert list(line) == ["argv", "exit", *phases]
    assert (line["argv"], line["exit"]) == (["classify", "2", "--json"], 0)
    assert all(line[phase] > 0 for phase in phases)


@pytest.mark.parametrize(
    "args, message",
    [
        (["classify", "2", "--repeat", "0"], "error: --repeat takes a count of at least 1, got '0'"),
        (["--repeat", "1"], "usage: time_cli.py [--repeat N] ARGV..."),
    ],
    ids=["repeat_0", "no_argv"],
)
def test_time_cli_script_exits_2_on_a_usage_error(tmp_path, args, message):
    root = BUNDLED.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = subprocess.run(
        [sys.executable, str(root / "scripts" / "time_cli.py"), *args],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert (script.returncode, script.stdout, script.stderr) == (2, "", message + "\n")


@pytest.mark.parametrize("max_p", [0, MAX_CERT_P + 1])
def test_run_classification_script_refuses_a_rank_classify_refuses(tmp_path, max_p):
    # the script writes certificates, so it stops where --emit-certs does
    root = BUNDLED.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_classification.py"), "--max-p", str(max_p)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert script.returncode == 2
    assert f"--max-p must be between 1 and {MAX_CERT_P}" in script.stderr
    assert script.stdout == "" and not (tmp_path / "results").exists()


def test_run_classification_script_reports_an_unwritable_directory(tmp_path):
    # --out names a file: one error line and exit 2, as classify --emit-certs
    root = BUNDLED.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    script = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_classification.py"), "--max-p", "1", "--out", str(taken)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert (script.returncode, script.stdout) == (2, "")
    assert len(script.stderr.splitlines()) == 1 and script.stderr.startswith(f"error: cannot write to {taken}: ")
    assert taken.read_text() == "not a directory"

def run_make_candidates(tmp_path, *args):
    """Run a copy of scripts/make_candidates.py under tmp_path/scripts, which
    writes to tmp_path/candidates and never to the checkout."""
    (tmp_path / "scripts").mkdir()
    script = tmp_path / "scripts" / "make_candidates.py"
    script.write_text((BUNDLED.parent / "scripts" / "make_candidates.py").read_text())
    env = {**os.environ, "PYTHONPATH": str(BUNDLED.parent / "src")}
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True, cwd=tmp_path, env=env)


@pytest.mark.parametrize(
    "args, code", [(["--help"], 0), (["--bogus"], 2), (["candidates"], 2)], ids=["help", "unknown_option", "argument"]
)
def test_make_candidates_script_writes_nothing_on_help_or_a_usage_error(tmp_path, args, code):
    script = run_make_candidates(tmp_path, *args)
    assert script.returncode == code, script.stderr
    assert script.stdout.startswith("usage: make_candidates.py") if code == 0 else script.stderr.startswith("usage: ")
    assert not (tmp_path / "candidates").exists()


def test_make_candidates_script_regenerates_the_bundled_files(tmp_path):
    script = run_make_candidates(tmp_path)
    assert script.returncode == 0, script.stderr
    names = ["diagonal_p2.json", "standard_trivial_p2.json"]
    assert sorted(f.name for f in (tmp_path / "candidates").iterdir()) == names
    assert all((tmp_path / "candidates" / n).read_bytes() == (BUNDLED / n).read_bytes() for n in names)


def test_selftest_runs_clean(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all invariants hold" in out


def test_selftest_fails_under_python_O(tmp_path):
    # -O strips every assert statement; the checks raise without one, so a
    # broken bracket is still caught
    child = (
        "import geodesy.selftest as selftest\n"
        "bracket = selftest.bracket\n"
        "selftest.bracket = lambda a, b: bracket(a, b) * 3\n"
        "print(__debug__, selftest.run_selftest(lambda line: None))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(BUNDLED.parent / "src")}
    env.pop("PYTHONOPTIMIZE", None)
    result = subprocess.run([sys.executable, "-O", "-c", child], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert (result.returncode, result.stdout) == (0, "False bracket table\n"), result.stderr


def test_selftest_names_first_failure(monkeypatch, capsys):
    import geodesy.selftest as selftest_mod

    def broken():
        raise AssertionError("sabotaged for the test")

    sabotaged = [
        (name, broken if name == "jacobi identity" else fn)
        for name, fn in selftest_mod.CHECKS
    ]
    monkeypatch.setattr(selftest_mod, "CHECKS", sabotaged)
    assert run(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL jacobi identity" in out
    assert "first failing invariant: jacobi identity" in out
