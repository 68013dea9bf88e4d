import json
from pathlib import Path

from geodesy.candidates import candidate_to_json_dict, diagonal_candidate
from geodesy.cli import run
from geodesy.ladder import CertificateStep, Verdict, derive_constraints, replay_certificate
from geodesy.weights import WeightData, enumerate_weight_data

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
    assert run(["classify", "9"]) == 2
    capsys.readouterr()


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

    def failing_dump(doc, fh, **kwargs):
        fh.write('{"weight_data": ')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli_mod.json, "dump", failing_dump)
    assert run(["classify", "1", "--emit-certs", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write certificates")
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


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


def test_oracle_output_is_deterministic(capsys):
    args = ["oracle", "--plus", "1:1", "--minus", "-1:1", "--restarts", "3", "--seed", "12"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_selftest_runs_clean(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all invariants hold" in out


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
