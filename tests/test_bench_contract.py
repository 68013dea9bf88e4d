"""What the benchmark under bench/ uses of the package: the functions that
bench/tracing.py wraps and the constructors behind bench/exact_inputs.py.
A change under src/ that breaks the benchmark fails here."""

import importlib
from pathlib import Path

import pytest

from geodesy.candidates import load_candidate

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))


def test_every_traced_target_resolves(bench):
    # getattr only: Tracer.install would rebind the module attributes
    import tracing

    for module, attribute in tracing.TARGETS:
        target = importlib.import_module(f"geodesy.{module}")
        for name in attribute.split("."):
            target = getattr(target, name)
        assert callable(target), (module, attribute)


def test_exact_inputs_write_their_candidates(bench, tmp_path):
    import exact_inputs

    manifest = exact_inputs.generate(1, tmp_path)
    assert len(manifest) == 20
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(entry["file"] for entry in manifest)
    for entry in manifest:
        assert load_candidate(tmp_path / entry["file"]).shape.p == entry["p"]


def test_minimize_hands_the_tracer_its_descent_steps(bench, monkeypatch, tmp_path):
    # bench/tracing.py wraps numeric._descend: its calls are numeric.restarts
    # and the int result[2] of each is added into numeric.iterations
    import workloads

    from geodesy import numeric
    from geodesy.weights import WeightData

    accepted = []
    descend = numeric._descend

    def spy(*args):
        result = descend(*args)
        accepted.append(result[2])
        return result

    monkeypatch.setattr(numeric, "_descend", spy)
    oracle = workloads.Oracle()
    steps = 0
    for pattern in oracle.generate(0, tmp_path)["patterns"]:
        wd = WeightData.from_json_dict(pattern["weight_data"])
        _, report = workloads._minimize(wd, pattern["feasible"], oracle.SEED)
        steps += sum(report.restart_steps)
    assert all(type(n) is int for n in accepted)
    # 409 accepted steps, as when each restart ran its own descent; 18 calls, not 52
    assert sum(accepted) == steps == 409
    assert len(accepted) == 18
