"""What the benchmark under bench/ and the scripts under scripts/ use of
the package: every name they import or read off it, the functions that
bench/tracing.py wraps, the constructors behind bench/exact_inputs.py and
the certify workload's audit.  A change under src/ that breaks the
benchmark fails here."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from geodesy.candidates import load_candidate

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


def _has(module_or_class, name: str) -> bool:
    """Whether the name is an attribute, or an importable submodule, of it."""
    if not hasattr(module_or_class, name) and inspect.ismodule(module_or_class):
        try:
            importlib.import_module(f"{module_or_class.__name__}.{name}")
        except ModuleNotFoundError:
            return False
    return hasattr(module_or_class, name)


def _package_names(tree: ast.Module) -> dict:
    """Each name that an import anywhere in the file binds to a geodesy
    object -> that object.  A name that does not resolve fails here."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "geodesy":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:
                        bound["geodesy"] = importlib.import_module("geodesy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "geodesy":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert _has(module, alias.name), f"from {node.module} import {alias.name}"
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    return bound


def _attribute_chain(node: ast.Attribute) -> list:
    """["a", "b", "c"] for a.b.c, or [] when the chain does not start at a name."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    return [node.id, *reversed(chain)] if isinstance(node, ast.Name) else []


@pytest.mark.parametrize(
    "path", sorted([*BENCH.glob("*.py"), *(ROOT / "scripts").glob("*.py")]), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_bench_and_scripts_name_only_what_the_package_defines(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _package_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = _attribute_chain(node)
        if not chain or chain[0] not in bound:
            continue
        target = bound[chain[0]]
        for depth, name in enumerate(chain[1:], 1):
            if not (inspect.ismodule(target) or inspect.isclass(target)):
                break  # an attribute of a value, not of the package
            assert _has(target, name), f"{path.name}:{node.lineno}: {'.'.join(chain[: depth + 1])}"
            target = getattr(target, name)


def test_certify_audits_every_certificate(bench, tmp_path):
    # the certify workload's ops as bench/run.py runs them: the emit, then
    # one audit per file, each checked before the next is drawn
    import workloads

    certify = workloads.Certify()
    problems = [op.check(op.run()) for op in certify.ops({}, tmp_path, tmp_path, {})]
    assert len(problems) == 1 + certify.TABLES
    assert problems == [None] * len(problems)
