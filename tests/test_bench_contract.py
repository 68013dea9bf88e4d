"""What the benchmark under bench/ and the scripts under scripts/ use of
the package: every name they import or read off it, the functions that
bench/tracing.py wraps, the selftest checks that take ``samples``, the
constructors behind bench/exact_inputs.py and the certify workload's
audit.  A change under src/ that breaks the benchmark fails here.

Two scans keep the package free of what only tests use: every function
and class it defines is named by the package, bench/ or scripts/, every
method is read as an attribute by a file that imports geodesy or named
``Class.method`` under bench/, and every defaulted parameter is set by
some caller, tests included."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

from geodesy.candidates import load_candidate
from geodesy.selftest import CHECKS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PACKAGE = sorted((ROOT / "src" / "geodesy").glob("*.py"))
USERS = [*PACKAGE, *sorted(BENCH.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


def test_exactly_the_sampled_checks_take_samples():
    # bench/workloads.Exact passes samples only to a check whose signature
    # shows it: a sampled check that lost it would run its 100 samples
    # inside the timed exact pass
    sampled = [
        "jacobi identity", "bracket antisymmetry", "cartan involution automorphism", "cartan bracket inclusions",
        "complex structure", "cayley-hamilton", "eigenprojections",
    ]
    for name, fn in CHECKS:
        params = [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]
        assert params == ([("samples", 100)] if name in sampled else []), name


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


# -- what only tests use stays out of the package


def _trees(paths) -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _names(node) -> Counter:
    """How often node reads each name: as a name, an attribute, an imported
    name or a string that is an identifier (bench/tracing.py lists the
    functions it wraps as strings)."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.split(".")[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names[sub.value] += 1
    return names


def _definitions(node, prefix: str = ""):
    """(qualified name, node) of each function and class defined in node, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, f"{prefix}{child.name}.")


def _imports_geodesy(tree) -> bool:
    return any(
        isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "geodesy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "geodesy"
        for node in ast.walk(tree)
    )


def _attributes(node) -> Counter:
    """How often node reads each name as an attribute."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _methods(tree):
    """(class name, node) of each function defined directly in a class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, child


def test_every_package_definition_is_named_outside_itself():
    # special methods are called by the language, so they need no name.  A
    # method is used only where a file that imports geodesy reads it as an
    # attribute outside its own body, or where bench/ names it in a dotted
    # "Class.method" string, as bench/tracing.py's TARGETS do: a local
    # variable or a mode string of the same name calls nothing
    trees = _trees(USERS)
    named = sum((_names(tree) for tree in trees.values()), Counter())
    read = sum((_attributes(t) for path, t in trees.items() if path in PACKAGE or _imports_geodesy(t)), Counter())
    dotted = {
        sub.value
        for path in USERS
        if path.parent == BENCH
        for sub in ast.walk(trees[path])
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    }
    owners = {node: owner for path in PACKAGE for owner, node in _methods(trees[path])}
    unnamed = []
    for path in PACKAGE:
        for qualified, node in _definitions(trees[path]):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node in owners:
                used = read[node.name] > _attributes(node)[node.name] or f"{owners[node]}.{node.name}" in dotted
            else:
                used = named[node.name] > _names(node)[node.name]
            if not used:
                unnamed.append(f"{path.stem}.{qualified}")
    assert unnamed == []


def _calls(tree):
    """(callee name, positional arguments or None after a *args, keyword names) of each call in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            yield name, None if starred else len(node.args), {kw.arg for kw in node.keywords}


def _defaulted(path: Path, tree):
    """(label, callee names, parameter, positional index or None) of each
    defaulted parameter of each function in tree.  A method's index does
    not count self or cls, and a class's name calls its __init__."""
    for qualified, node in _definitions(tree):
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        positional = [arg.arg for arg in (*args.posonlyargs, *args.args)]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        owner = qualified.split(".")[-2] if "." in qualified and not static else None
        callees = {node.name, owner} if node.name == "__init__" else {node.name}
        first, shift = len(positional) - len(args.defaults), 0 if owner is None else 1
        for index, name in enumerate(positional[first:], first):
            yield f"{path.stem}.{qualified}", callees, name, index - shift
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{path.stem}.{qualified}", callees, arg.arg, None


def test_every_defaulted_parameter_is_set_by_some_caller():
    # a default no caller overrides is a constant, and belongs in the body
    calls = [call for tree in _trees([*USERS, *TESTS]).values() for call in _calls(tree)]
    trees = _trees(PACKAGE)
    unset = [
        f"{label}({param})"
        for path in PACKAGE
        for label, callees, param, index in _defaulted(path, trees[path])
        if not any(
            name in callees and (param in keywords or index is not None and (count is None or count > index))
            for name, count, keywords in calls
        )
    ]
    assert unset == []
