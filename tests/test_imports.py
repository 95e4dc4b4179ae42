"""Every name a package module imports is used by that module, and every
name the benchmark tracer wraps exists."""

import ast
import importlib.util
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stocheuler"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_benchmark_tracer_targets_resolve():
    # perfbench/run.py --trace 1 patches these names; a refactor that drops
    # one would break tracing without failing any other test
    path = SRC.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.patch_targets()
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def _handled_names(tree: ast.Module) -> set[str]:
    """Names that appear in a raise statement or an except clause."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names |= {n.id for n in ast.walk(node.exc)
                      if isinstance(n, ast.Name)}
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            names |= {n.id for n in ast.walk(node.type)
                      if isinstance(n, ast.Name)}
    return names


def test_every_error_class_is_raised_or_caught():
    # an exception type nothing raises or catches documents a failure mode
    # the package does not have
    errors = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in errors.body
               if isinstance(node, ast.ClassDef)} - {"StochEulerError"}
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            used |= _handled_names(ast.parse(path.read_text()))
    assert sorted(classes - used) == []
