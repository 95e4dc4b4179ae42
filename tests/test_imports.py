"""Every name a package module imports is used by that module, every public
name it defines has a consumer, every error class is raised or caught, and
every name the benchmark tracer wraps exists and is called through by a
run."""

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


def _benchmark_tracing():
    """perfbench/tracing.py, loaded read-only as a module of its own."""
    path = SRC.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_targets_resolve():
    # perfbench/run.py --trace 1 patches these names; a refactor that drops
    # one would break tracing without failing any other test
    tracing = _benchmark_tracing()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.patch_targets()
               if not callable(getattr(owner, attr, None))]
    assert missing == []


@pytest.mark.parametrize("kind", ["em", "rk4"])
def test_benchmark_tracer_sees_each_layer_of_a_run(tmp_path, kind):
    # the patched names must still be the ones a run calls through, and the
    # tracer must put every original back
    from stocheuler import cli

    tracing = _benchmark_tracing()
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in tracing.patch_targets()]
    argv = ["run", "--quiet", "--out", str(tmp_path / "run.csv"),
            "--set", "grid={dim: 2, n: 16}",
            "--set", "initial={name: taylor_green, amplitude: 0.5}",
            "--set", "noise={kind: linear_multiplicative, alpha: 1.0}",
            "--set", f"integrator={{kind: {kind}, T: 0.02, dt: 0.005}}"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(argv) == cli.EXIT_OK
    calls = {name: int(t["calls"])
             for name, t in tracing.layer_totals(tracer.spans).items()}
    for layer in ("dynamics.integrate_trajectory", "dynamics.step",
                  "dynamics.cfl_limit", "spectral.nonlinear_term",
                  "spectral.leray_project", "spectral.norms",
                  "noise.apply_noise", "noise.sample_increments"):
        assert calls.get(layer, 0) > 0, layer
    assert calls["dynamics.step"] == 4
    assert all(getattr(owner, attr) is orig
               for owner, attr, orig in originals)


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


def _public_names(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and assignments not starting with _."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def _referenced_names(path: pathlib.Path) -> set[str]:
    """Identifiers read as a name or an attribute; strings do not count."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_every_public_name_has_a_consumer():
    # a public function no module, benchmark workload or acceptance test
    # reaches is surface nothing runs
    root = SRC.parents[1]
    consumers = [*SRC.glob("*.py"), *(root / "perfbench").glob("*.py"),
                 root / "tests" / "test_acceptance.py"]
    used = set().union(*map(_referenced_names, consumers))
    used |= {attr for _, attr, _, _ in _benchmark_tracing().patch_targets()}
    unused = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in _public_names(ast.parse(path.read_text()))
              if name not in used]
    assert unused == []
