"""Every name a package module imports is used by that module, every name
in its __all__ is defined, every public name it defines has a consumer,
every error class is raised or caught, every name the benchmark tracer
wraps exists and is called through by a run, every config a benchmark
workload sends builds, importing the package or its CLI loads no scipy
subpackage that a run does not execute, and no command loads a scipy
module or numpy.fft: a command that transforms a field runs scipy's
compiled pocketfft module, which the package loads from its file
(tests/test_spectral.py)."""

import ast
import importlib.util
import pathlib
import subprocess
import sys

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


def test_benchmark_configs_build(tmp_path, monkeypatch):
    # the config layer rejects unknown keys, so a key a benchmark workload
    # sends (integrator.alpha, say) must stay in its schema
    from stocheuler import config

    path = SRC.parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it loads
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    builders = {"run": config.build_trajectory_config,
                "ensemble": config.build_ensemble_config}
    for name, workload in workloads.WORKLOADS.items():
        built = 0
        for op in workload.ops(1, 0, str(tmp_path), warmup=True):
            if op.argv[0] not in builders:
                continue
            sets = [value for flag, value in zip(op.argv, op.argv[1:])
                    if flag == "--set"]
            builders[op.argv[0]](config.apply_overrides({}, sets))
            built += 1
        assert built > 0, name


def test_every_all_entry_is_defined():
    # a stale __all__ entry breaks `from module import *`
    missing = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "stocheuler" if path.stem == "__init__"
            else f"stocheuler.{path.stem}")
        missing += [f"{module.__name__}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


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
    """Top-level functions, classes and assignments not starting with _,
    and the methods of those classes not starting with _, as Class.method."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("_")]
    return [n for n in names if not n.startswith("_")]


def _referenced_names(path: pathlib.Path) -> set[str]:
    """Identifiers read as a name or an attribute; strings do not count."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_every_public_name_has_a_consumer():
    # a public function or method that no module, benchmark workload or
    # acceptance test reaches is surface nothing runs
    root = SRC.parents[1]
    consumers = [*SRC.glob("*.py"), *(root / "perfbench").glob("*.py"),
                 root / "tests" / "test_acceptance.py"]
    used = set().union(*map(_referenced_names, consumers))
    used |= {attr for _, attr, _, _ in _benchmark_tracing().patch_targets()}
    # a method counts as consumed when its name is read as an attribute
    unused = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in _public_names(ast.parse(path.read_text()))
              if name.rsplit(".", 1)[-1] not in used]
    assert unused == []


# scipy subpackages no CLI run executes (scipy.stats loads the other
# three); together they cost every fresh process about 0.6 s and 43 MB of
# peak RSS on a 2-vCPU VM
UNUSED_SCIPY = ("scipy.stats", "scipy.integrate", "scipy.optimize",
                "scipy.sparse")


def _loaded_by_import(module: str, names: tuple[str, ...]) -> list[str]:
    """The names that importing module loads in a fresh interpreter (this
    one has loaded them for other tests)."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             f"import {module}; "
             "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, str(SRC.parent),
                          *names], capture_output=True, text=True,
                         check=True)
    return out.stdout.split()


@pytest.mark.parametrize("module", ["stocheuler.cli", "stocheuler"])
def test_import_loads_no_unused_scipy_subpackage(module):
    assert _loaded_by_import(module, UNUSED_SCIPY) == []


@pytest.mark.parametrize("module", ["stocheuler.cli", "stocheuler"])
def test_import_loads_no_process_pool(module):
    # only an ensemble wider than one worker starts the pool; its import
    # brought multiprocessing, logging, socket and subprocess to every
    # command
    assert _loaded_by_import(
        module, ("concurrent.futures", "multiprocessing")) == []


# the FFT modules no command loads: scipy's, and numpy's, whose rfft and
# irfft the package's transforms no longer call
FFT_MODULES = ("scipy", "numpy.fft")


def _scipy_after(code: str, *args: str, cwd=None) -> list[str]:
    """The FFT_MODULES loaded once code has run in a fresh interpreter with
    the package on its path and args in sys.argv[2:]."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); " + code + "; "
             "print(' '.join(m for m in sys.modules "
             f"if m.startswith({FFT_MODULES!r})))")
    out = subprocess.run([sys.executable, "-c", probe, str(SRC.parent),
                          *args], capture_output=True, text=True, check=True,
                         cwd=cwd)
    return out.stdout.split()


@pytest.mark.parametrize("module", ["stocheuler.cli", "stocheuler"])
def test_import_loads_no_scipy(module):
    # scipy.fft loads at the first transform, and the Wilson z is a
    # constant: scipy.special and scipy.fft were most of the start-up
    assert _scipy_after(f"import {module}") == []


CONFIGS = {"surrogate.yaml": """
surrogate: {alpha: 1.0, R: 16.0, T: 10.0, dt: 0.01}
ensemble: {n_paths: 20, master_seed: 5, parallel_width: 1}
bound_comparison: {mu: 0.375, alpha: 1.0, R: 16.0}
""", "run.yaml": """
grid: {dim: 2, n: 16}
noise: {kind: linear_multiplicative, alpha: 1.0}
integrator: {kind: em, T: 0.01, dt: 0.005}
""", "run3d.yaml": """
grid: {dim: 3, n: 8}
noise: {kind: linear_multiplicative, alpha: 1.0}
integrator: {kind: transformed, T: 0.01, dt: 0.005}
""", "pde.yaml": """
grid: {dim: 2, n: 16}
noise: {kind: linear_multiplicative, alpha: 1.0}
integrator: {kind: em, T: 0.01, dt: 0.005}
ensemble: {n_paths: 2, master_seed: 3, parallel_width: 1}
"""}


def _loaded_by_main(tmp_path, *argv: str) -> list[str]:
    """The FFT_MODULES loaded by cli.main(argv), run in tmp_path beside
    CONFIGS, in a fresh interpreter."""
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    return _scipy_after(
        "from stocheuler import cli; assert cli.main(sys.argv[2:]) == 0",
        *argv, "--out", "out", "--quiet", cwd=tmp_path)


@pytest.mark.parametrize("argv", [
    ["gbm-exit", "--n-paths", "100", "--T", "1"],
    ["kappa-table"],
    ["ode-bound", "--R-list", "1", "--alpha2-list", "4"],
    ["ensemble", "--config", "surrogate.yaml"],
], ids=lambda argv: argv[0])
def test_a_command_that_transforms_no_field_loads_no_scipy(tmp_path, argv):
    assert _loaded_by_main(tmp_path, *argv) == []


@pytest.mark.parametrize("argv", [
    ["run", "--config", "run.yaml"],
    ["run", "--config", "run3d.yaml"],
    ["ensemble", "--config", "pde.yaml"],
    ["mollifier-check"],
    ["transform-check", "--n", "16", "--T", "0.01", "--dt-list",
     "0.005,0.0025"],
], ids=["run-2d-em", "run-3d-transformed", "ensemble-pde", "mollifier-check",
        "transform-check"])
def test_a_command_that_transforms_fields_loads_no_scipy(tmp_path, argv):
    # the passes call scipy's compiled pocketfft module, loaded from its file
    # without a name in sys.modules, and not through scipy.fft; its r2c and
    # c2r run the last axis, so numpy.fft does not load either
    assert _loaded_by_main(tmp_path, *argv) == []
