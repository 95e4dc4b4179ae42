"""CLI exit codes, subcommands, and config-file plumbing."""

import csv
import json
import os
import pathlib
import re

import pytest
import yaml

from stocheuler import cli, config as cfgmod
from stocheuler.errors import ConfigError, NonFinite


# ---------------------------------------------------------------------------
# Parsing / exit codes


def test_no_subcommand_exits_usage(capsys):
    assert cli.main([]) == cli.EXIT_USAGE


def test_unknown_subcommand_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


def test_bad_flag_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gbm-exit", "--not-a-flag"])
    assert exc.value.code == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# gbm-exit


def test_gbm_exit_fast_run(tmp_path, capsys):
    out = tmp_path / "gbm.json"
    code = cli.main(["gbm-exit", "--T", "5", "--n-paths", "2000",
                     "--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["consistent"] is True
    assert payload["params"]["lambda_c"] == pytest.approx(0.25)
    assert 0.0 <= payload["estimate"]["p_hit"] <= 1.0


def test_gbm_exit_invalid_params(capsys):
    code = cli.main(["gbm-exit", "--mu", "5.0", "--alpha", "1.0"])
    assert code == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# kappa-table


def test_kappa_table_default_grid(tmp_path, capsys):
    out = tmp_path / "kappa.csv"
    code = cli.main(["kappa-table", "--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12  # 3 R values x 4 alpha^2 values
    for row in rows:
        assert float(row["log_K"]) >= 0.693  # K >= 2 throughout


def test_kappa_table_stdout_report(capsys):
    code = cli.main(["kappa-table", "--R-list", "1",
                     "--alpha2-list", "1,4"])
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    assert text.count("R=1") == 2


# ---------------------------------------------------------------------------
# ode-bound


def test_ode_bound_single_cell(tmp_path):
    out = tmp_path / "ode.json"
    code = cli.main(["ode-bound", "--R-list", "1", "--alpha2-list", "4",
                     "--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["all_satisfied"] is True
    assert len(payload["cells"]) == 1


# ---------------------------------------------------------------------------
# mollifier-check


def test_mollifier_check_passes(tmp_path):
    out = tmp_path / "moll.json"
    code = cli.main(["mollifier-check", "--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["uniform_bound_ok"] is True
    assert payload["convergence_monotone"] is True


# ---------------------------------------------------------------------------
# run / ensemble with config files


RUN_CONFIG = {
    "grid": {"dim": 2, "n": 16},
    "initial": {"name": "taylor_green", "amplitude": 0.5},
    "noise": {"kind": "linear_multiplicative", "alpha": 1.0, "seed": 4},
    "integrator": {"kind": "em", "T": 0.05, "dt": 0.005, "alpha": 1.0},
    "stopping": [{"kind": "w1inf_threshold", "level": 100.0}],
}

ENSEMBLE_CONFIG = {
    "surrogate": {"alpha": 1.0, "R": 16.0, "T": 10.0, "dt": 0.01},
    "ensemble": {"n_paths": 20, "master_seed": 5, "parallel_width": 1},
    "bound_comparison": {"mu": 0.375, "alpha": 1.0, "R": 16.0},
}


def _write_yaml(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_run_subcommand_writes_csv(tmp_path, capsys):
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    out = tmp_path / "traj.csv"
    code = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11  # initial sample + 10 steps
    assert all(float(r["l2"]) > 0 for r in rows)
    assert "T_final" in capsys.readouterr().out


def test_run_set_override_changes_duration(tmp_path, capsys):
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    out = tmp_path / "traj.csv"
    code = cli.main(["run", "--config", cfg, "--out", str(out),
                     "--set", "integrator.T=0.02", "--quiet"])
    assert code == cli.EXIT_OK
    with open(out) as fh:
        assert len(list(csv.DictReader(fh))) == 5  # 4 steps + initial


def test_ensemble_subcommand_persists_summary(tmp_path, capsys):
    cfg = _write_yaml(tmp_path, ENSEMBLE_CONFIG)
    out_dir = tmp_path / "out"
    code = cli.main(["ensemble", "--config", cfg, "--out", str(out_dir),
                     "--quiet"])
    assert code == cli.EXIT_OK
    payload = json.loads((out_dir / "summary.json").read_text())
    assert payload["n_paths"] == 20
    assert payload["analytic_bound"] == pytest.approx(0.5)


def test_run_rejects_unwired_integrator_kind(tmp_path, capsys):
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    code = cli.main(["run", "--config", cfg,
                     "--set", "integrator.kind=vorticity2d"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: integrator.kind")
    assert "em, rk4, transformed" in err


def test_ensemble_rejects_unwired_integrator_before_any_path(tmp_path,
                                                            capsys):
    doc = dict(RUN_CONFIG, ensemble={"n_paths": 4, "master_seed": 1})
    cfg = _write_yaml(tmp_path, doc)
    out_dir = tmp_path / "out"
    code = cli.main(["ensemble", "--config", cfg, "--out", str(out_dir),
                     "--set", "integrator.kind=vorticity2d"])
    assert code == cli.EXIT_USAGE
    assert "integrator.kind" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("noise_kind", ["none", "additive"])
def test_transformed_needs_linear_multiplicative_noise(tmp_path, capsys,
                                                       noise_kind):
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    code = cli.main(["run", "--config", cfg,
                     "--set", "integrator.kind=transformed",
                     "--set", f"noise.kind={noise_kind}"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: integrator.kind")
    assert "linear_multiplicative" in err


def test_run_over_cfl_limit_exits_usage(tmp_path, capsys):
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    code = cli.main(["run", "--config", cfg, "--set", "integrator.dt=1.0"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "dt=1.0" in err and "CFL limit" in err


def test_non_finite_result_exits_science(monkeypatch, capsys):
    def blow_up(**kwargs):
        raise NonFinite("non-finite Fourier coefficient")

    monkeypatch.setattr(cli.checks, "transform_equivalence_check", blow_up)
    assert cli.main(["transform-check", "--quiet"]) == cli.EXIT_SCIENCE
    assert "non-finite" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(capsys):
    code = cli.main(["run", "--config", "/nonexistent.yaml"])
    assert code == cli.EXIT_USAGE


def test_malformed_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# Config translation layer


def test_apply_overrides_parses_yaml_scalars():
    doc = {"grid": {"n": 16}}
    out = cfgmod.apply_overrides(doc, ["grid.n=32", "integrator.dt=1e-3"])
    assert out["grid"]["n"] == 32
    assert out["integrator"]["dt"] == pytest.approx(1e-3)
    with pytest.raises(ConfigError):
        cfgmod.apply_overrides({}, ["no-equals-sign"])


def test_build_noise_kinds():
    doc = {"grid": {"dim": 2, "n": 16}}
    grid = cfgmod.build_grid(doc)
    for kind in ("none", "additive", "nemytskii", "functional",
                 "linear_multiplicative"):
        model, noise_seed = cfgmod.build_noise(
            {"noise": {"kind": kind, "k_modes": 2}}, grid)
        assert noise_seed == 0
    with pytest.raises(ConfigError):
        cfgmod.build_noise({"noise": {"kind": "bogus"}}, grid)


def test_build_stopping_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        cfgmod.build_stopping({"stopping": [{"kind": "bogus", "level": 1}]})


def test_build_stopping_rejects_nonpositive_level():
    with pytest.raises(ConfigError, match=r"stopping\[0\]"):
        cfgmod.build_stopping(
            {"stopping": [{"kind": "w1inf_threshold", "level": 0}]})


def test_build_trajectory_requires_integrator_section():
    doc = {"grid": {"dim": 2, "n": 16}}
    with pytest.raises(ConfigError):
        cfgmod.build_trajectory_config(doc)


@pytest.mark.parametrize("stopping, message", [
    ("[w1inf_threshold]", "must be a mapping"),
    ("[{kind: w1inf_threshold}]", "missing key 'level'"),
    ("[{kind: w1inf_threshold, level: abc}]", "level must be a number"),
])
def test_run_rejects_bad_stopping_entry(tmp_path, capsys, stopping, message):
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    code = cli.main(["run", "--config", cfg, "--set", f"stopping={stopping}"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: stopping[0]: ")
    assert message in err


@pytest.mark.parametrize("override, prefix", [
    ("norms.p=1", "norms: "),
    ("norms.m=-1", "norms: "),
    ("stopping=[{kind: sobolev_threshold, level: 1.0, m: 1, p: 1.5}]",
     "stopping[0]: "),
])
def test_run_rejects_unsupported_norm(tmp_path, capsys, override, prefix):
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    code = cli.main(["run", "--config", cfg, "--set", override])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: " + prefix)
    assert len(err.splitlines()) == 1


SWEEP = "{alpha_list: [1.0], R: 1.0, scaling: bogus}"


@pytest.mark.parametrize("base, overrides, prefix", [
    pytest.param(ENSEMBLE_CONFIG, ["surrogate={alpha: 1.0, R: 16.0, T: 10.0}"],
                 "surrogate: missing key 'dt'", id="surrogate-no-dt"),
    pytest.param(ENSEMBLE_CONFIG, ["surrogate.dt=0"],
                 "surrogate: T and dt must be", id="surrogate-dt-0"),
    pytest.param(ENSEMBLE_CONFIG, ["bound_comparison={alpha: 1.0, R: 16.0}"],
                 "bound_comparison: missing key 'mu'", id="bound-no-mu"),
    pytest.param(RUN_CONFIG, ["integrator.dt=0"],
                 "integrator: dt must be positive", id="integrator-dt-0"),
    pytest.param(RUN_CONFIG, ["integrator.sample_every=0"],
                 "integrator: sample_every must be >= 1",
                 id="integrator-sample-every-0"),
    pytest.param(RUN_CONFIG, ["ensemble.parallel_width=0"], "ensemble: ",
                 id="parallel-width-0"),
    pytest.param(RUN_CONFIG, ["initial.name=bogus"],
                 "initial: unknown initial field", id="initial-name"),
    pytest.param(RUN_CONFIG, ["noise.kind=nemytskii", "noise.g=bogus"],
                 "noise.g: unknown g tag", id="noise-g"),
    pytest.param(RUN_CONFIG, [f"sweep={SWEEP}"],
                 "sweep: unknown data_scaling 'bogus'", id="sweep-scaling"),
    pytest.param(ENSEMBLE_CONFIG, ["sweep={alpha_list: [1.0], R: 1.0}"],
                 "sweep: needs a trajectory config", id="sweep-surrogate"),
])
def test_ensemble_rejects_bad_input_before_any_path(tmp_path, capsys, base,
                                                    overrides, prefix):
    doc = dict(base, ensemble={"n_paths": 2, "master_seed": 1})
    cfg = _write_yaml(tmp_path, doc)
    out_dir = tmp_path / "out"
    sets = [a for item in overrides for a in ("--set", item)]
    code = cli.main(["ensemble", "--config", cfg, "--out", str(out_dir),
                     *sets])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: " + prefix)
    assert len(err.splitlines()) == 1
    assert not out_dir.exists()


def _exit_code(argv: list[str]) -> int:
    """main's return code, or the code of argparse's SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


PDE_ENSEMBLE = dict(RUN_CONFIG, ensemble={"n_paths": 2, "master_seed": 1})


@pytest.mark.parametrize("command, base, args, message", [
    pytest.param("ensemble", PDE_ENSEMBLE, ["--seed", "-1"],
                 "argument --seed: expected a non-negative integer",
                 id="ensemble-seed-flag"),
    pytest.param("ensemble", PDE_ENSEMBLE,
                 ["--set", "ensemble.master_seed=-1"],
                 "config error: ensemble: master_seed must be non-negative",
                 id="ensemble-master-seed"),
    pytest.param("ensemble", ENSEMBLE_CONFIG, ["--seed", "-1"],
                 "argument --seed: expected a non-negative integer",
                 id="surrogate-seed-flag"),
    pytest.param("ensemble", ENSEMBLE_CONFIG,
                 ["--set", "ensemble.master_seed=-1"],
                 "config error: ensemble: master_seed must be non-negative",
                 id="surrogate-master-seed"),
    pytest.param("run", RUN_CONFIG, ["--seed", "-1"],
                 "argument --seed: expected a non-negative integer",
                 id="run-seed-flag"),
    pytest.param("run", RUN_CONFIG, ["--set", "noise.seed=-1"],
                 "config error: noise: seed must be non-negative",
                 id="noise-seed"),
    pytest.param("run", RUN_CONFIG,
                 ["--set", "initial.name=random", "--set", "initial.seed=-1"],
                 "config error: initial: ", id="initial-seed"),
    pytest.param("gbm-exit", None, ["--seed", "-1", "--n-paths", "10"],
                 "argument --seed: expected a non-negative integer",
                 id="gbm-exit-seed-flag"),
    pytest.param("transform-check", None, ["--seed", "-1", "--n", "16"],
                 "argument --seed: expected a non-negative integer",
                 id="transform-check-seed-flag"),
    pytest.param("run", RUN_CONFIG, ["--set", "initial.amplitude=abc"],
                 "config error: initial: ", id="initial-amplitude"),
    pytest.param("run", RUN_CONFIG, ["--set", "noise.alpha=abc"],
                 "config error: noise: ", id="noise-alpha"),
    pytest.param("run", RUN_CONFIG,
                 ["--set", "noise.kind=additive", "--set", "noise.k_modes=-1"],
                 "config error: noise: k_modes must be >= 0",
                 id="noise-k-modes"),
    pytest.param("kappa-table", None, ["--R-list", ","],
                 "argument --R-list: expected a comma-separated list",
                 id="kappa-table-empty-R-list"),
    pytest.param("ode-bound", None, ["--R-list", ","],
                 "argument --R-list: expected a comma-separated list",
                 id="ode-bound-empty-R-list"),
    pytest.param("transform-check", None, ["--dt-list", ","],
                 "argument --dt-list: expected a comma-separated list",
                 id="transform-check-empty-dt-list"),
    pytest.param("transform-check", None, ["--n", "7"],
                 "invalid parameters: n must be even and >= 8",
                 id="transform-check-odd-n"),
    pytest.param("transform-check", None,
                 ["--n", "16", "--T", "0.05", "--dt-list", "0.01,0.003"],
                 "invalid parameters: every dt in [0.01, 0.003] must be",
                 id="transform-check-dt-not-a-multiple"),
    pytest.param("transform-check", None,
                 ["--n", "16", "--T", "0.05", "--dt-list", "0.01,0.02"],
                 "invalid parameters: every dt in [0.01, 0.02] must be",
                 id="transform-check-dt-not-dividing-T"),
    pytest.param("transform-check", None, ["--n", "16", "--dt-list", "0.01"],
                 "invalid parameters: need T > 0 and at least two dts",
                 id="transform-check-one-dt"),
])
def test_bad_seed_or_number_exits_usage(tmp_path, capsys, command, base,
                                        args, message):
    config = [] if base is None else ["--config", _write_yaml(tmp_path,
                                                              base)]
    out = tmp_path / "out"
    code = _exit_code([command, *config, "--out", str(out / "result"),
                       "--quiet", *args])
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, base", [
    ("run", RUN_CONFIG), ("ensemble", PDE_ENSEMBLE)])
def test_integrator_alpha_must_equal_noise_alpha(tmp_path, capsys, command,
                                                 base):
    cfg = _write_yaml(tmp_path, base)
    out = tmp_path / "out"
    code = cli.main([command, "--config", cfg, "--out", str(out / "result"),
                     "--set", "integrator.alpha=2.0"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: integrator.alpha: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_equal_integrator_alpha_is_accepted(tmp_path, capsys):
    # the form of the benchmark's ensemble workload: noise.alpha repeated
    # as integrator.alpha, the master seed from --seed
    cfg = _write_yaml(tmp_path, PDE_ENSEMBLE)
    out = tmp_path / "out"
    code = cli.main(["ensemble", "--config", cfg, "--out", str(out),
                     "--seed", "7", "--set", "integrator.alpha=1.0",
                     "--quiet"])
    assert code == cli.EXIT_OK
    payload = json.loads((out / "summary.json").read_text())
    assert payload["master_seed"] == 7
    assert payload["n_engineering_failures"] == 0


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_builds():
    # a key the README documents but the config layer rejects fails here
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    doc = yaml.safe_load(blocks[0])
    assert cfgmod.build_trajectory_config(doc).T == doc["integrator"]["T"]
    ensemble = cfgmod.build_ensemble_config(doc)
    assert ensemble.n_paths == doc["ensemble"]["n_paths"]


@pytest.mark.parametrize("cap", ["abc", "0", "-2", "1.5"])
def test_bad_thread_cap_exits_usage(tmp_path, capsys, monkeypatch, cap):
    doc = dict(PDE_ENSEMBLE, ensemble={"n_paths": 2, "master_seed": 1,
                                       "parallel_width": 2})
    cfg = _write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    monkeypatch.setenv("STOCHEULER_THREADS", cap)
    code = cli.main(["ensemble", "--config", cfg, "--out", str(out),
                     "--quiet"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: STOCHEULER_THREADS ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, args, default", [
    ("transform-check",
     ["--n", "16", "--T", "0.05", "--dt-list", "0.01,0.005"], "67"),
    ("mollifier-check", [], "5"),
])
def test_seed_zero_is_not_the_default_seed(tmp_path, capsys, command, args,
                                           default):
    texts = {}
    for seed in ("0", default):
        out = tmp_path / f"seed{seed}.json"
        assert cli.main([command, *args, "--seed", seed, "--out", str(out),
                         "--quiet"]) in (cli.EXIT_OK, cli.EXIT_SCIENCE)
        texts[seed] = out.read_text()
    assert texts["0"] != texts[default]
