"""CLI exit codes, subcommands, and config-file plumbing."""

import csv
import hashlib
import json
import os
import pathlib
import re

import pytest
import yaml

from stocheuler import analysis, cli, config as cfgmod, dynamics
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
    assert payload["gain_bounded"] is True
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


def test_the_one_parser_carries_nothing_from_call_to_call(tmp_path, capsys,
                                                        monkeypatch):
    # main parses every call with one parser: a flag that one call gives
    # does not reach the next, and a usage error exits 1 each time
    seen = []
    real = cli.integrate_trajectory

    def recording(cfg, ids):
        seen.append((cfg.u0.grid.n, ids))
        return real(cfg, ids)

    monkeypatch.setattr(cli, "integrate_trajectory", recording)
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    for flags in (["--set", "grid.n=8", "--seed", "3"], []):
        assert cli.main(["run", "--config", cfg, "--quiet", *flags]) \
            == cli.EXIT_OK
    assert seen == [(8, [3]), (16, [0])]
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", cfg, "--not-a-flag"])
        assert exc.value.code == cli.EXIT_USAGE
    assert cli.main(["run", "--config", cfg, "--quiet"]) == cli.EXIT_OK
    assert seen[-1] == (16, [0])


@pytest.mark.parametrize("kind", ["em", "rk4"])
@pytest.mark.parametrize("dim", [2, 3])
def test_run_sampled_every_third_step_keeps_those_rows(tmp_path, capsys,
                                                       kind, dim):
    # a step that no sample precedes takes its flux values and CFL bound
    # from its own pruned inverse, a sampled one from the sample's view;
    # both are the grid values of the same dealiased state, so every row
    # of a run sampled every third step is byte for byte the row of an
    # every-step run at the same time
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    lines = {}
    for every in (1, 3):
        out = tmp_path / f"every{every}.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--quiet", "--set", f"grid.dim={dim}",
                         "--set", f"integrator.kind={kind}",
                         "--set", f"integrator.sample_every={every}"]
                        ) == cli.EXIT_OK
        lines[every] = out.read_text().splitlines()
    # header, then steps 0, 3, 6, 9 and the last step, 10
    assert lines[3] == [lines[1][0]] + [lines[1][1 + step]
                                        for step in (0, 3, 6, 9, 10)]


def test_ensemble_subcommand_persists_summary(tmp_path, capsys):
    cfg = _write_yaml(tmp_path, ENSEMBLE_CONFIG)
    out_dir = tmp_path / "out"
    code = cli.main(["ensemble", "--config", cfg, "--out", str(out_dir),
                     "--quiet"])
    assert code == cli.EXIT_OK
    payload = json.loads((out_dir / "summary.json").read_text())
    assert payload["n_paths"] == 20
    assert payload["analytic_bound"] == pytest.approx(0.5)


# sha256 of the outputs at commit 65a1c8a, whose steppers ran on whole half
# spectra (numpy 2.4, scipy 1.17): the kept-box steppers must give the same
# bytes.  A random field of seed 3, 10 steps of dt = 0.005.  Re-recorded
# after commit 53da025, where the driver began to report t = k dt: only the
# t column changed (0.030000000000000002 -> 0.03 and 0.049999999999999996
# -> 0.05), so only the run CSVs and paths/2.csv have new digests.
DIGEST_RUN = {
    "grid": {"dim": 2, "n": 16},
    "initial": {"name": "random", "amplitude": 0.5, "seed": 3},
    "integrator": {"kind": "em", "T": 0.05, "dt": 0.005},
}
DIGEST_NOISE = {
    "none": {"kind": "none"},
    "linear_multiplicative": {"kind": "linear_multiplicative", "alpha": 1.0,
                              "seed": 4},
    "additive": {"kind": "additive", "k_modes": 2, "seed": 4},
}
RUN_DIGESTS = {
    (2, "em", "none"):
        "15af325ea2ed44d28f6476342afe2f6a4853b57235442bad8e7c1f8aed39d0cc",
    (2, "em", "linear_multiplicative"):
        "dbc3f95b59eb8393fe56f347ecd6ed3f1ab8729cb7a52a0582ee0f757567f3e9",
    (2, "em", "additive"):
        "bd45e4a45e83eef6c7c391b7969bdbb1772af14d95f7333f33a0238731a9d70b",
    (2, "rk4", "none"):
        "54dac63fe93cc1a8814130e20b6f220f886ae381e69c236c46c1989bfca43e29",
    (2, "rk4", "linear_multiplicative"):
        "c98ededc2002a2bb02971ad415602bf6dc78d80d6a0317904a3288f410019ff0",
    (2, "rk4", "additive"):
        "3c7f9059aa4073a57ff038eef52d4ceb58e288de0448dfc16940ca0a3a8e8af9",
    (2, "transformed", "linear_multiplicative"):
        "e38c18722e0a03a1dc9f2f89ed9e3f4cc7fb00010b2b8b5fa1aa6e77f259e003",
    (3, "em", "none"):
        "a6e2cc48069677953a35bdf7e1d60de1e6347e8a6d2b545ba00ea3d240e4a55e",
    (3, "em", "linear_multiplicative"):
        "5c0ec5ffe9301f4aadcb0e3dd7c8df038624aefd14c94d8baaea7727817a5e1f",
    (3, "em", "additive"):
        "53dbe0f0e4d7ef2d6f0016c1f4f4c4c37f5b101a1a41210061595dbf342ed51b",
    (3, "rk4", "none"):
        "8d0dfde98e7c935f1de99b9b512085ef4f1b2d4128a2ca1fc666a4a43fa50b7f",
    (3, "rk4", "linear_multiplicative"):
        "6cc9e351baf153503e59fa8edc8962c7386138ac8c934adfeef0ca5b3b9aa764",
    (3, "rk4", "additive"):
        "c16f0a32d8f7781cfa9322a22467119b7628f5453237f139e2e7498f916deafa",
    (3, "transformed", "linear_multiplicative"):
        "2471e0de3cabd50ff68a2049784167f34e90a03db42b2f3b74d02272ead0592a",
}
# 4 paths of an em ensemble, 3 of which hit the gbm level mid-run
ENSEMBLE_DIGESTS = {
    "paths/0.csv":
        "c23b56ef0d07fe21b62f7b068c1d4cd988b261b6e4f453054eff861f4074ef01",
    "paths/1.csv":
        "a4ce53d738377d9e9e6b513f505ecda7e48ffb0b05a28f3ffa547a2de596bcd2",
    "paths/2.csv":
        "c2186a9776bde6712cac94828f1123a3025401301c92c06486efafc4c31fb346",
    "paths/3.csv":
        "03a058da3be4d07180db06af0beee32120404f3c59e084c0e024b7ff8e7d7fd4",
    "summary.json":
        "41847ab6fde4374663ec6bff91223b720525364bd98c0a02c6b85baff9c70269",
}


def _sha256(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("dim, kind, noise_kind", list(RUN_DIGESTS))
def test_run_csv_is_byte_identical_to_the_whole_array_steppers(
        tmp_path, capsys, dim, kind, noise_kind):
    doc = dict(DIGEST_RUN, grid={"dim": dim, "n": {2: 16, 3: 8}[dim]},
               noise=DIGEST_NOISE[noise_kind],
               integrator=dict(DIGEST_RUN["integrator"], kind=kind))
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--config", _write_yaml(tmp_path, doc),
                     "--out", str(out), "--quiet"]) == cli.EXIT_OK
    assert _sha256(out) == RUN_DIGESTS[dim, kind, noise_kind]


@pytest.mark.parametrize("width", [1, 2])
def test_ensemble_is_byte_identical_to_the_whole_array_steppers(
        tmp_path, capsys, width):
    doc = dict(DIGEST_RUN, noise=DIGEST_NOISE["linear_multiplicative"],
               ensemble={"n_paths": 4, "master_seed": 7,
                         "parallel_width": width},
               stopping=[{"kind": "gbm_level", "level": 1.05}])
    out_dir = tmp_path / "out"
    assert cli.main(["ensemble", "--config", _write_yaml(tmp_path, doc),
                     "--out", str(out_dir), "--quiet"]) == cli.EXIT_OK
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    assert {p.relative_to(out_dir).as_posix(): _sha256(p)
            for p in files} == ENSEMBLE_DIGESTS


def test_run_csv_times_are_whole_steps_of_dt(tmp_path, capsys):
    # the t column is k dt for the step k; a time accumulated as t + dt
    # wrote 0.030000000000000002 and 0.049999999999999996 here
    doc = dict(DIGEST_RUN, noise=DIGEST_NOISE["none"])
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--config", _write_yaml(tmp_path, doc),
                     "--out", str(out), "--quiet"]) == cli.EXIT_OK
    with open(out) as fh:
        times = [row["t"] for row in csv.DictReader(fh)]
    assert times == [repr(k * 0.005) for k in range(11)]
    assert times[-1] == "0.05"


# sha256 of ode-bound --R-list 1,2 --alpha2-list 1,4 per z profile, and of
# the default kappa-table CSV, recorded at commit 53da025 (numpy 2.4)
ODE_BOUND_DIGESTS = {
    "extremal":
        "db939d2e527575b496801fc1f6ce36aef7e217451739483e971aabeb379b3ff8",
    "half":
        "37ca8d5df9aed475381f85f3903ee0d99f12996e24375366977f886e251e27b1",
    "zero":
        "b43cfc12937d91c4c090a8be2abe60e6312c1dee6c14f9d2efdb4e573706a955",
    "decaying":
        "67b9a775ffa8222424dc418e6c9e0c72b4912d6946bb093e957078f83f95bfde",
}
KAPPA_TABLE_DIGEST = (
    "a22b388c19230360888f305ce8a9ef9083e163b61c8d3955b69206b6ab1a2870")


@pytest.mark.parametrize("z_profile", list(ODE_BOUND_DIGESTS))
def test_ode_bound_json_keeps_its_bits(tmp_path, z_profile):
    out = tmp_path / "ode.json"
    assert cli.main(["ode-bound", "--R-list", "1,2", "--alpha2-list", "1,4",
                     "--z-profile", z_profile, "--out", str(out),
                     "--quiet"]) == cli.EXIT_OK
    assert _sha256(out) == ODE_BOUND_DIGESTS[z_profile]


def test_kappa_table_csv_keeps_its_bits(tmp_path):
    out = tmp_path / "kappa.csv"
    assert cli.main(["kappa-table", "--out", str(out),
                     "--quiet"]) == cli.EXIT_OK
    assert _sha256(out) == KAPPA_TABLE_DIGEST


@pytest.mark.parametrize("command", ["run", "ensemble"])
@pytest.mark.parametrize("name", ["random", "taylor_green"])
def test_initial_field_whose_l2_norm_overflows_exits_usage(
        tmp_path, capsys, command, name):
    # finite coefficients whose L^2 norm overflows: a run sampled l2 = inf,
    # printed numpy overflow warnings and exited 0 with blow_up=True at
    # T_final=0
    doc = dict(RUN_CONFIG, ensemble={"n_paths": 2, "master_seed": 1})
    out = tmp_path / "out"
    code = cli.main([command, "--config", _write_yaml(tmp_path, doc),
                     "--out", str(out), "--set", "grid.n=16",
                     "--set", f"initial={{name: {name}, amplitude: 1e200}}"])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == ("config error: initial: the field's L^2 norm "
                            "overflows at amplitude 1e+200\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "ensemble"])
def test_abc_field_on_a_2d_grid_exits_usage(tmp_path, capsys, command):
    # ended in a ShapeMismatch traceback
    doc = dict(RUN_CONFIG, ensemble={"n_paths": 2, "master_seed": 1})
    out = tmp_path / "out"
    code = cli.main([command, "--config", _write_yaml(tmp_path, doc),
                     "--out", str(out), "--set", "initial.name=abc"])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "config error: initial: ABC field is 3D only\n"
    assert captured.out == ""
    assert not out.exists()


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
    # the whole noise section is replaced: neither kind reads noise.alpha
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    code = cli.main(["run", "--config", cfg,
                     "--set", "integrator.kind=transformed",
                     "--set", f"noise={{kind: {noise_kind}, seed: 4}}"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: integrator.kind")
    assert "linear_multiplicative" in err


def test_run_over_cfl_limit_exits_usage(tmp_path, capsys):
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    code = cli.main(["run", "--config", cfg, "--set", "integrator.dt=1.0",
                     "--set", "integrator.T=1.0"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "dt=1.0" in err and "CFL limit" in err


# a transformed run whose dt = 0.1 is about 70 times its CFL limit
OVER_CFL_TRANSFORMED = [
    "--set", "grid.n=32", "--set", "initial.name=random",
    "--set", "initial.amplitude=200",
    "--set", "noise.kind=linear_multiplicative",
    "--set", "integrator.kind=transformed", "--set", "integrator.T=2.0",
    "--set", "integrator.dt=0.1"]


def test_transformed_run_over_cfl_limit_exits_usage(tmp_path, capsys):
    # an unstable dt stops the transformed integrator as it stops em and
    # rk4, and is not reported as a blow-up
    out = tmp_path / "traj.csv"
    code = cli.main(["run", *OVER_CFL_TRANSFORMED, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("cfl violation: dt=0.1 exceeds CFL limit")
    assert "blow_up" not in captured.out
    assert not out.exists()


def test_transformed_ensemble_over_cfl_limit_exits_usage(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["ensemble", *OVER_CFL_TRANSFORMED,
                     "--set", "ensemble={n_paths: 2, master_seed: 1}",
                     "--out", str(out), "--quiet"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "all 2 paths failed" in err[0]
    assert "(2 paths): CflViolation: dt=0.1 exceeds CFL limit" in err[0]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_blow_up"] == 0
    assert summary["n_engineering_failures"] == 2


@pytest.mark.parametrize("dt, cfl, code", [
    ("0.005", "1e-4", cli.EXIT_USAGE),
    ("0.5", "0.5", cli.EXIT_USAGE),
    ("0.5", "1.0", cli.EXIT_OK)])
def test_transformed_run_reads_integrator_cfl(tmp_path, capsys, dt, cfl,
                                              code):
    # integrator.cfl sets the transformed integrator's limit c_cfl dx /
    # max|u|, with no (0.1/alpha)^2 cap (0.01 here): RUN_CONFIG's
    # Taylor-Green field has max|u| = 0.5 and dx = 2 pi / 16, so the limit
    # is 0.785 c_cfl
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    assert cli.main(["run", "--config", cfg, "--quiet",
                     "--set", "integrator.kind=transformed",
                     "--set", f"integrator.cfl={cfl}",
                     "--set", f"integrator.dt={dt}",
                     "--set", f"integrator.T={dt}"]) == code
    err = capsys.readouterr().err
    if code == cli.EXIT_USAGE:
        assert err.startswith(f"cfl violation: dt={dt} exceeds CFL limit")
    else:
        assert err == ""


@pytest.mark.parametrize("dt, stepper_raises, code, reason", [
    ("0.5", False, cli.EXIT_USAGE, "CflViolation: dt=0.5 exceeds CFL limit"),
    ("0.005", True, cli.EXIT_SCIENCE, "ValueError: broken stepper"),
])
def test_all_failed_ensemble_exits_with_its_reason(tmp_path, capsys,
                                                   monkeypatch, dt,
                                                   stepper_raises, code,
                                                   reason):
    def broken(*args, **kwargs):
        raise ValueError("broken stepper")

    if stepper_raises:
        monkeypatch.setattr(dynamics, "step_em", broken)
    doc = dict(RUN_CONFIG, ensemble={"n_paths": 3, "master_seed": 1})
    cfg = _write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["ensemble", "--config", cfg, "--out", str(out),
                     "--set", f"integrator.dt={dt}",
                     "--set", f"integrator.T={dt}", "--quiet"]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "all 3 paths failed" in err[0] and "(3 paths)" in err[0]
    assert f"): {reason}" in err[0]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_engineering_failures"] == 3
    # no path ran to give an estimate (they read 0.0 and a 3-path interval)
    for key in ("survival_fraction", "wilson_99", "mean_final_l2",
                "max_final_l2", "mean_final_wmp", "max_final_wmp"):
        assert summary[key] is None, key


def test_non_finite_result_exits_science(monkeypatch, capsys):
    def blow_up(**kwargs):
        raise NonFinite("non-finite Fourier coefficient")

    monkeypatch.setattr(cli.checks, "transform_equivalence_check", blow_up)
    assert cli.main(["transform-check", "--quiet"]) == cli.EXIT_SCIENCE
    assert "non-finite" in capsys.readouterr().err


def test_ode_bound_stiffness_failure_exits_science(tmp_path, capsys):
    # at alpha^2 = 100 step doubling from dt = 1 still misses the 1e-8
    # tolerance after eight halvings
    out = tmp_path / "ode.json"
    code = cli.main(["ode-bound", "--R-list", "4", "--alpha2-list", "100",
                     "--dt", "1", "--out", str(out), "--quiet"])
    assert code == cli.EXIT_SCIENCE
    err = capsys.readouterr().err
    assert err.startswith("stiffness failure: step-doubling residual ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("R, code, message", [
    # log kappa is finite, and the log solution passes -1.8e308
    (120.0, cli.EXIT_SCIENCE, "stiffness failure: the log solution left the "
                              "double range at t=19.69 (dt=0.01)"),
    # log kappa is -inf (K overflows the log too)
    (200.0, cli.EXIT_USAGE, "invalid parameters: log_y0 must be finite, "
                            "got -inf"),
])
def test_ode_bound_out_of_range_log_solution_ends_at_once(
        tmp_path, capsys, monkeypatch, R, code, message):
    # step doubling halved dt eight times on NaN, 26-53 s, behind a numpy
    # RuntimeWarning
    integrate, calls = cli.analysis._integrate_logY, []

    def counted(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(cli.analysis, "_integrate_logY", counted)
    out = tmp_path / "ode.json"
    assert cli.main(["ode-bound", "--R-list", str(R), "--alpha2-list", "1",
                     "--out", str(out), "--quiet"]) == code
    assert capsys.readouterr().err == message + "\n"
    assert len(calls) <= 2
    assert not out.exists()


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


@pytest.mark.parametrize("n", [16, "16", 16.0])
def test_integer_key_takes_an_integral_value(n):
    assert cfgmod.build_grid({"grid": {"n": n}}).n == 16


# each noise kind with every key it reads
NOISE_KIND_KEYS = {
    "none": {},
    "linear_multiplicative": {"alpha": 2.0},
    "additive": {"k_modes": 2, "mode_decay": 1.5},
    "functional": {"k_modes": 2, "mode_decay": 1.5},
    "nemytskii": {"k_modes": 2, "mode_decay": 1.5, "g": "cube"},
}


def test_build_noise_kinds():
    doc = {"grid": {"dim": 2, "n": 16}}
    grid = cfgmod.build_grid(doc)
    for kind, keys in NOISE_KIND_KEYS.items():
        model, noise_seed = cfgmod.build_noise(
            {"noise": {"kind": kind, **keys}}, grid)
        assert noise_seed == 0
    with pytest.raises(ConfigError):
        cfgmod.build_noise({"noise": {"kind": "bogus"}}, grid)


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind in NOISE_KIND_KEYS
    for key in sorted({k for keys in NOISE_KIND_KEYS.values() for k in keys}
                      - set(NOISE_KIND_KEYS[kind]))])
def test_build_noise_rejects_a_key_its_kind_does_not_read(kind, key):
    grid = cfgmod.build_grid({"grid": {"dim": 2, "n": 16}})
    value = next(keys[key] for keys in NOISE_KIND_KEYS.values()
                 if key in keys)
    with pytest.raises(ConfigError, match=rf"^noise: kind '{kind}' does not "
                                          rf"read key\(s\) {key}$"):
        cfgmod.build_noise({"noise": {"kind": kind, key: value}}, grid)


def test_build_noise_checks_only_keys_present():
    # schema defaults (alpha, k_modes, mode_decay) are no stale keys
    grid = cfgmod.build_grid({"grid": {"dim": 2, "n": 16}})
    for kind in NOISE_KIND_KEYS:
        cfgmod.build_noise({"noise": {"kind": kind}}, grid)


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


# a sweep has no scaling key: its rows run on the config's initial field
SWEEP = "{alpha_list: [1.0], R: 1.0, scaling: kappa-scaled}"

# misspelt keys and sections, each once read as absent (its default used)
UNKNOWN_KEYS = [
    ("noise-alpah", "noise.alpah=3", "noise: unknown key(s) alpah"),
    ("grid-nn", "grid.nn=16", "grid: unknown key(s) nn"),
    ("initial-amplitud", "initial.amplitud=9",
     "initial: unknown key(s) amplitud"),
    ("ensemble-n-path", "ensemble.n_path=3",
     "ensemble: unknown key(s) n_path"),
    ("integrater", "integrater.T=5", "config: unknown key(s) integrater"),
    ("stopping-levle",
     "stopping=[{kind: w1inf_threshold, level: 100.0, levle: 5.0}]",
     "stopping[0]: unknown key(s) levle"),
]


@pytest.mark.parametrize("base, overrides, prefix", [
    pytest.param(ENSEMBLE_CONFIG, ["surrogate={alpha: 1.0, R: 16.0, T: 10.0}"],
                 "surrogate: missing key 'dt'", id="surrogate-no-dt"),
    pytest.param(ENSEMBLE_CONFIG, ["surrogate.dt=0"],
                 "surrogate: T and dt must be", id="surrogate-dt-0"),
    pytest.param(ENSEMBLE_CONFIG, ["surrogate.dt=25"],
                 "surrogate: T=10.0 rounds to zero steps of dt=25.0",
                 id="surrogate-zero-steps"),
    pytest.param(ENSEMBLE_CONFIG, ["bound_comparison={alpha: 1.0, R: 16.0}"],
                 "bound_comparison: missing key 'mu'", id="bound-no-mu"),
    pytest.param(RUN_CONFIG, ["integrator.dt=0"],
                 "integrator: dt must be positive", id="integrator-dt-0"),
    pytest.param(RUN_CONFIG, ["integrator.sample_every=0"],
                 "integrator: sample_every must be >= 1",
                 id="integrator-sample-every-0"),
    pytest.param(RUN_CONFIG, ["integrator.enforce_cfl=false"],
                 "integrator: unknown key(s) enforce_cfl",
                 id="integrator-enforce-cfl"),
    pytest.param(RUN_CONFIG, ["ensemble.parallel_width=0"], "ensemble: ",
                 id="parallel-width-0"),
    pytest.param(RUN_CONFIG, ["initial.name=bogus"],
                 "initial: unknown initial field", id="initial-name"),
    pytest.param(RUN_CONFIG, ["noise={kind: nemytskii, g: bogus}"],
                 "noise.g: unknown g tag", id="noise-g"),
    # RUN_CONFIG's linear-multiplicative noise section sets noise.alpha
    pytest.param(RUN_CONFIG, ["noise.kind=additive"],
                 "noise: kind 'additive' does not read key(s) alpha",
                 id="noise-alpha-unread"),
    pytest.param(RUN_CONFIG, [f"sweep={SWEEP}"],
                 "sweep: unknown key(s) scaling", id="sweep-scaling"),
    pytest.param(ENSEMBLE_CONFIG, ["sweep={alpha_list: [1.0], R: 1.0}"],
                 "sweep: needs a trajectory config", id="sweep-surrogate"),
    *(pytest.param(RUN_CONFIG, [override], prefix, id=case)
      for case, override, prefix in UNKNOWN_KEYS),
    pytest.param(ENSEMBLE_CONFIG, ["grid.nn=16"], "grid: unknown key(s) nn",
                 id="surrogate-grid-nn"),
    pytest.param(RUN_CONFIG,
                 ["sweep={alpha_list: [1.0, 3.0], R: 0.5}"],
                 "sweep: R must be >= 1, got 0.5", id="sweep-R"),
    pytest.param(RUN_CONFIG, ["sweep={alpha_list: [1.0], R: 1.0, Cbar: 0.5}"],
                 "sweep: Cbar must be >= 1, got 0.5", id="sweep-Cbar"),
    pytest.param(RUN_CONFIG, ["grid.n=16.7"],
                 "grid: n must be an integer, got 16.7", id="grid-n-fraction"),
    pytest.param(RUN_CONFIG, ["ensemble.n_paths=2.9"],
                 "ensemble: n_paths must be an integer, got 2.9",
                 id="n-paths-fraction"),
    pytest.param(ENSEMBLE_CONFIG, ["surrogate.T=.inf"],
                 "surrogate: T and dt must be positive and finite, got T=inf",
                 id="surrogate-T-inf"),
    pytest.param(ENSEMBLE_CONFIG, ["surrogate.alpha=.nan"],
                 "surrogate: alpha must be a number, got nan",
                 id="surrogate-alpha-nan"),
    pytest.param(RUN_CONFIG, ["sweep={alpha_list: [1.0, .nan], R: 1.0}"],
                 "sweep: alpha_list must be a list of numbers",
                 id="sweep-alpha-nan"),
    # alpha ** 2 of 1e200 raised OverflowError before GBMParams checked it
    *(pytest.param(ENSEMBLE_CONFIG, [f"{section}.alpha=1e200"],
                   f"{section}: alpha^2 must be finite, got alpha=1e+200",
                   id=f"{section}-alpha-square-overflows")
      for section in ("surrogate", "bound_comparison")),
    # the bound was evaluated after every path ran and wrote its CSV
    *(pytest.param(RUN_CONFIG, [f"bound_comparison={bound}"],
                   f"bound_comparison: {message}", id=f"bound-comparison-{case}")
      for case, bound, message in (
          ("mu", "{mu: 1.0, alpha: 1.0, R: 16.0}", "need mu < alpha^2 / 2"),
          ("R", "{mu: 0.375, alpha: 1.0, x0: 2.0, R: 1.5}", "need R > x0"))),
    pytest.param(ENSEMBLE_CONFIG, ["bound_comparison.R=.inf"],
                 "bound_comparison: mu, alpha, x0 and R must not be NaN or "
                 "infinite",
                 id="bound-comparison-R-inf"),
    # alpha^2 overflows: the sweep would end in an OverflowError traceback
    pytest.param(RUN_CONFIG, ["sweep={alpha_list: [1.0, 1e200], R: 4.0}"],
                 "sweep: alpha^2 must be finite, got alpha=1e+200",
                 id="sweep-alpha-square-overflows"),
    pytest.param(ENSEMBLE_CONFIG,
                 ["surrogate={alpha: 1.0, R: 16.0, T: 1e300, dt: 1e-300}"],
                 "surrogate: T=1e+300 / dt=1e-300 overflows",
                 id="surrogate-T-over-dt-overflows"),
    # alpha is linear-multiplicative noise's alone: under any other kind
    # every sweep row would run the same dynamics
    *(pytest.param(RUN_CONFIG,
                   [f"noise={{kind: {kind}}}",
                    "integrator={kind: em, T: 0.05, dt: 0.005}",
                    "sweep={alpha_list: [0.5, 2.0], R: 1.0}"],
                   f"sweep: needs linear_multiplicative noise, not '{kind}'",
                   id=f"sweep-{kind}-noise")
      for kind in ("additive", "none")),
    # rho = exp(alpha W - alpha^2 t / 8) is 1 without alpha: a gbm_level
    # rule at level 2 could never fire
    *(pytest.param(RUN_CONFIG,
                   [f"noise={{kind: {kind}}}",
                    "integrator={kind: em, T: 0.05, dt: 0.005}",
                    "stopping=[{kind: gbm_level, level: 2.0}]"],
                   f"stopping: a gbm_level rule needs linear_multiplicative "
                   f"noise, not '{kind}'", id=f"gbm-level-{kind}-noise")
      for kind in ("additive", "none")),
    # k_modes: 0 ran these kinds as a run without noise under their name
    *(pytest.param(RUN_CONFIG, [f"noise={{kind: {kind}, k_modes: 0}}"],
                   f"noise.k_modes: kind '{kind}' with 0 modes is a run "
                   f"without noise; set noise.kind: none",
                   id=f"{kind}-noise-k-modes-0")
      for kind in ("additive", "nemytskii", "functional")),
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
    pytest.param("gbm-exit", None,
                 ["--n-paths", "10", "--T", "1", "--dt", "2"],
                 "invalid parameters: T=1.0 rounds to zero steps of dt=2.0",
                 id="gbm-exit-zero-steps"),
    pytest.param("gbm-exit", None,
                 ["--n-paths", "10", "--T", "1", "--dt", "0.3"],
                 "invalid parameters: T=1.0 is not a whole multiple of "
                 "dt=0.3", id="gbm-exit-T-not-a-multiple-of-dt"),
    pytest.param("gbm-exit", None, ["--n-paths", "10", "--R", "1"],
                 "invalid parameters: R must exceed 1",
                 id="gbm-exit-R-not-above-1"),
    pytest.param("ode-bound", None, ["--dt", "0"],
                 "invalid parameters: dt must be positive and finite, got 0.0",
                 id="ode-bound-dt-zero"),
    pytest.param("ode-bound", None, ["--dt", "-1"],
                 "invalid parameters: dt must be positive and finite, "
                 "got -1.0",
                 id="ode-bound-dt-negative"),
    pytest.param("ode-bound", None, ["--dt", "nan"],
                 "invalid parameters: dt must be positive and finite, got nan",
                 id="ode-bound-dt-nan"),
    pytest.param("ode-bound", None, ["--dt", "inf"],
                 "invalid parameters: dt must be positive and finite, got inf",
                 id="ode-bound-dt-inf"),
    pytest.param("run", RUN_CONFIG,
                 ["--set", "integrator.T=0.012",
                  "--set", "integrator.dt=0.005"],
                 "config error: integrator: T=0.012 is not a whole multiple "
                 "of dt=0.005", id="run-T-not-a-multiple-of-dt"),
    pytest.param("transform-check", None, ["--seed", "-1", "--n", "16"],
                 "argument --seed: expected a non-negative integer",
                 id="transform-check-seed-flag"),
    pytest.param("run", RUN_CONFIG, ["--set", "initial.amplitude=abc"],
                 "config error: initial: ", id="initial-amplitude"),
    pytest.param("run", RUN_CONFIG, ["--set", "noise.alpha=abc"],
                 "config error: noise: ", id="noise-alpha"),
    pytest.param("run", RUN_CONFIG,
                 ["--set", "noise={kind: additive, k_modes: -1}"],
                 "config error: noise: k_modes must be >= 0",
                 id="noise-k-modes"),
    pytest.param("run", RUN_CONFIG, ["--set", "noise.g=cube"],
                 "config error: noise: kind 'linear_multiplicative' does "
                 "not read key(s) g", id="noise-linear_multiplicative-g"),
    pytest.param("run", RUN_CONFIG,
                 ["--set", "noise={kind: additive, alpha: 1.0, g: cube}"],
                 "config error: noise: kind 'additive' does not read "
                 "key(s) alpha, g", id="noise-additive-alpha-g"),
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
    pytest.param("run", RUN_CONFIG, ["--set", "grid.n=16.7"],
                 "config error: grid: n must be an integer, got 16.7",
                 id="run-grid-n-fraction"),
    pytest.param("run", RUN_CONFIG, ["--set", "grid.n=.inf"],
                 "config error: grid: n must be an integer, got inf",
                 id="run-grid-n-inf"),
    pytest.param("ensemble", PDE_ENSEMBLE, ["--set", "ensemble.n_paths=2.9"],
                 "config error: ensemble: n_paths must be an integer, got 2.9",
                 id="ensemble-n-paths-fraction"),
    # a non-finite run parameter is one error line, not a run that ignores
    # it or a traceback
    *(pytest.param("run", RUN_CONFIG, ["--set", override],
                   f"config error: {message}", id=f"run-{key}-nan")
      for key, override, message in [
          ("cfl", "integrator.cfl=.nan",
           "integrator: cfl must be a number, got nan"),
          ("length", "grid.length=.nan",
           "grid: length must be a number, got nan"),
          ("amplitude", "initial.amplitude=.nan",
           "initial: amplitude must be a number, got nan"),
          ("alpha", "noise.alpha=.nan",
           "noise: alpha must be a number, got nan"),
          ("level", "stopping=[{kind: w1inf_threshold, level: .nan}]",
           "stopping[0]: level must be a number, got nan"),
          ("T", "integrator.T=.nan",
           "integrator: T must be a number, got nan"),
          ("dt", "integrator.dt=.nan",
           "integrator: dt must be a number, got nan"),
      ]),
    pytest.param("run", RUN_CONFIG,
                 ["--set", "integrator.cfl=.nan", "--set", "integrator.T=1.0",
                  "--set", "integrator.dt=1.0"],
                 "config error: integrator: cfl must be a number, got nan",
                 id="run-cfl-nan-over-the-cfl-limit"),
    pytest.param("run", RUN_CONFIG, ["--set", "grid.length=.inf"],
                 "config error: grid: length must be positive and finite",
                 id="run-grid-length-inf"),
    pytest.param("run", RUN_CONFIG, ["--set", "integrator.T=.inf"],
                 "config error: integrator: T and dt must be positive and "
                 "finite, got T=inf", id="run-T-inf"),
    # a negative horizon was an empty run: samples=0, survival 1.0
    *(pytest.param(command, base, ["--set", "integrator.T=-1"],
                   "config error: integrator: T must be non-negative, got "
                   "-1.0", id=f"{command}-T-negative")
      for command, base in (("run", RUN_CONFIG),
                            ("ensemble", PDE_ENSEMBLE))),
    pytest.param("run", RUN_CONFIG, ["--set", "integrator.cfl=0"],
                 "config error: integrator: c_cfl must be positive, got 0.0",
                 id="run-cfl-zero"),
    # an infinite amplitude would write a NaN row at t = 0 and exit 0
    *(pytest.param("run", RUN_CONFIG, ["--set", f"initial.amplitude={value}"],
                   f"config error: initial: amplitude must be finite, "
                   f"got {shown}", id=f"run-amplitude-{shown}")
      for value, shown in ((".inf", "inf"), ("-.inf", "-inf"))),
    pytest.param("gbm-exit", None, ["--n-paths", "10", "--T", "inf"],
                 "invalid parameters: T and dt must be positive and finite, "
                 "got T=inf", id="gbm-exit-T-inf"),
    pytest.param("gbm-exit", None, ["--n-paths", "10", "--dt", "nan"],
                 "invalid parameters: T and dt must be positive and finite",
                 id="gbm-exit-dt-nan"),
    pytest.param("gbm-exit", None, ["--n-paths", "10", "--alpha", "nan"],
                 "invalid parameters: mu, alpha, x0 and R must not be NaN",
                 id="gbm-exit-alpha-nan"),
    # alpha ** 2 of 1e200 raised OverflowError; alpha = inf ran NaN paths
    # and exited 0, and alpha^2 = 0 divided by zero in lambda_c
    pytest.param("gbm-exit", None, ["--n-paths", "10", "--alpha", "1e200"],
                 "invalid parameters: alpha^2 must be finite, got "
                 "alpha=1e+200", id="gbm-exit-alpha-square-overflows"),
    *(pytest.param("gbm-exit", None, ["--n-paths", "10", f"{flag}={value}"],
                   "invalid parameters: mu, alpha, x0 and R must not be NaN "
                   "or infinite",
                   id=f"gbm-exit-{flag[2:]}-{value}")
      for flag, value in (("--alpha", "inf"), ("--alpha", "-inf"),
                          ("--mu", "-inf"), ("--x0", "inf"), ("--R", "inf"))),
    pytest.param("gbm-exit", None,
                 ["--n-paths", "10", "--mu", "-1", "--alpha", "1e-200"],
                 "invalid parameters: alpha^2 must be nonzero, got "
                 "alpha=1e-200", id="gbm-exit-alpha-square-underflows"),
    # (k + 1) ** 2000 of a float raised OverflowError
    *(pytest.param("run", RUN_CONFIG,
                   ["--set", f"noise={{kind: {kind}, k_modes: 3, "
                             f"mode_decay: -2000}}"],
                   "config error: noise: (k + 1)^(-mode_decay) overflows at "
                   "k_modes=3, mode_decay=-2000.0",
                   id=f"run-{kind}-mode-decay-overflows")
      for kind in ("functional", "additive")),
    pytest.param("kappa-table", None, ["--Cbar", "nan"],
                 "invalid parameters: Cbar must be >= 1, got nan",
                 id="kappa-table-Cbar-nan"),
    pytest.param("transform-check", None, ["--n", "16", "--T", "nan"],
                 "invalid parameters: need T > 0 and at least two dts",
                 id="transform-check-T-nan"),
    # T / dt overflows to inf: int() of it raised OverflowError
    pytest.param("run", RUN_CONFIG,
                 ["--set", "integrator.T=1e300",
                  "--set", "integrator.dt=1e-300"],
                 "config error: integrator: T=1e+300 / dt=1e-300 overflows",
                 id="run-T-over-dt-overflows"),
    pytest.param("ensemble", ENSEMBLE_CONFIG,
                 ["--set", "surrogate={alpha: 1.0, R: 16.0, T: 1e300, "
                           "dt: 1e-300}", "--set", "ensemble.n_paths=2"],
                 "config error: surrogate: T=1e+300 / dt=1e-300 overflows",
                 id="surrogate-T-over-dt-overflows"),
    pytest.param("gbm-exit", None,
                 ["--n-paths", "10", "--T", "1e300", "--dt", "1e-300"],
                 "invalid parameters: T=1e+300 / dt=1e-300 overflows",
                 id="gbm-exit-T-over-dt-overflows"),
    pytest.param("transform-check", None,
                 ["--n", "16", "--T", "1e300", "--dt-list", "1e-300,2e-300"],
                 "invalid parameters: T=1e+300 / dt=1e-300 overflows",
                 id="transform-check-T-over-dt-overflows"),
    # the finest level's increments are drawn at once: 1e300 of them raised
    # a numpy ValueError, and 1e10 asked for 74.5 GiB
    pytest.param("transform-check", None,
                 ["--n", "16", "--T", "1", "--dt-list", "1e-300,2e-300"],
                 "invalid parameters: T=1.0 / dt=1e-300 is 1e+300 fine "
                 "steps, more than 1000000",
                 id="transform-check-too-many-fine-steps"),
    pytest.param("transform-check", None,
                 ["--n", "16", "--T", "1e-290", "--dt-list",
                  "1e-300,2e-300"],
                 "invalid parameters: T=1e-290 / dt=1e-300 is 1e+10 fine "
                 "steps, more than 1000000",
                 id="transform-check-fine-steps-past-memory"),
    # alpha ** 2 of 1e200 raised OverflowError in the transformed step and
    # in the gbm_level monitor, failed every ensemble path, and gave
    # transform-check a CFL limit of 0
    *(pytest.param(command, base,
                   ["--set", "noise.alpha=1e200", "--set",
                    f"integrator={{kind: {kind}, T: 0.01, dt: 0.005}}",
                    "--set", f"stopping=[{{kind: {rule}, level: 2.0}}]"],
                   "config error: noise.alpha: alpha^2 must be finite, got "
                   "alpha=1e+200", id=f"{command}-{kind}-alpha-square-overflows")
      for command, base, kind, rule in (
          ("run", RUN_CONFIG, "transformed", "w1inf_threshold"),
          ("run", RUN_CONFIG, "em", "gbm_level"),
          ("ensemble", PDE_ENSEMBLE, "transformed", "w1inf_threshold"))),
    # rho = exp(alpha W - alpha^2 t / 8) is 1 without alpha: a gbm_level
    # rule at level 0.5 fired at t = 0, and the run exited 0
    *(pytest.param("run", None,
                   ["--set", "grid.n=8", "--set", f"noise.kind={kind}",
                    "--set", "integrator={kind: em, T: 0.02, dt: 0.005}",
                    "--set", "stopping=[{kind: gbm_level, level: 0.5}]"],
                   f"config error: stopping: a gbm_level rule needs "
                   f"linear_multiplicative noise, not '{kind}'",
                   id=f"run-gbm-level-{kind}-noise")
      for kind in ("none", "additive")),
    pytest.param("transform-check", None, ["--n", "16", "--alpha", "1e200"],
                 "invalid parameters: alpha^2 must be finite, got "
                 "alpha=1e+200", id="transform-check-alpha-square-overflows"),
    # run checks a section it does not read (ensemble) too
    *(pytest.param("run", RUN_CONFIG, ["--set", override],
                   f"config error: {message}", id=f"run-{case}")
      for case, override, message in UNKNOWN_KEYS),
])
def test_bad_seed_or_number_exits_usage(tmp_path, capsys, command, base,
                                        args, message):
    config = [] if base is None else ["--config", _write_yaml(tmp_path,
                                                              base)]
    out = tmp_path / "out"
    code = _exit_code([command, *config, "--out", str(out / "result"),
                       "--quiet", *args])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    if not message.startswith("argument "):  # argparse adds a usage line
        assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, message", [
    # a stiffness failure with a RuntimeWarning, exit 2
    (["ode-bound", "--R-list", "inf", "--alpha2-list", "4"],
     "R and Cbar must be finite, got R=inf, Cbar=1.0"),
    # RuntimeWarnings, exit 0
    (["kappa-table", "--Cbar", "inf"],
     "R and Cbar must be finite, got R=1.0, Cbar=inf"),
    # a non-finite result, exit 2
    (["transform-check", "--n", "16", "--alpha", "nan"],
     "alpha must be finite, got nan"),
], ids=["ode-bound", "kappa-table", "transform-check"])
def test_non_finite_lemma_and_check_inputs_exit_usage(tmp_path, capsys,
                                                      args, message):
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out), "--quiet"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"invalid parameters: {message}\n"
    assert not out.exists()


# the flags each subcommand does not read, with a value for each, and
# arguments that keep a run short where the flag would be ignored
UNREAD_FLAGS = {"gbm-exit": ("--config", "--set"),
                "transform-check": ("--config", "--set"),
                "mollifier-check": ("--config", "--set"),
                "ode-bound": ("--config", "--set", "--seed"),
                "kappa-table": ("--config", "--set", "--seed")}
FLAG_VALUES = {"--config": "/nonexistent.yaml", "--set": "nonsense.key=1",
               "--seed": "1"}
SHORT_RUN = {"gbm-exit": ["--n-paths", "10", "--T", "1"],
             "transform-check": ["--n", "16", "--T", "0.05",
                                 "--dt-list", "0.01,0.005"]}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in UNREAD_FLAGS.items()
    for flag in flags])
def test_subcommand_rejects_a_flag_it_does_not_read(tmp_path, capsys,
                                                    command, flag):
    out = tmp_path / "out"
    code = _exit_code([command, *SHORT_RUN.get(command, []), flag,
                       FLAG_VALUES[flag], "--out", str(out), "--quiet"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in err
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


@pytest.mark.parametrize("alpha", ["0.0", "1.0"])
@pytest.mark.parametrize("kind", ["none", "additive"])
def test_integrator_alpha_needs_linear_multiplicative_noise(tmp_path, capsys,
                                                            kind, alpha):
    # only linear multiplicative noise has an alpha; any integrator.alpha
    # beside another kind is an error naming that kind, whatever its value
    cfg = _write_yaml(tmp_path, RUN_CONFIG)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg, "--out", str(out / "result"),
                     "--set", f"noise={{kind: {kind}}}",
                     "--set", f"integrator.alpha={alpha}"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (f"config error: integrator.alpha: noise kind '{kind}' "
                   f"has no alpha\n")
    assert not out.exists()


def test_ensemble_sweep_writes_sweep_csv(tmp_path, capsys):
    doc = dict(PDE_ENSEMBLE, sweep={"alpha_list": [0.0, 1.0], "R": 1.0})
    out = tmp_path / "out"
    code = cli.main(["ensemble", "--config", _write_yaml(tmp_path, doc),
                     "--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["alpha"] for r in rows] == ["0.0", "1.0"]
    assert rows[0]["note"] == "undamped baseline: zero threshold"
    assert "kappa" not in rows[0]
    assert rows[0]["log_kappa"] == "-inf"
    assert rows[1]["log_kappa"] == repr(analysis.kappa_K(1.0, 1.0).log_kappa)
    assert rows[1]["flagged"] == "False"
    assert float(rows[1]["threshold"]) == 0.25
    assert 0.0 <= float(rows[1]["exceed_fraction"]) <= 1.0


def test_ensemble_sweep_keeps_the_ensembles_path_csvs(tmp_path, capsys):
    # each alpha's ensemble reports a sweep row only: paths/<id>.csv stay
    # those of the ensemble that summary.json summarises (at alpha = 3 every
    # path hits its threshold at t = 0, so a sweep's paths would differ)
    outputs = {}
    for name, extra in (("plain", {}),
                        ("swept", {"sweep": {"alpha_list": [3.0], "R": 1.0}})):
        out = tmp_path / name
        code = cli.main(["ensemble", "--config",
                         _write_yaml(tmp_path, dict(PDE_ENSEMBLE, **extra)),
                         "--out", str(out), "--quiet"])
        assert code == cli.EXIT_OK
        outputs[name] = {p.relative_to(out).as_posix(): p.read_bytes()
                         for p in sorted(out.rglob("*.csv"))
                         if p.name != "sweep.csv"}
        outputs[name]["summary.json"] = (out / "summary.json").read_bytes()
    assert sorted(outputs["plain"]) == ["paths/0.csv", "paths/1.csv",
                                        "summary.json"]
    assert outputs["swept"] == outputs["plain"]


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


@pytest.mark.parametrize("alpha", ["0.0", "1e-200"])
@pytest.mark.parametrize("command, base", [("run", RUN_CONFIG),
                                           ("ensemble", PDE_ENSEMBLE)])
def test_a_vanishing_noise_alpha_runs(tmp_path, capsys, command, base,
                                      alpha):
    # noise.alpha is checked for an alpha^2 that overflows, not for one of 0
    out = tmp_path / "out"
    assert cli.main([command, "--config", _write_yaml(tmp_path, base),
                     "--out", str(out), "--quiet", "--set",
                     f"noise.alpha={alpha}", "--set",
                     "integrator={kind: transformed, T: 0.01, "
                     "dt: 0.005}"]) == cli.EXIT_OK


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_builds():
    # a key the README documents but the config layer rejects fails here
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    doc = yaml.safe_load(blocks[0])
    assert cfgmod.build_trajectory_config(doc).T == doc["integrator"]["T"]
    ensemble = cfgmod.build_ensemble_config(doc)
    assert ensemble.n_paths == doc["ensemble"]["n_paths"]
    # and the block names every section and key of the schema, commented
    # out where optional
    named = set(re.findall(r"^\s*#?\s*(?:- )?(\w+):", blocks[0], re.M))
    missing = [f"{section}.{key}" for section, keys in cfgmod.SCHEMA.items()
               for key in (section, *keys) if key not in named]
    assert missing == []


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
