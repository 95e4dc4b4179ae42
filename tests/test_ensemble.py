"""Batch orchestration, survival statistics, determinism, persistence."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from stocheuler import analysis, dynamics as dyn, ensemble as ens, noise
from stocheuler import spectral as sp
from stocheuler.analysis import GBMParams, gbm_survival_bound
from stocheuler.errors import InvalidParams


def _surrogate_cfg(n_paths=200, master_seed=0, width=1, alpha=1.0, R=16.0,
                   T=50.0, dt=0.01, bound=None):
    return ens.EnsembleConfig(
        trajectory=None, n_paths=n_paths, master_seed=master_seed,
        parallel_width=width, bound_comparison=bound,
        surrogate=ens.GBMSurrogateSpec(alpha=alpha, R=R, T=T, dt=dt))


def _trajectory_cfg(n=16, T=0.05, dt=5e-3, alpha=1.0):
    g = sp.Grid(2, n)
    return dyn.TrajectoryConfig(
        u0=0.5 * sp.taylor_green(g),
        model=noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=alpha),
        noise_seed=0, T=T, dt=dt, integrator="em")


def test_config_validation():
    with pytest.raises(ValueError):
        ens.EnsembleConfig(trajectory=None, n_paths=0, master_seed=0,
                           surrogate=ens.GBMSurrogateSpec(1.0, 2.0, 1.0, 0.1))
    with pytest.raises(ValueError):
        ens.EnsembleConfig(trajectory=None, n_paths=1, master_seed=0)


def test_surrogate_survival_matches_exit_law():
    # the monitored exp(alpha W - alpha^2 t/8) is the mu = 3 alpha^2 / 8
    # geometric Brownian motion; R = 16 puts the hit probability at 1/2
    bound = GBMParams(mu=3.0 / 8.0, alpha=1.0, x0=1.0, R=16.0)
    cfg = _surrogate_cfg(n_paths=2000, T=200.0, bound=bound)
    summary = ens.run_ensemble(cfg)
    assert summary.analytic_bound == pytest.approx(
        gbm_survival_bound(bound))
    assert 0.47 <= summary.survival_fraction <= 0.58
    assert summary.wilson_99[0] <= summary.survival_fraction \
        <= summary.wilson_99[1]
    assert summary.hit_counts["gbm_level"] == 2000 - summary.n_survived
    assert sum(summary.hit_histograms["gbm_level"]) \
        == summary.hit_counts["gbm_level"]


def test_surrogate_spec_checks_its_law_when_built():
    spec = ens.GBMSurrogateSpec(alpha=2.0, R=16.0, T=1.0, dt=0.1)
    assert spec.gbm == GBMParams(mu=1.5, alpha=2.0, x0=1.0, R=16.0)
    # alpha ** 2 of 1e200 raised OverflowError before GBMParams checked it
    for bad in ({"T": 0.0}, {"dt": 0.0}, {"dt": -0.1}, {"alpha": 0.0},
                {"R": 1.0}, {"alpha": 1e200}, {"alpha": np.inf},
                {"R": np.inf}):
        args = {"alpha": 1.0, "R": 16.0, "T": 1.0, "dt": 0.1, **bad}
        with pytest.raises(InvalidParams):
            ens.GBMSurrogateSpec(**args)


def test_surrogate_is_one_gbm_exit_mc_batch(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = analysis.gbm_exit_mc
    monkeypatch.setattr(analysis, "gbm_exit_mc", counted)
    cfg = _surrogate_cfg(n_paths=300, master_seed=5, T=20.0, alpha=0.9)
    summary = ens.run_ensemble(cfg)
    assert len(calls) == 1
    est = real(GBMParams(mu=3 * 0.9 ** 2 / 8, alpha=0.9, x0=1.0, R=16.0),
               20.0, 0.01, 300, seed=5)
    assert est.n_hit > 0
    assert summary.hit_counts["gbm_level"] == est.n_hit
    assert summary.n_survived == 300 - est.n_hit


def test_surrogate_deterministic_across_widths(tmp_path):
    paths = []
    for width in (1, 3):
        cfg = _surrogate_cfg(n_paths=60, width=width, T=20.0)
        summary = ens.run_ensemble(cfg)
        out = tmp_path / f"summary_{width}.json"
        ens.persist_summary(summary, str(out))
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trajectory_ensemble_runs_and_writes_paths(tmp_path):
    cfg = ens.EnsembleConfig(trajectory=_trajectory_cfg(), n_paths=4,
                             master_seed=3, output_dir=str(tmp_path))
    summary = ens.run_ensemble(cfg)
    assert summary.n_paths == 4
    assert summary.n_engineering_failures == 0
    assert not summary.partial
    assert summary.max_final_l2 > 0.0
    for tid in range(4):
        assert os.path.exists(tmp_path / "paths" / f"{tid}.csv")


def test_trajectory_paths_differ_across_ids():
    cfg = ens.EnsembleConfig(trajectory=_trajectory_cfg(), n_paths=3,
                             master_seed=3)
    records = ens._run_chunk((cfg, range(3)))
    finals = {r.final_l2 for r in records}
    assert len(finals) == 3  # independent Brownian streams


def test_additive_ensemble_runs_on_a_driver_of_the_model():
    # three sigma fields: each step's driver draws model.n_modes = 3
    # increments
    g = sp.Grid(2, 16)
    model = noise.NoiseModel(
        noise.ADDITIVE, sigma_fields=noise.spectrum_sigma_fields(g, 3, 2.0, 1))
    traj = dyn.TrajectoryConfig(u0=0.5 * sp.taylor_green(g), model=model,
                                T=0.02, dt=5e-3)
    cfg = ens.EnsembleConfig(trajectory=traj, n_paths=3, master_seed=2)
    summary = ens.run_ensemble(cfg)
    assert summary.n_engineering_failures == 0
    assert summary.n_survived == 3
    assert summary.max_final_l2 > summary.mean_final_l2  # paths differ


def test_engineering_failures_flag_partial():
    # dt far above the CFL limit: every path raises before stepping
    cfg = ens.EnsembleConfig(
        trajectory=_trajectory_cfg(T=1.0, dt=1.0),
        n_paths=5, master_seed=0)
    summary = ens.run_ensemble(cfg)
    assert summary.n_engineering_failures == 5
    assert summary.partial
    assert summary.n_survived == 0


def test_failure_reasons_stay_out_of_the_summary_file(tmp_path):
    # the same run as above: each record names its reason, the summary
    # counts them, and summary.json keeps only the failure count
    cfg = ens.EnsembleConfig(
        trajectory=_trajectory_cfg(T=1.0, dt=1.0),
        n_paths=5, master_seed=0, output_dir=str(tmp_path))
    records = ens._run_chunk((cfg, range(5)))
    reason = records[0].failure
    assert reason.startswith("CflViolation: dt=1.0 exceeds CFL limit")
    assert all(r.engineering_failure and r.failure == reason
               for r in records)
    summary = ens.run_ensemble(cfg)
    assert summary.failure_reasons == {reason: 5}
    ens.persist_summary(summary, str(tmp_path / "summary.json"))
    assert "failure_reasons" not in json.loads(
        (tmp_path / "summary.json").read_text())
    assert not (tmp_path / "paths").exists()  # no CSV for a failed path


def test_summary_identical_across_widths_and_chunk_sizes(tmp_path,
                                                         monkeypatch):
    traj = _trajectory_cfg()
    outputs = {}
    for width, chunk in ((1, None), (1, 3), (3, 3)):
        if chunk is not None:
            monkeypatch.setattr(ens, "CHUNK_BYTES",
                                chunk * traj.u0.coeffs.nbytes)
        out = tmp_path / f"w{width}-c{chunk}"
        cfg = ens.EnsembleConfig(trajectory=traj, n_paths=8, master_seed=4,
                                 parallel_width=width, output_dir=str(out))
        assert len(ens._chunks(cfg)) == (1 if chunk is None else 3)
        ens.persist_summary(ens.run_ensemble(cfg), str(out / "summary.json"))
        outputs[width, chunk] = {path.relative_to(out): path.read_bytes()
                                 for path in out.rglob("*")
                                 if path.is_file()}
    first, *rest = outputs.values()
    assert len(first) == 9
    assert all(other == first for other in rest)


def test_summary_identical_across_widths_and_chunks_with_short_blocks(
        tmp_path, monkeypatch):
    # Wiener blocks of 7 steps, so the 10-step paths cross a block boundary;
    # the pool's forked workers see the patched length
    monkeypatch.setattr(noise, "BLOCK_STEPS", 7)
    traj = _trajectory_cfg()
    summaries = set()
    for width, chunk in ((1, 8), (2, 8), (1, 3), (2, 3)):
        monkeypatch.setattr(ens, "CHUNK_BYTES", chunk * traj.u0.coeffs.nbytes)
        path = tmp_path / f"w{width}-c{chunk}.json"
        cfg = ens.EnsembleConfig(trajectory=traj, n_paths=8, master_seed=4,
                                 parallel_width=width)
        ens.persist_summary(ens.run_ensemble(cfg), str(path))
        summaries.add(path.read_bytes())
    assert len(summaries) == 1


def test_thread_cap_env_var(monkeypatch):
    cfg = _surrogate_cfg(width=8)
    monkeypatch.setenv("STOCHEULER_THREADS", "2")
    assert ens._worker_pool_width(cfg) == 2
    monkeypatch.delenv("STOCHEULER_THREADS")
    assert ens._worker_pool_width(cfg) == 8


# ---------------------------------------------------------------------------
# Persistence


def test_summary_roundtrip(tmp_path):
    summary = ens.run_ensemble(_surrogate_cfg(n_paths=50, T=10.0))
    path = tmp_path / "summary.json"
    ens.persist_summary(summary, str(path))
    with open(path) as fh:
        loaded = json.load(fh)
    # JSON has no tuples: the Wilson interval reads back as a list
    assert loaded == {**summary.to_dict(),
                      "wilson_99": list(summary.wilson_99)}


def test_ensemble_hit_times_are_whole_steps_of_dt():
    # the driver counts the steps: each gbm_level hit, and the final time of
    # a path that hit, is k dt for its step k.  A time accumulated as t + dt
    # read 0.030000000000000002 at k = 6 and 0.049999999999999996 at k = 10
    dt = 0.005
    traj = replace(_trajectory_cfg(n=8, T=0.5, dt=dt),
                   stopping=(dyn.StoppingRule(dyn.GBM_LEVEL, 1.05),))
    cfg = ens.EnsembleConfig(trajectory=traj, n_paths=40, master_seed=7)
    records = ens._run_chunk((cfg, range(cfg.n_paths)))
    hits = [r for r in records if r.hits]
    assert len(hits) >= 20
    for r in hits:
        t = r.hits[dyn.GBM_LEVEL]
        assert t == round(t / dt) * dt == r.final_time
    assert {round(r.final_time / dt) for r in hits} & {6, 10}


# ---------------------------------------------------------------------------
# Alpha sweep


def test_sweep_reports_log_kappa_where_kappa_underflows():
    base = ens.EnsembleConfig(trajectory=_trajectory_cfg(n=8, T=0.02),
                              n_paths=2, master_seed=1)
    rows = ens.survival_vs_alpha_sweep(base, [0.0, 1.0, 2.0], R=4.0)
    assert rows[0]["flagged"] and "baseline" in rows[0]["note"]
    assert rows[0]["log_kappa"] == -np.inf
    # R = 4 puts kappa far below double-precision underflow for both
    # alphas; the rows run, and their log kappa is finite
    for row, alpha in zip(rows[1:], (1.0, 2.0)):
        kk = analysis.kappa_K(4.0, alpha)
        assert kk.kappa == 0.0 and np.isfinite(kk.log_kappa)
        assert row["log_kappa"] == kk.log_kappa and "kappa" not in row
        assert not row["flagged"] and row["exceed_fraction"] is not None


def test_sweep_runs_fixed_scaling_rows():
    base = ens.EnsembleConfig(trajectory=_trajectory_cfg(n=8, T=0.02),
                              n_paths=3, master_seed=1)
    rows = ens.survival_vs_alpha_sweep(base, [2.0], R=1.0)
    row = rows[0]
    assert not row["flagged"]
    assert row["threshold"] == pytest.approx(1.0)
    assert 0.0 <= row["exceed_fraction"] <= 1.0
    assert row["interval"][0] <= row["exceed_fraction"] <= row["interval"][1]


def test_sweep_leaves_failed_paths_out_of_exceed_fraction(monkeypatch):
    real = ens.integrate_trajectory

    def odd_ids_fail(cfg, tids):
        diags = real(cfg, tids)
        for tid, diag in zip(tids, diags):
            if tid % 2:
                diag.failure = RuntimeError("injected failure")
        return diags

    monkeypatch.setattr(ens, "integrate_trajectory", odd_ids_fail)
    base = ens.EnsembleConfig(trajectory=_trajectory_cfg(n=8, T=0.02),
                              n_paths=4, master_seed=1)
    # every path that runs exceeds the threshold 0.5^2 / 4 at once
    row, = ens.survival_vs_alpha_sweep(base, [0.5], R=1.0)
    assert row["exceed_fraction"] == 1.0
    assert row["interval"] == list(analysis.wilson_interval(2, 2))
    assert not row["flagged"]

    def all_fail(cfg, tids):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(ens, "integrate_trajectory", all_fail)
    row, = ens.survival_vs_alpha_sweep(base, [0.5], R=1.0)
    assert row["exceed_fraction"] is None and row["interval"] is None
    assert row["flagged"] and row["note"] == "every path failed"


def test_sweep_validation():
    base = ens.EnsembleConfig(trajectory=_trajectory_cfg(n=8), n_paths=1,
                              master_seed=0)
    with pytest.raises(ValueError):
        ens.survival_vs_alpha_sweep(base, [], R=1.0)
    surro = _surrogate_cfg()
    with pytest.raises(ValueError):
        ens.survival_vs_alpha_sweep(surro, [1.0], R=1.0)


@pytest.mark.parametrize("model", [
    noise.zero_noise(),
    noise.NoiseModel(noise.ADDITIVE, sigma_fields=noise.spectrum_sigma_fields(
        sp.Grid(2, 8), 1, 2.0, seed=1))], ids=["none", "additive"])
def test_sweep_needs_linear_multiplicative_noise(monkeypatch, model):
    # replace(model, alpha=...) changes no other kind's dynamics, so every
    # row would repeat one ensemble; the sweep refuses before any path runs
    def no_paths(cfg):
        raise AssertionError("a path ran")

    monkeypatch.setattr(ens, "run_ensemble", no_paths)
    traj = dyn.TrajectoryConfig(u0=0.5 * sp.taylor_green(sp.Grid(2, 8)),
                                model=model, T=0.02, dt=5e-3)
    base = ens.EnsembleConfig(trajectory=traj, n_paths=2, master_seed=1)
    with pytest.raises(ValueError, match="needs linear_multiplicative noise"):
        ens.survival_vs_alpha_sweep(base, [0.5, 2.0], R=1.0)


def test_sweep_args_are_checked_against_the_trajectory_config():
    # the sweep's own preconditions, once, for the config layer and the sweep
    traj = _trajectory_cfg()
    ens.check_sweep_args(traj, [0.0, 1.0], R=1.0)
    with pytest.raises(ValueError, match="needs a trajectory config"):
        ens.check_sweep_args(None, [1.0], R=1.0)
    for model, kind in ((noise.zero_noise(), "none"),
                        (noise.NoiseModel(noise.ADDITIVE, sigma_fields=(
                            traj.u0,)), "additive")):
        with pytest.raises(ValueError, match=f"noise, not '{kind}'"):
            ens.check_sweep_args(dyn.TrajectoryConfig(
                u0=traj.u0, model=model, T=0.02, dt=5e-3), [1.0], R=1.0)


# ---------------------------------------------------------------------------
# Statistical sanity of the surrogate


def test_surrogate_wilson_coverage_across_seeds():
    # long-horizon hit probability is 1/2 (level 16, critical exponent 1/4);
    # at T = 200 the truncation bias is small, so the 99% interval should
    # cover a value near 1/2 for the vast majority of seeds
    hits_in = 0
    for seed in range(10):
        cfg = _surrogate_cfg(n_paths=400, master_seed=seed, T=200.0)
        summary = ens.run_ensemble(cfg)
        lo, hi = summary.wilson_99
        if lo <= 0.5 + 0.05 and hi >= 0.5:
            hits_in += 1
    assert hits_in >= 8
