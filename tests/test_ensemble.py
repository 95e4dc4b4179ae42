"""Batch orchestration, survival statistics, determinism, persistence."""

import json
import os

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


def _trajectory_cfg(n=16, T=0.05, dt=5e-3, alpha=1.0, enforce_cfl=True):
    g = sp.Grid(2, n)
    return dyn.TrajectoryConfig(
        u0=0.5 * sp.taylor_green(g),
        model=noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=alpha),
        noise_seed=0, T=T, dt=dt, integrator="em", enforce_cfl=enforce_cfl)


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
    for bad in ({"T": 0.0}, {"dt": 0.0}, {"dt": -0.1}, {"alpha": 0.0},
                {"R": 1.0}):
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
    records = [ens._run_one((cfg, tid)) for tid in range(3)]
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
        trajectory=_trajectory_cfg(T=1.0, dt=1.0, enforce_cfl=True),
        n_paths=5, master_seed=0)
    summary = ens.run_ensemble(cfg)
    assert summary.n_engineering_failures == 5
    assert summary.partial
    assert summary.n_survived == 0


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


# ---------------------------------------------------------------------------
# Alpha sweep


def test_sweep_flags_baseline_and_underflow_rows():
    base = ens.EnsembleConfig(trajectory=_trajectory_cfg(n=8, T=0.02),
                              n_paths=2, master_seed=1)
    rows = ens.survival_vs_alpha_sweep(base, [0.0, 1.0, 2.0], R=4.0,
                                       data_scaling="kappa-scaled")
    assert rows[0]["flagged"] and "baseline" in rows[0]["note"]
    # R = 4 puts kappa far below double-precision underflow for both alphas
    assert rows[1]["flagged"] and "underflow" in rows[1]["note"]
    assert rows[2]["flagged"]


def test_sweep_runs_fixed_scaling_rows():
    base = ens.EnsembleConfig(trajectory=_trajectory_cfg(n=8, T=0.02),
                              n_paths=3, master_seed=1)
    rows = ens.survival_vs_alpha_sweep(base, [2.0], R=1.0,
                                       data_scaling="fixed")
    row = rows[0]
    assert not row["flagged"]
    assert row["threshold"] == pytest.approx(1.0)
    assert 0.0 <= row["exceed_fraction"] <= 1.0
    assert row["interval"][0] <= row["exceed_fraction"] <= row["interval"][1]


def test_sweep_validation():
    base = ens.EnsembleConfig(trajectory=_trajectory_cfg(n=8), n_paths=1,
                              master_seed=0)
    with pytest.raises(ValueError):
        ens.survival_vs_alpha_sweep(base, [], R=1.0)
    with pytest.raises(ValueError):
        ens.survival_vs_alpha_sweep(base, [1.0], R=1.0,
                                    data_scaling="bogus")
    surro = _surrogate_cfg()
    with pytest.raises(ValueError):
        ens.survival_vs_alpha_sweep(surro, [1.0], R=1.0)


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
