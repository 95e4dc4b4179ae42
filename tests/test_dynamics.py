"""Steppers, stopping rules, and the trajectory driver."""

import csv
import io

import numpy as np
import pytest

from stocheuler import dynamics as dyn, noise, spectral as sp
from stocheuler.errors import CflViolation


def _grid(n=16, dim=2):
    return sp.Grid(dim, n)


def _lin_mult(alpha=1.0):
    return noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=alpha)


def _state(u):
    return dyn.SimState(0.0, u)


# ---------------------------------------------------------------------------
# CFL


def test_cfl_limit_advective_and_noise_cap():
    g = _grid(32)
    u = sp.taylor_green(g)
    umax = sp.lp_norm(u, np.inf)
    lim = dyn.cfl_limit(u, c_cfl=0.5)
    assert abs(lim - 0.5 * g.dx / umax) < 1e-12
    # linear-multiplicative cap (0.1/alpha)^2
    assert dyn.cfl_limit(u, c_cfl=0.5, alpha=10.0) == pytest.approx(1e-4)
    assert dyn.cfl_limit(sp.SpectralField.zero(g), alpha=2.0) \
        == pytest.approx(0.0025)


def test_step_em_raises_on_cfl_violation():
    g = _grid(32)
    u = sp.taylor_green(g)
    with pytest.raises(CflViolation):
        dyn.step_em(_state(u), 10.0, noise.zero_noise(), np.zeros(0))


def test_step_rejects_nonpositive_dt():
    g = _grid()
    u = sp.taylor_green(g)
    with pytest.raises(ValueError):
        dyn.step_em(_state(u), 0.0, noise.zero_noise(), np.zeros(0))


# ---------------------------------------------------------------------------
# Euler-Maruyama step


def test_em_zero_field_stays_zero():
    g = _grid()
    state = _state(sp.SpectralField.zero(g))
    out = dyn.step_em(state, 0.01, noise.zero_noise(), np.zeros(0))
    assert sp.l2_norm(out.u) == 0.0
    assert out.t == pytest.approx(0.01)
    assert out.step_index == 1


def test_em_single_step_matches_drift_identity():
    # one zero-noise step equals u - dt * P(u . grad u), re-masked/projected
    g = _grid(32)
    u = sp.taylor_green(g)
    dt = 1e-3
    out = dyn.step_em(_state(u), dt, noise.zero_noise(), np.zeros(0))
    manual = sp.leray_project(sp.SpectralField(
        g, (u.coeffs - dt * sp.nonlinear_term(u).coeffs)
        * g.dealias_mask[None, ...]))
    assert np.max(np.abs(out.u.coeffs - manual.coeffs)) < 1e-13


def test_em_additive_noise_from_rest():
    # u = 0: the update is exactly the noise increment
    g = _grid()
    sigmas = noise.spectrum_sigma_fields(g, 2, 2.0, seed=3)
    model = noise.NoiseModel(noise.ADDITIVE, sigma_fields=sigmas)
    driver = noise.BrownianDriver(5, 2)
    dW = driver.sample_increments(7, 0, 0.01)
    out = dyn.step_em(_state(sp.SpectralField.zero(g)), 0.01, model, dW)
    want = noise.apply_noise(model, sp.SpectralField.zero(g), dW)
    assert np.max(np.abs(out.u.coeffs
                         - want.coeffs * g.dealias_mask[None, ...])) < 1e-14


def test_em_tracks_gamma_consistently():
    g = _grid(32)
    u = 0.1 * sp.taylor_green(g)
    model = _lin_mult(alpha=1.0)
    driver = noise.BrownianDriver(3, 1)
    state = _state(u)
    for step in range(10):
        state = dyn.step_em(state, 1e-3, model,
                            driver.sample_increments(0, step, 1e-3))
    assert state.gamma == pytest.approx(np.exp(-state.W_accum), rel=1e-12)


def test_em_preserves_divergence_free():
    g = _grid(32)
    u = sp.taylor_green(g)
    model = _lin_mult(alpha=1.0)
    state = _state(u)
    driver = noise.BrownianDriver(1, 1)
    for step in range(5):
        state = dyn.step_em(state, 1e-3, model,
                            driver.sample_increments(0, step, 1e-3))
        assert state.u.max_divergence() <= 1e-10 * sp.l2_norm(state.u)


def test_em_mean_mode_invariant():
    g = _grid(32)
    u = sp.taylor_green(g)
    # add a constant background drift
    shifted = sp.SpectralField.from_physical(
        g, u.to_physical() + 0.25, divergence_free=True)
    zero = (slice(None),) + (0,) * g.dim
    mean0 = shifted.coeffs[zero].copy()
    state = _state(shifted)
    for _ in range(5):
        state = dyn.step_em(state, 1e-3, noise.zero_noise(), np.zeros(0))
    assert np.max(np.abs(state.u.coeffs[zero] - mean0)) < 1e-10


def test_rk4_with_zero_noise_conserves_energy_short_run():
    g = _grid(32)
    u = sp.dealias(sp.taylor_green(g))
    state = _state(u)
    e0 = sp.l2_norm(u) ** 2
    for _ in range(50):
        state = dyn.step_rk4(state, 2e-3, noise.zero_noise(), np.zeros(0))
    assert abs(sp.l2_norm(state.u) ** 2 - e0) < 1e-10 * e0


# ---------------------------------------------------------------------------
# Transformed (damped) step


def test_transformed_pure_damping_is_exact_on_shear():
    # shear has vanishing self-advection: v(t) = e^{-alpha^2 t/2} v(0)
    g = _grid(32)
    v = sp.shear_field(g)
    alpha, dt = 2.0, 1e-2
    # W held at -log(1.3)/alpha, so gamma = 1.3 at every step
    cur = dyn.SimState(0.0, v, gamma=1.3, W_accum=-np.log(1.3) / alpha)
    for _ in range(50):
        cur = dyn.step_transformed(cur, dt, _lin_mult(alpha), np.zeros(1))
    want = np.exp(-alpha ** 2 * 0.5 * 0.5) * v.coeffs  # t = 0.5
    assert np.max(np.abs(cur.u.coeffs - want)) < 1e-10 * g.n ** 2


def test_transformed_alpha_zero_reduces_to_deterministic():
    g = _grid(32)
    u = sp.dealias(sp.taylor_green(g))
    dt = 1e-3
    a = dyn.step_transformed(_state(u), dt, noise.zero_noise(),
                             np.zeros(0)).u

    def rhs(_tau, v):
        return -1.0 * sp.nonlinear_term(v)

    b = dyn._rk4(u, dt, rhs)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13


def test_transformed_rejects_bad_gamma():
    g = _grid()
    with pytest.raises(ValueError):
        dyn.step_transformed(dyn.SimState(0.0, sp.shear_field(g), gamma=0.0),
                             1e-2, _lin_mult(1.0), np.zeros(1))


# ---------------------------------------------------------------------------
# Vorticity steps


def test_vorticity_2d_constant_unchanged_by_transport():
    g = _grid(16)
    w = sp.ScalarField.from_physical(g, np.full(g.shape, 2.5))
    out = dyn.step_vorticity_2d(w, 1e-2)
    assert np.max(np.abs(out.to_physical() - 2.5)) < 1e-12


def test_vorticity_2d_conserves_mean_and_casimir():
    g = sp.Grid(2, 64)
    rng = np.random.default_rng(12)
    u = sp.random_divergence_free(g, rng)
    w = sp.curl(u)
    mean0 = w.coeffs[0, 0]
    l4_0 = sp.lp_norm(w, 4.0)
    for _ in range(100):
        w = dyn.step_vorticity_2d(w, 5e-3)
    assert abs(w.coeffs[0, 0] - mean0) < 1e-10
    assert abs(sp.lp_norm(w, 4.0) - l4_0) < 1e-3 * l4_0


def test_vorticity_2d_additive_forcing_shape_check():
    g = _grid(16)
    w = sp.curl(sp.taylor_green(g))
    rho = [sp.ScalarField.from_physical(g, np.sin(g.coordinates[0]))]
    with pytest.raises(ValueError):
        dyn.step_vorticity_2d(w, 1e-2, rho_fields=rho, dW=None)
    out = dyn.step_vorticity_2d(w, 1e-2, rho_fields=rho,
                                dW=np.array([0.1]))
    assert np.all(np.isfinite(out.coeffs.view(float)))


def test_vorticity_3d_zero_stays_zero():
    g = sp.Grid(3, 8)
    w = sp.SpectralField.zero(g)
    out = dyn.step_vorticity_3d(w, 1e-2, alpha=1.0)
    assert sp.l2_norm(out) == 0.0


def test_vorticity_3d_strong_damping_regime():
    # small data, large alpha: e^{alpha^2 t/4} ||w||_inf non-increasing
    # within a 2% budget
    g = sp.Grid(3, 16)
    rng = np.random.default_rng(4)
    u = sp.random_divergence_free(g, rng, amplitude=0.05)
    w = sp.curl(u)
    alpha, dt = 4.0, 2e-3
    vals = [sp.lp_norm(w, np.inf)]
    for i in range(50):
        w = dyn.step_vorticity_3d(w, dt, alpha=alpha, gamma=1.0)
        vals.append(np.exp(alpha ** 2 * (i + 1) * dt / 4.0)
                    * sp.lp_norm(w, np.inf))
    for i in range(len(vals) - 1):
        assert vals[i + 1] <= vals[i] * 1.02


def test_vorticity_3d_matches_curl_of_velocity_step():
    # curl(step_em(u)) and vorticity-form step agree to O(dt^2) per step
    g = sp.Grid(3, 16)
    rng = np.random.default_rng(5)
    u = sp.random_divergence_free(g, rng, amplitude=0.5)
    errs = []
    for dt in (4e-3, 2e-3):
        w_v = sp.curl(dyn.step_em(_state(u), dt, noise.zero_noise(),
                                  np.zeros(0)).u)
        w_w = dyn.step_vorticity_3d(sp.curl(u), dt)
        errs.append(sp.l2_norm(w_v - w_w))
    assert errs[0] > 0
    # halving dt shrinks the gap by ~4 (both sides consistent to O(dt^2))
    assert 2.5 <= errs[0] / errs[1] <= 6.0


# ---------------------------------------------------------------------------
# Cut-off step


def test_cutoff_step_matches_em_below_threshold():
    g = _grid(32)
    u = sp.taylor_green(g)  # W^{1,inf} norm about 2
    model = _lin_mult(alpha=0.5)
    driver = noise.BrownianDriver(9, 1)
    R = 10.0 * sp.w1inf_norm(u)
    dW = driver.sample_increments(0, 0, 1e-3)
    a = dyn.step_em(_state(u), 1e-3, model, dW, enforce_cfl=False)
    b = dyn.step_cutoff_galerkin(_state(u), 1e-3, model, dW, R)
    assert np.array_equal(a.u.coeffs, b.u.coeffs)
    assert a.W_accum == b.W_accum


def test_cutoff_step_freezes_above_twice_threshold():
    g = _grid(32)
    u = sp.taylor_green(g)
    model = _lin_mult(alpha=0.5)
    driver = noise.BrownianDriver(9, 1)
    R = sp.w1inf_norm(u) / 4.0  # so the norm sits above 2R
    out = dyn.step_cutoff_galerkin(_state(u), 1e-3, model,
                                   driver.sample_increments(0, 0, 1e-3), R)
    frozen = sp.leray_project(sp.SpectralField(
        g, u.coeffs * g.dealias_mask[None, ...]))
    assert np.array_equal(out.u.coeffs, frozen.coeffs)


def test_cutoff_step_transition_band_damps_drift():
    g = _grid(32)
    u = sp.dealias(sp.random_divergence_free(g, np.random.default_rng(6)))
    norm = sp.w1inf_norm(u)
    R = norm / 1.5  # norm = 1.5 R: inside the transition band
    theta = sp.cutoff_theta(norm, R)
    assert 0.0 < theta < 1.0
    out = dyn.step_cutoff_galerkin(_state(u), 1e-3, noise.zero_noise(),
                                   np.zeros(0), R)
    full = dyn.step_em(_state(u), 1e-3, noise.zero_noise(), np.zeros(0),
                       enforce_cfl=False)
    drift_cut = sp.l2_norm(out.u - u)
    drift_full = sp.l2_norm(full.u - u)
    assert drift_cut <= theta * drift_full * (1.0 + 1e-10)


# ---------------------------------------------------------------------------
# Stopping rules


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        dyn.StoppingRule("bogus", 1.0)
    with pytest.raises(ValueError):
        dyn.StoppingRule(dyn.W1INF_THRESHOLD, 0.0)


def _tg_config(**kw):
    g = _grid(32)
    defaults = dict(u0=sp.taylor_green(g), model=noise.zero_noise(),
                    noise_seed=0, T=0.2, dt=5e-3, integrator="rk4")
    defaults.update(kw)
    return dyn.TrajectoryConfig(**defaults)


def test_integrate_trajectory_T_zero_is_empty():
    diag = dyn.integrate_trajectory(_tg_config(T=0.0))
    assert diag.times == []
    assert diag.final_time == 0.0
    assert not diag.hits


def test_integrate_trajectory_records_all_columns():
    diag = dyn.integrate_trajectory(_tg_config(sample_every=4))
    n = len(diag.times)
    assert n > 1
    for series in (diag.l2, diag.wmp, diag.w1inf, diag.curl_inf,
                   diag.gamma):
        assert len(series) == n
    assert diag.final_time == pytest.approx(0.2)
    assert not diag.blow_up_flag


def test_stopping_is_first_hit_and_monotone_in_level():
    low = dyn.StoppingRule(dyn.W1INF_THRESHOLD, 0.5)
    high = dyn.StoppingRule(dyn.W1INF_THRESHOLD, 1.0)
    d_low = dyn.integrate_trajectory(_tg_config(stopping=(low,)))
    d_high = dyn.integrate_trajectory(_tg_config(stopping=(high,)))
    t_low = d_low.first_hit(dyn.W1INF_THRESHOLD)
    t_high = d_high.first_hit(dyn.W1INF_THRESHOLD)
    assert t_low is not None and t_high is not None
    assert t_high >= t_low
    # fires immediately: Taylor-Green data already exceeds both levels
    assert t_low == 0.0


def test_gbm_level_rule_monitors_martingale():
    rule = dyn.StoppingRule(dyn.GBM_LEVEL, 1.0 + 1e-12)
    cfg = _tg_config(u0=0.05 * sp.taylor_green(_grid(32)),
                     model=_lin_mult(alpha=1.0), noise_seed=17,
                     integrator="em", stopping=(rule,), T=0.1, dt=1e-3)
    diag = dyn.integrate_trajectory(cfg, trajectory_id=1)
    hit = diag.first_hit(dyn.GBM_LEVEL)
    # either it fired at a sampled time or rho_alpha stayed below the level
    if hit is not None:
        assert 0.0 <= hit <= 0.1


def test_transformed_trajectory_gamma_is_positive():
    cfg = _tg_config(integrator="transformed", model=_lin_mult(alpha=1.0),
                     noise_seed=2, T=0.1, dt=2e-3)
    diag = dyn.integrate_trajectory(cfg)
    assert all(gamma > 0 for gamma in diag.gamma)


def test_unknown_integrator_rejected():
    with pytest.raises(ValueError):
        dyn.integrate_trajectory(_tg_config(integrator="leapfrog"))
    # checked when the config is built, before any step
    with pytest.raises(ValueError, match="em, rk4, transformed"):
        _tg_config(integrator="vorticity2d")
    with pytest.raises(ValueError, match="linear_multiplicative"):
        _tg_config(integrator="transformed")  # zero (additive) noise


def test_stopping_rules_reuse_sampled_norms(monkeypatch):
    # a W^{1,inf} rule and a Sobolev rule of the sampled (m, p) read the
    # sample's values; only a Sobolev rule of another order recomputes
    calls = []
    real = dyn.sobolev_norm

    def counting(f, req):
        calls.append(req)
        return real(f, req)

    monkeypatch.setattr(dyn, "sobolev_norm", counting)
    rules = tuple(dyn.StoppingRule(kind, 1e12, spec) for kind, spec in (
        (dyn.W1INF_THRESHOLD, None),
        (dyn.SOBOLEV_THRESHOLD, sp.NormRequest(3, 2)),
        (dyn.SOBOLEV_THRESHOLD, sp.NormRequest(1, 2))))
    diag = dyn.integrate_trajectory(_tg_config(T=0.02, stopping=rules))
    assert calls == [sp.NormRequest(3, 2), sp.NormRequest(1, 2)] \
        * len(diag.times)


def test_blow_up_flag_on_threshold(monkeypatch):
    monkeypatch.setattr(dyn, "BLOWUP_LEVEL", 0.5)  # below the initial norm
    diag = dyn.integrate_trajectory(_tg_config())
    assert diag.blow_up_flag
    assert len(diag.times) == 1  # stopped at the first sample


# ---------------------------------------------------------------------------
# CSV output


def test_diagnostics_csv_roundtrip(tmp_path):
    diag = dyn.integrate_trajectory(_tg_config(sample_every=2))
    text = diag.to_csv_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(dyn.TrajectoryDiagnostics.COLUMNS)
    assert len(rows) == len(diag.times) + 1
    # repr round-trip preserves the values exactly
    assert [float(r[0]) for r in rows[1:]] == diag.times
    path = tmp_path / "diag.csv"
    diag.to_csv(str(path))
    assert path.read_bytes().decode() == text
