"""Steppers, stopping rules, and the trajectory driver."""

import csv
import dataclasses
import inspect
import io
import sys
import tracemalloc

import numpy as np
import pytest

from stocheuler import dynamics as dyn, noise, spectral as sp
from stocheuler.errors import (CflViolation, ConfigError, InvalidParams,
                               ShapeMismatch)


def _grid(n=16, dim=2):
    return sp.Grid(dim, n)


def _lin_mult(alpha=1.0):
    return noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=alpha)


def _field_noise(g, kind, seed):
    """A two-mode model of an additive, nemytskii (g = u^2) or functional
    kind: sigma fields of seed and, for functional noise, profiles of
    seed + 1."""
    profiles = (noise.spectrum_sigma_fields(g, 2, 2.0, seed=seed + 1)
                if kind == noise.FUNCTIONAL else ())
    return noise.NoiseModel(
        kind, sigma_fields=noise.spectrum_sigma_fields(g, 2, 2.0, seed=seed),
        g_tag="square" if kind == noise.NEMYTSKII else "identity",
        profiles=profiles)


def _state(u):
    return dyn.SimState(u)


def _zero(grid):
    """The zero velocity field on grid."""
    return sp.SpectralField(
        grid, np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex))


def _max_divergence(f):
    """max_k |k . f_hat(k)|, the divergence-free defect in Fourier space."""
    div = np.sum(f.grid.k * f.coeffs, axis=-(f.grid.dim + 1))
    return float(np.max(np.abs(div)))


def _first_hit(diag, kind):
    """The time of the first hit of a rule kind, or None."""
    return next((t for k, t in diag.hits if k == kind), None)


def _csv_text(diag):
    """The diagnostics' CSV file as text."""
    buf = io.StringIO()
    diag.write_csv(buf)
    return buf.getvalue()


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
    assert dyn.cfl_limit(_zero(g), alpha=2.0) == pytest.approx(0.0025)


@pytest.mark.parametrize("kind", ["em", "rk4"])
def test_a_tiny_alpha_has_no_cfl_cap(kind):
    # (0.1 / 1e-200) ** 2 overflows: the cap is +inf, not an OverflowError
    g = _grid(16)
    u = sp.taylor_green(g)
    assert dyn.cfl_limit(u, alpha=1e-200) == dyn.cfl_limit(u)
    cfg = dyn.TrajectoryConfig(u0=u, model=_lin_mult(alpha=1e-200), T=0.01,
                               dt=0.005, integrator=kind)
    diag, = dyn.integrate_trajectory(cfg)
    assert diag.failure is None and not diag.blow_up_flag
    assert diag.final_time == pytest.approx(0.01)
    assert len(diag.times) == 3


def test_trajectory_config_rejects_a_negative_horizon():
    # T = 0 is the empty run; T < 0 was one too, silently
    with pytest.raises(InvalidParams, match="T must be non-negative"):
        _tg_config(T=-1.0)


def test_step_em_raises_on_cfl_violation():
    g = _grid(32)
    u = sp.taylor_green(g)
    with pytest.raises(CflViolation):
        dyn.step_em(_state(u), 10.0, noise.zero_noise(), np.zeros(0))


@pytest.mark.parametrize("step", [dyn.step_em, dyn.step_rk4,
                                  dyn.step_transformed])
def test_cfl_reads_max_u_of_the_stepped_state(step):
    # a stepped state is dealiased, and its bound is its own max|u|, read
    # from the grid values that its flux advects
    g = _grid(16)
    rng = np.random.default_rng(4)
    u = sp.leray_project(sp.SpectralField.from_physical(
        g, rng.standard_normal((2,) + g.shape)), dealiased=True)
    lim_u = dyn.cfl_limit(u, c_cfl=0.5)
    v = step(_state(u), 0.5 * lim_u, noise.zero_noise(), np.zeros(0),
             c_cfl=0.5).u
    lim_v = dyn.cfl_limit(v, c_cfl=0.5)
    with pytest.raises(CflViolation):
        step(_state(v), lim_v * (1.0 + 1e-9), noise.zero_noise(),
             np.zeros(0), c_cfl=0.5)
    step(_state(v), lim_v, noise.zero_noise(), np.zeros(0), c_cfl=0.5)


def test_trajectory_config_rejects_a_u0_outside_the_mask():
    # every field a run holds vanishes outside the dealias mask, so a u0
    # with content there, even the rounding of a transform of grid values,
    # is refused once, before any step
    g = _grid(16)
    x = g.coordinates
    rng = np.random.default_rng(4)
    for values in (rng.standard_normal((2,) + g.shape),
                   np.stack([np.sin(x[0]) * np.cos(x[1]),
                             -np.cos(x[0]) * np.sin(x[1])])):
        u = sp.leray_project(sp.SpectralField.from_physical(g, values))
        assert np.any(u.coeffs[..., ~g.dealias_mask])
        with pytest.raises(InvalidParams, match="dealias mask"):
            dyn.TrajectoryConfig(u0=u, model=noise.zero_noise(), T=0.01,
                                 dt=1e-3)
        dyn.TrajectoryConfig(u0=sp.leray_project(u, dealiased=True),
                             model=noise.zero_noise(), T=0.01, dt=1e-3)


def test_step_rejects_nonpositive_dt():
    g = _grid()
    u = sp.taylor_green(g)
    with pytest.raises(ValueError):
        dyn.step_em(_state(u), 0.0, noise.zero_noise(), np.zeros(0))


# ---------------------------------------------------------------------------
# Euler-Maruyama step


def test_em_zero_field_stays_zero():
    g = _grid()
    state = _state(_zero(g))
    out = dyn.step_em(state, 0.01, noise.zero_noise(), np.zeros(0))
    assert sp.l2_norm(out.u) == 0.0


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
    out = dyn.step_em(_state(_zero(g)), 0.01, model, dW)
    want = noise.apply_noise(model, _zero(g), dW)
    assert np.max(np.abs(out.u.coeffs
                         - want.coeffs * g.dealias_mask[None, ...])) < 1e-14


def test_em_tracks_gamma_consistently():
    # a run's gamma column is exp(-alpha W), W the running sum of its path's
    # Brownian increments, bit for bit
    alpha, dt, n_steps, tid = 1.0, 1e-3, 10, 2
    cfg = _tg_config(u0=0.1 * sp.taylor_green(_grid(32)),
                     model=_lin_mult(alpha), noise_seed=3, integrator="em",
                     T=n_steps * dt, dt=dt)
    diag, = dyn.integrate_trajectory(cfg, [tid])
    driver = noise.BrownianDriver(3, 1)
    W, want = 0.0, [1.0]
    for k in range(n_steps):
        W += driver.sample_increments(tid, k, dt)[0]
        want.append(float(np.exp(-alpha * W)))
    assert diag.gamma == want
    assert len(set(want)) == n_steps + 1


def test_em_preserves_divergence_free():
    g = _grid(32)
    u = sp.taylor_green(g)
    model = _lin_mult(alpha=1.0)
    state = _state(u)
    driver = noise.BrownianDriver(1, 1)
    for step in range(5):
        state = dyn.step_em(state, 1e-3, model,
                            driver.sample_increments(0, step, 1e-3))
        assert _max_divergence(state.u) <= 1e-10 * sp.l2_norm(state.u)


def test_em_mean_mode_invariant():
    g = _grid(32)
    u = sp.taylor_green(g)
    # add a constant background drift
    shifted = sp.SpectralField.from_physical(g, u.to_physical() + 0.25)
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
    # shear has vanishing self-advection, and dW = 0 holds W, so gamma,
    # whatever its value: u(t) = v(t) / gamma = e^{-alpha^2 t/2} u(0)
    g = _grid(32)
    v = sp.shear_field(g)
    alpha, dt = 2.0, 1e-2
    cur = dyn.SimState(v)
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


def _helicity(u):
    """H(u) = <u, curl u>_{L^2}."""
    return sp.l2_inner(u, sp.curl(u))


def test_transformed_3d_damps_helicity_and_energy_at_alpha_squared():
    # the paper's regularisation regime: the dealiased 3D transport
    # conserves energy and helicity, so v = exp(-alpha W) u loses both at
    # the noise's rate alone, H(v) = H(v0) e^{-alpha^2 t} and
    # ||v||^2 = ||v0||^2 e^{-alpha^2 t}, whatever the Brownian path; the
    # state holds u, and v = gamma u with gamma = exp(-alpha W)
    g = _grid(16, 3)
    rng = np.random.default_rng(11)
    v0 = sp.dealias(sp.leray_project(
        sp.random_divergence_free(g, rng) + 0.5 * sp.abc_field(g)))
    alpha, dt, n_steps = 1.0, 5e-3, 100
    model = _lin_mult(alpha)
    driver = noise.BrownianDriver(4, 1)
    state, W = _state(v0), 0.0
    for k in range(n_steps):
        dW = driver.sample_increments(0, k, dt)
        state = dyn.step_transformed(state, dt, model, dW)
        W += dW[0]
    v = np.exp(-alpha * W) * state.u
    decay = np.exp(-alpha ** 2 * n_steps * dt)
    assert abs(_helicity(v) / (_helicity(v0) * decay) - 1) < 1e-12
    assert abs(sp.l2_norm(v) ** 2 / (sp.l2_norm(v0) ** 2 * decay)
               - 1) < 1e-12
    # the transport moved the field, so this is not a pure-damping check
    undamped = np.exp(alpha ** 2 * n_steps * dt / 2) * v
    assert sp.l2_norm(undamped - v0) > 0.01 * sp.l2_norm(v0)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("step, kind", [
    (dyn.step_em, noise.LINEAR_MULTIPLICATIVE),
    (dyn.step_em, noise.ADDITIVE),
    (dyn.step_em, noise.NEMYTSKII),
    (dyn.step_rk4, noise.LINEAR_MULTIPLICATIVE),
    (dyn.step_rk4, noise.ADDITIVE),
    (dyn.step_rk4, noise.NEMYTSKII),
    (dyn.step_transformed, noise.LINEAR_MULTIPLICATIVE)])
def test_steppers_leave_their_input_state_unchanged(dim, n, step, kind):
    # callers pass states and initial fields without copying them; u
    # carries modes outside the dealias mask, so an in-place dealias shows
    g = _grid(n, dim)
    rng = np.random.default_rng(8)
    u = sp.leray_project(sp.SpectralField.from_physical(
        g, rng.standard_normal((dim,) + g.shape)))
    if kind == noise.LINEAR_MULTIPLICATIVE:
        model = _lin_mult(alpha=1.0)
    else:
        model = _field_noise(g, kind, seed=6)
    before = u.coeffs.copy()
    dW = noise.BrownianDriver(2, model.n_modes).sample_increments(0, 0, 1e-4)
    step(_state(u), 1e-4, model, dW)
    assert np.array_equal(u.coeffs, before)


def test_transformed_step_result_survives_a_later_step():
    # the RK4 stage inputs live in the grid's work arrays; the state a step
    # returns must not
    g = _grid(16, 3)
    model = _lin_mult(alpha=1.0)
    dW = np.full(1, 0.01)
    a, b = (dyn.step_transformed(
        _state(sp.make_initial_field(g, "random", 0.5, seed=s)), 5e-3,
        model, dW) for s in (1, 2))
    kept = a.u.coeffs.copy()
    dyn.step_transformed(b, 5e-3, model, dW)
    assert np.array_equal(a.u.coeffs, kept)


# A warmed-up step runs on box arrays of the grid's workspace and allocates
# its result, one field, and, when no sample made them, u's grid values
# (8/9 of a field at 3D n = 16) with _sup_magnitude's two one-component
# squares beside them: 1.48 fields, 1.54 measured for every stepper at this
# batch of 3.  The bound leaves a margin of a quarter field; one more
# field-size temporary per step breaks it.  The whole-array steppers took
# 2.0 (transformed), 2.3 (rk4) and 3.2 (em) fields here.
STEP_ALLOCATION_FIELDS = 1.8


def _check_step_allocation(step):
    g = _grid(16, 3)
    u0 = sp.make_initial_field(g, "random", 0.5, seed=2)
    batch = 3
    state = dyn.SimState(sp.SpectralField(
        g, np.repeat(u0.coeffs[None], batch, axis=0)))
    model = _lin_mult(alpha=1.0)
    dW = np.full((batch, 1), 0.01)
    state = step(state, 5e-3, model, dW)  # sizes the pools
    tracemalloc.start()
    try:
        step(state, 5e-3, model, dW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= STEP_ALLOCATION_FIELDS * state.u.coeffs.nbytes


def test_transformed_step_allocates_few_field_sizes():
    _check_step_allocation(dyn.step_transformed)


@pytest.mark.parametrize("step", [dyn.step_em, dyn.step_rk4])
def test_em_and_rk4_steps_allocate_few_field_sizes(step):
    _check_step_allocation(step)


# The working set of a sampled run on a new grid, in fields of the batch's
# coefficients: the initial field, the grid's tables and workspace, the
# states and the sampled view.  Measured: 11.8 (3D n=16 transformed, one
# path) and 10.1 (2D n=32 em, a batch of 8), where workspace pools sized
# for the whole gradient stack, the grid's full-spectrum symbol tables and
# a copied first batch took 17.3 and 11.9.
RUN_WORKING_SET_FIELDS = {3: 14.0, 2: 11.0}


@pytest.mark.parametrize("dim, n, kind, batch", [
    (3, 16, dyn.TRANSFORMED, 1), (2, 32, dyn.EM, 8)])
def test_sampled_run_working_set(dim, n, kind, batch):
    def run(steps):
        g = sp.Grid(dim, n)
        u0 = sp.make_initial_field(g, "random", 0.5, seed=1)
        cfg = dyn.TrajectoryConfig(u0=u0, model=_lin_mult(alpha=1.0),
                                   T=steps * 1e-3, dt=1e-3, integrator=kind)
        dyn.integrate_trajectory(cfg, range(batch))
        return batch * u0.coeffs.nbytes

    run(2)  # fills the module's caches (Parseval weights), shared by grids
    tracemalloc.start()
    try:
        fields = run(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= RUN_WORKING_SET_FIELDS[dim] * fields


# Profile events (Python calls and calls of C functions) per sampled step
# of a 2D n=16 path under linear-multiplicative noise, where the arrays are
# small and dispatch is most of a step: the difference between runs of 20
# and 10 steps over 10.  Measured 195 (em) and 293 (transformed), where
# carving every work array again on each call, the np.sum and np.max
# wrappers, np.moveaxis and np.column_stack took 347 and 524.
STEP_DISPATCH_BUDGET = {dyn.EM: 250, dyn.TRANSFORMED: 380}


@pytest.mark.parametrize("kind", [dyn.EM, dyn.TRANSFORMED])
def test_sampled_step_dispatch_budget(kind):
    def events(steps):
        g = sp.Grid(2, 16)
        cfg = dyn.TrajectoryConfig(
            u0=sp.make_initial_field(g, "taylor_green", 0.5),
            model=_lin_mult(alpha=1.0), T=steps * 1e-3, dt=1e-3,
            integrator=kind)
        dyn.integrate_trajectory(cfg)  # sizes and carves the workspace
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event in ("call", "c_call")

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            diag, = dyn.integrate_trajectory(cfg)
        finally:
            sys.setprofile(previous)
        assert len(diag.times) == steps + 1 and diag.failure is None
        return count

    per_step = (events(20) - events(10)) / 10
    assert per_step <= STEP_DISPATCH_BUDGET[kind]


@pytest.mark.parametrize("kind", [noise.ADDITIVE, noise.FUNCTIONAL])
def test_field_noise_runs_build_no_full_spectrum_symbols(kind):
    # the steppers project the noise term on the kept box alone, so a run
    # never builds the grid's full-spectrum wavenumber tables
    g = sp.Grid(2, 32)
    cfg = dyn.TrajectoryConfig(
        u0=sp.make_initial_field(g, "random", 0.5, seed=1),
        model=_field_noise(g, kind, seed=2), T=0.01, dt=1e-3)
    diag, = dyn.integrate_trajectory(cfg)
    assert len(diag.times) == 11 and diag.failure is None
    assert not {"k", "k_sq", "k_sq_safe"} & g.__dict__.keys()


def _whole_array_step(kind, u, dt, model, dW):
    """One step of one path the whole-array way the steppers took before
    they ran on the kept box: nonlinear_term, the noise term and the
    re-projection leray_project(dealiased=True) on whole half spectra, and
    RK4 with the stage input v + c k."""
    alpha = model.alpha if kind == dyn.TRANSFORMED else 0.0
    half = 0.5 * alpha ** 2
    if kind == dyn.EM:
        drift = sp.nonlinear_term(u).coeffs
        drift *= dt
        u_new = sp.SpectralField(u.grid, u.coeffs - drift)
    else:
        def rhs(tau, w):
            k = sp.nonlinear_term(w)
            k *= -np.exp(-half * tau)
            return k

        u_new = dyn._rk4(u, dt, rhs)
    if kind == dyn.TRANSFORMED:
        u_new *= np.exp(alpha * dW[0] - half * dt)
        return u_new
    u_new += noise.apply_noise(model, u, dW)
    return sp.leray_project(u_new, dealiased=True)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("kind, noise_kind", [
    (dyn.EM, noise.LINEAR_MULTIPLICATIVE), (dyn.EM, noise.ADDITIVE),
    (dyn.EM, noise.NEMYTSKII), (dyn.EM, noise.FUNCTIONAL),
    (dyn.RK4, noise.ADDITIVE), (dyn.RK4, noise.LINEAR_MULTIPLICATIVE),
    (dyn.RK4, noise.NEMYTSKII), (dyn.RK4, noise.FUNCTIONAL),
    (dyn.TRANSFORMED, noise.LINEAR_MULTIPLICATIVE)])
def test_box_steps_equal_the_whole_array_steps(kind, noise_kind, dim, n):
    # a batch of 3 in which path 1 leaves after step 3: every state of
    # every path is bit for bit the whole-array step of that path alone
    g = _grid(n, dim)
    model = (_lin_mult(alpha=1.0) if noise_kind == noise.LINEAR_MULTIPLICATIVE
             else _field_noise(g, noise_kind, seed=5))
    u0 = [sp.make_initial_field(g, "random", 0.5, seed=s) for s in (1, 2, 3)]
    driver = noise.BrownianDriver(9, model.n_modes)
    dt, rows = 5e-3, [0, 1, 2]
    state = dyn.SimState(sp.SpectralField(
        g, np.stack([u.coeffs for u in u0])))
    solo = list(u0)
    step = getattr(dyn, f"step_{kind}")
    for k in range(8):
        if k == 3:
            rows = [0, 2]
            state = dyn._keep(state, np.array([True, False, True]))
        dW = np.stack([driver.sample_increments(i, k, dt) for i in rows])
        state = step(state, dt, model, dW)
        for r, i in enumerate(rows):
            solo[i] = _whole_array_step(kind, solo[i], dt, model, dW[r])
            assert np.array_equal(state.u.coeffs[r], solo[i].coeffs), (k, i)


def _v_form_step(v, gamma, W, dt, alpha, dW):
    """One step of the paper's transformed system on v = gamma u itself:
    dv/dt + (alpha^2/2) v + gamma^{-1} P(v.grad v) = 0 with gamma frozen,
    the damping exact through w = exp(alpha^2 tau / 2) v; then W += dW."""
    half = 0.5 * alpha ** 2

    def rhs(tau, w):
        k = sp.nonlinear_term(w)
        k *= np.exp(-half * tau) / -gamma
        return k

    v_new = dyn._rk4(v, dt, rhs)
    v_new *= float(np.exp(-half * dt))
    W_new = W + dW[..., 0]
    return v_new, np.exp(-alpha * W_new), W_new


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_transformed_u_form_equals_the_v_form(dim, n, batch):
    # the stepper holds u and keeps v = gamma u inside its step; gamma u
    # must be the v that the v-form steps, path by path
    g = _grid(n, dim)
    u0 = sp.make_initial_field(g, "random", 1.0, seed=5)
    ids = range(batch[0]) if batch else [0]
    alpha, dt = 1.0, 5e-3
    model = _lin_mult(alpha)
    driver = noise.BrownianDriver(6, 1)
    coeffs = np.broadcast_to(u0.coeffs, batch + u0.coeffs.shape).copy()
    state = dyn.SimState(sp.SpectralField(g, coeffs))
    v = sp.SpectralField(g, coeffs.copy())
    gamma, W = np.ones(batch), np.zeros(batch)
    for k in range(20):
        dW = np.array([driver.sample_increments(i, k, dt) for i in ids])
        dW = dW.reshape(batch + (1,))
        state = dyn.step_transformed(state, dt, model, dW)
        v, gamma, W = _v_form_step(v, gamma, W, dt, alpha, dW)
    gap = sp.l2_norm(gamma * state.u - v) / sp.l2_norm(v)
    assert np.all(gap <= 1e-13)
    # the transport moved the field, so this is not a pure-damping check
    damped = float(np.exp(-0.5 * alpha ** 2 * 20 * dt)) * u0
    assert np.all(sp.l2_norm(gamma * damped - v) > 1e-3 * sp.l2_norm(v))


def test_every_stepper_has_one_signature():
    # the driver calls step(state, dt, model, dW, c_cfl) whatever the kind
    want = inspect.signature(dyn.step_em)
    assert list(want.parameters) == ["state", "dt", "model", "dW", "c_cfl"]
    assert want.parameters["c_cfl"].default == 0.5
    for kind in dyn.INTEGRATORS:
        assert inspect.signature(getattr(dyn, f"step_{kind}")) == want, kind


def test_state_fields_after_u_are_keyword_only():
    # a call written for an older field order fails instead of shifting
    # its values into other fields
    u = _zero(_grid())
    with pytest.raises(TypeError):
        dyn.SimState(u, np.ones(3), np.zeros(3))
    assert dyn.SimState(u, u_max=np.ones(1)).u_max == 1.0


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_every_stepper_maps_u_to_u(dim, n):
    # one contract: each kind's step from the same state and increments
    # lands within O(dt) of step_em's.  dW = sqrt(dt) puts alpha u dW,
    # O(sqrt dt), between u and the step's v = gamma u
    g = _grid(n, dim)
    u = sp.make_initial_field(g, "random", 1.0, seed=3)
    dt = 1e-3
    model = _lin_mult(alpha=1.0)
    state = dyn.SimState(u)
    dW = np.full(1, np.sqrt(dt))
    u_em = dyn.step_em(state, dt, model, dW).u
    for kind in dyn.INTEGRATORS:
        out = getattr(dyn, f"step_{kind}")(state, dt, model, dW)
        assert sp.l2_norm(out.u - u_em) <= dt * sp.l2_norm(u), kind


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_transformed_first_stage_reuses_the_sampled_values(dim, n,
                                                           monkeypatch):
    # the driver keeps a sample's grid values on the state; the first RK4
    # stage advects them instead of transforming u again, bit for bit
    g = _grid(n, dim)
    u = sp.make_initial_field(g, "random", 1.0, seed=4)
    model = _lin_mult(alpha=1.0)
    dW = np.full(1, 0.01)
    values, u_max = sp._sup_view(u)[:2]
    sampled = dyn.SimState(u, values=values, u_max=u_max)
    seen = []
    real = dyn.nonlinear_term

    def recording(w, w_phys=None, **box_form):
        seen.append(w_phys)
        return real(w, w_phys, **box_form)

    monkeypatch.setattr(dyn, "nonlinear_term", recording)
    a = dyn.step_transformed(sampled, 5e-3, model, dW)
    assert seen[0] is values and all(x is None for x in seen[1:])
    b = dyn.step_transformed(_state(u), 5e-3, model, dW)
    assert np.array_equal(a.u.coeffs, b.u.coeffs)


# ---------------------------------------------------------------------------
# Stopping rules


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        dyn.StoppingRule("bogus", 1.0)
    with pytest.raises(ValueError):
        dyn.StoppingRule(dyn.W1INF_THRESHOLD, 0.0)
    with pytest.raises(ValueError, match="norm_spec"):
        dyn.StoppingRule(dyn.SOBOLEV_THRESHOLD, 1.0)


def _tg_config(**kw):
    g = _grid(32)
    defaults = dict(u0=sp.taylor_green(g), model=noise.zero_noise(),
                    noise_seed=0, T=0.2, dt=5e-3, integrator="rk4")
    defaults.update(kw)
    return dyn.TrajectoryConfig(**defaults)


def test_integrate_trajectory_T_zero_is_empty():
    diag, = dyn.integrate_trajectory(_tg_config(T=0.0))
    assert diag.times == []
    assert diag.final_time == 0.0
    assert not diag.hits


def test_integrate_trajectory_records_all_columns():
    diag, = dyn.integrate_trajectory(_tg_config(sample_every=4))
    n = len(diag.times)
    assert n > 1
    for series in (diag.l2, diag.wmp, diag.w1inf, diag.curl_inf,
                   diag.gamma):
        assert len(series) == n
    assert diag.final_time == pytest.approx(0.2)
    assert not diag.blow_up_flag


def test_the_driver_reports_whole_steps_of_dt():
    # one clock: each sample's t and the final time are k dt for the step k
    # the driver counted.  A time accumulated as t + dt ended these 400
    # steps of 0.005 at 1.9999999999999793
    cfg = dyn.TrajectoryConfig(u0=sp.taylor_green(_grid(8)),
                               model=noise.zero_noise(), T=2.0, dt=0.005,
                               sample_every=50)
    diag, = dyn.integrate_trajectory(cfg)
    assert diag.times == [k * 0.005 for k in range(0, 401, 50)]
    assert diag.final_time == diag.times[-1] == 2.0


def test_stopping_is_first_hit_and_monotone_in_level():
    low = dyn.StoppingRule(dyn.W1INF_THRESHOLD, 0.5)
    high = dyn.StoppingRule(dyn.W1INF_THRESHOLD, 1.0)
    d_low, = dyn.integrate_trajectory(_tg_config(stopping=(low,)))
    d_high, = dyn.integrate_trajectory(_tg_config(stopping=(high,)))
    t_low = _first_hit(d_low, dyn.W1INF_THRESHOLD)
    t_high = _first_hit(d_high, dyn.W1INF_THRESHOLD)
    assert t_low is not None and t_high is not None
    assert t_high >= t_low
    # fires immediately: Taylor-Green data already exceeds both levels
    assert t_low == 0.0


def test_gbm_level_rule_monitors_martingale():
    rule = dyn.StoppingRule(dyn.GBM_LEVEL, 1.0 + 1e-12)
    cfg = _tg_config(u0=0.05 * sp.taylor_green(_grid(32)),
                     model=_lin_mult(alpha=1.0), noise_seed=17,
                     integrator="em", stopping=(rule,), T=0.1, dt=1e-3)
    diag, = dyn.integrate_trajectory(cfg, [1])
    hit = _first_hit(diag, dyn.GBM_LEVEL)
    # either it fired at a sampled time or rho_alpha stayed below the level
    if hit is not None:
        assert 0.0 <= hit <= 0.1


@pytest.mark.parametrize("kind", [noise.NONE, noise.ADDITIVE])
def test_gbm_level_rule_needs_linear_multiplicative_noise(kind):
    # rho = exp(alpha W - alpha^2 t / 8) is 1 without alpha: the rule would
    # fire at t = 0 for a level below 1 and never for one above it
    g = _grid(8)
    model = noise.NoiseModel(kind, sigma_fields=(
        () if kind == noise.NONE else noise.spectrum_sigma_fields(g, 1, 2.0,
                                                                  seed=1)))
    for level in (0.5, 2.0):
        with pytest.raises(ConfigError, match=f"^stopping: a gbm_level rule "
                                              f"needs linear_multiplicative "
                                              f"noise, not '{kind}'$"):
            _tg_config(u0=sp.taylor_green(g), model=model, integrator="em",
                       stopping=(dyn.StoppingRule(dyn.GBM_LEVEL, level),))


def test_transformed_trajectory_gamma_is_positive():
    cfg = _tg_config(integrator="transformed", model=_lin_mult(alpha=1.0),
                     noise_seed=2, T=0.1, dt=2e-3)
    diag, = dyn.integrate_trajectory(cfg)
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
    diag, = dyn.integrate_trajectory(_tg_config(T=0.02, stopping=rules))
    assert calls == [sp.NormRequest(3, 2), sp.NormRequest(1, 2)] \
        * len(diag.times)


def test_blow_up_flag_on_threshold(monkeypatch):
    monkeypatch.setattr(dyn, "BLOWUP_LEVEL", 0.5)  # below the initial norm
    diag, = dyn.integrate_trajectory(_tg_config())
    assert diag.blow_up_flag
    assert len(diag.times) == 1  # stopped at the first sample


# ---------------------------------------------------------------------------
# CSV output


def test_diagnostics_csv_roundtrip(tmp_path):
    diag, = dyn.integrate_trajectory(_tg_config(sample_every=2))
    text = _csv_text(diag)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(dyn.TrajectoryDiagnostics.COLUMNS)
    assert len(rows) == len(diag.times) + 1
    # repr round-trip preserves the values exactly
    assert [float(r[0]) for r in rows[1:]] == diag.times
    path = tmp_path / "diag.csv"
    diag.to_csv(str(path))
    assert path.read_bytes().decode() == text


# ---------------------------------------------------------------------------
# Batches: a path's numbers do not depend on the batch it runs in


def _batch_config(kind, dim, noise_kind):
    g = sp.Grid(dim, 16)
    u0 = sp.make_initial_field(g, "random", 0.5, seed=3)
    if noise_kind == noise.LINEAR_MULTIPLICATIVE:
        model = _lin_mult(alpha=1.0)
    else:
        model = _field_noise(g, noise_kind, seed=1)
    return dyn.TrajectoryConfig(u0=u0, model=model, noise_seed=9, T=0.03,
                                dt=5e-3, integrator=kind, sample_every=2)


@pytest.mark.parametrize("kind, dim, noise_kind", [
    ("em", 2, noise.LINEAR_MULTIPLICATIVE),
    ("rk4", 2, noise.LINEAR_MULTIPLICATIVE),
    ("transformed", 2, noise.LINEAR_MULTIPLICATIVE),
    ("transformed", 3, noise.LINEAR_MULTIPLICATIVE),
    ("em", 3, noise.LINEAR_MULTIPLICATIVE),
    ("em", 2, noise.ADDITIVE),
    ("em", 2, noise.NEMYTSKII),
    ("rk4", 2, noise.FUNCTIONAL),
])
def test_batch_csv_equals_solo_runs(kind, dim, noise_kind):
    cfg = _batch_config(kind, dim, noise_kind)
    ids = [0, 3, 7]
    batch = dyn.integrate_trajectory(cfg, ids)
    assert len({d.l2[-1] for d in batch}) == len(ids)  # the paths differ
    for tid, diag in zip(ids, batch):
        solo, = dyn.integrate_trajectory(cfg, [tid])
        assert _csv_text(diag) == _csv_text(solo)
        assert diag.final_time == solo.final_time == pytest.approx(0.03)


def _outcome(diag):
    if diag.failure is not None:
        return type(diag.failure).__name__
    return "blow-up" if diag.blow_up_flag else "hit" if diag.hits else "ran"


def _check_mixed_batch(monkeypatch):
    """Run paths 4-9 as one batch, with every outcome among them, and check
    each against its solo run."""
    g = _grid(16)
    u0 = sp.make_initial_field(g, "random", 0.5, seed=3)
    dt = 0.01
    monkeypatch.setattr(dyn, "BLOWUP_LEVEL", 1.5 * sp.w1inf_norm(u0))
    cfg = dyn.TrajectoryConfig(
        u0=u0, model=_lin_mult(alpha=1.0), noise_seed=32, T=1.0, dt=dt,
        c_cfl=1.7 * dt * sp.lp_norm(u0, np.inf) / g.dx, sample_every=10,
        stopping=(dyn.StoppingRule(dyn.GBM_LEVEL, 1.6),))
    ids = range(4, 10)
    batch = dyn.integrate_trajectory(cfg, ids)
    outcomes = [_outcome(d) for d in batch]
    assert sorted(set(outcomes)) == ["CflViolation", "blow-up", "hit", "ran"]
    for tid, diag in zip(ids, batch):
        solo, = dyn.integrate_trajectory(cfg, [tid])
        assert _outcome(diag) == _outcome(solo)
        assert _csv_text(diag) == _csv_text(solo)
        assert (diag.hits, diag.final_time) == (solo.hits, solo.final_time)
        if _outcome(diag) == "CflViolation":
            assert diag.failure.rows is not None and len(diag.times) > 1
    return batch


def test_mixed_batch_survivors_equal_their_solo_runs(monkeypatch):
    # paths leave the batch as they blow up, hit the gbm_level rule or break
    # the CFL limit between samples; what every path recorded until then,
    # and how it ended, is what its solo run gives
    _check_mixed_batch(monkeypatch)


def test_mixed_batch_survivors_equal_their_solo_runs_across_blocks(
        monkeypatch):
    # Wiener blocks of 7 steps: paths retire mid-block and on a block
    # boundary, and the others step on through refills of the batch's block
    monkeypatch.setattr(noise, "BLOCK_STEPS", 7)
    batch = _check_mixed_batch(monkeypatch)
    ends = {round(d.final_time / 0.01) for d in batch} - {100}
    assert 70 in ends and any(k % 7 for k in ends)


def test_a_run_keys_one_seed_sequence_per_path_and_block(monkeypatch):
    # N paths of S steps construct at most N ceil(S / L) SeedSequences for
    # Wiener blocks of L steps, not one per path and step
    cfg = dyn.TrajectoryConfig(
        u0=sp.make_initial_field(_grid(8), "random", 0.1, seed=1),
        model=_lin_mult(alpha=1.0), noise_seed=5, T=0.2, dt=0.01)
    made = []
    seed_sequence = np.random.SeedSequence

    def counted(*args, **kwargs):
        made.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    for length, most in ((None, 3), (7, 3 * 3)):  # 20 steps, 3 paths
        if length:
            monkeypatch.setattr(noise, "BLOCK_STEPS", length)
        made.clear()
        diags = dyn.integrate_trajectory(cfg, range(3))
        assert [d.final_time for d in diags] == pytest.approx([0.2] * 3)
        assert 0 < len(made) <= most


def test_batch_state_drops_rows_that_break_the_cfl_limit():
    # a CflViolation on a batch names the rows over the limit, not the batch
    g = _grid(16)
    u = sp.taylor_green(g)
    batch = sp.SpectralField(g, np.stack([0.01 * u.coeffs, u.coeffs,
                                          0.02 * u.coeffs]))
    state = dyn.SimState(batch)
    dt = 0.5 * dyn.cfl_limit(0.02 * u)
    with pytest.raises(CflViolation) as info:
        dyn.step_em(state, dt, noise.zero_noise(), np.zeros((3, 0)))
    assert list(info.value.rows) == [1]


# ---------------------------------------------------------------------------
# Given increments: the checks' run loop


def _keyed_increments(cfg, ids):
    """The BrownianDriver draws that cfg's run of the ids steps on."""
    driver = noise.BrownianDriver(cfg.noise_seed, cfg.model.n_modes)
    steps = round(cfg.T / cfg.dt)
    return np.stack([driver.sample_increments(tid, 0, cfg.dt, steps)
                     for tid in ids])


@pytest.mark.parametrize("kind", ["em", "transformed"])
def test_given_keyed_increments_give_the_keyed_run(kind):
    # a batch of 2 in which path 3 hits the gbm_level rule early: run on the
    # driver's own draws, passed in, each path writes the same CSV, and its
    # final_u is its last state, the one its solo run ends on
    g = _grid(16)
    cfg = dyn.TrajectoryConfig(
        u0=sp.make_initial_field(g, "random", 0.5, seed=3),
        model=_lin_mult(alpha=1.0), noise_seed=32, T=0.5, dt=0.01,
        integrator=kind, sample_every=5,
        stopping=(dyn.StoppingRule(dyn.GBM_LEVEL, 1.5),))
    ids = [1, 3]
    keyed = dyn.integrate_trajectory(cfg, ids)
    given = dyn.integrate_trajectory(cfg, ids, _keyed_increments(cfg, ids))
    assert [bool(d.hits) for d in keyed] == [False, True]
    assert keyed[1].final_time < 0.3
    for tid, a, b in zip(ids, keyed, given):
        assert _csv_text(a) == _csv_text(b)
        assert (a.hits, a.final_time) == (b.hits, b.final_time)
        solo, = dyn.integrate_trajectory(cfg, [tid])
        for diag in (a, b):
            assert diag.final_u.coeffs.shape == cfg.u0.coeffs.shape
            assert np.array_equal(diag.final_u.coeffs, solo.final_u.coeffs)
            assert sp.l2_norm(diag.final_u) == diag.l2[-1]


@pytest.mark.parametrize("kind", ["em", "transformed"])
def test_the_driver_sums_each_paths_W_from_its_increments(kind):
    # the state holds no W: the driver sums each path's dW[:, 0] over the
    # steps it took, and every sampled gamma is exp(-alpha W) of that sum,
    # bit for bit.  Path 3, row 0, hits the gbm_level rule early and leaves
    # the batch with its row of W; path 1 steps on with its own
    assert [f.name for f in dataclasses.fields(dyn.SimState)] == [
        "u", "values", "u_max"]
    g = _grid(16)
    alpha, dt = 1.0, 0.01
    cfg = dyn.TrajectoryConfig(
        u0=sp.make_initial_field(g, "random", 0.5, seed=3),
        model=_lin_mult(alpha), noise_seed=32, T=0.5, dt=dt,
        integrator=kind, stopping=(dyn.StoppingRule(dyn.GBM_LEVEL, 1.5),))
    ids = [3, 1]
    dW = _keyed_increments(cfg, ids)
    diags = dyn.integrate_trajectory(cfg, ids, dW)
    assert diags[0].hits and diags[0].final_time < 0.3
    assert not diags[1].hits and diags[1].final_time == pytest.approx(0.5)
    for diag, path in zip(diags, dW):
        W = np.concatenate(([0.0], np.cumsum(path[:, 0])))
        steps = [round(t / dt) for t in diag.times]
        assert steps == list(range(len(steps)))
        assert diag.gamma == np.exp(-alpha * W[steps]).tolist()


def test_increments_of_another_shape_are_refused_before_any_step(
        monkeypatch):
    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(dyn, "step_em", no_step)
    cfg = dyn.TrajectoryConfig(u0=sp.taylor_green(_grid(8)),
                               model=_lin_mult(alpha=1.0), T=0.02, dt=0.01)
    for shape in ((2, 2, 1), (1, 3, 1), (1, 2, 2), (2, 1)):
        with pytest.raises(ShapeMismatch, match="need \\(1, 2, 1\\)"):
            dyn.integrate_trajectory(cfg, [0], np.zeros(shape))


def test_a_nan_increment_blows_up_its_path_mid_step():
    # the step's NonFinite names row 1 alone: row 1 is a blow-up at the
    # step it entered, and row 0 runs on as it runs solo
    cfg = dyn.TrajectoryConfig(
        u0=sp.make_initial_field(_grid(16), "random", 0.5, seed=3),
        model=_lin_mult(alpha=1.0), noise_seed=4, T=0.05, dt=0.005)
    dW = _keyed_increments(cfg, [0, 1])
    dW[1, 4] = np.nan
    row0, row1 = dyn.integrate_trajectory(cfg, [0, 1], dW)
    assert row1.blow_up_flag and row1.failure is None
    assert row1.final_time == pytest.approx(0.02)
    assert len(row1.times) == 5
    assert np.isfinite(row1.final_u.coeffs).all()
    solo, = dyn.integrate_trajectory(cfg, [0], dW[:1])
    assert not row0.blow_up_flag and row0.failure is None
    assert _csv_text(row0) == _csv_text(solo)
    assert row0.final_time == solo.final_time == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# Mirror symmetry: Euler commutes with each reflection S_j


def _reflect(u, j):
    """S_j u: grid index i -> -i mod n on axis j and u_j negated, taken on
    the grid and dealiased again after the forward transform."""
    values = np.roll(np.flip(u.to_physical(), axis=1 + j), 1, axis=1 + j)
    values[j] *= -1
    return sp.dealias(sp.SpectralField.from_physical(u.grid, values))


def _symmetrized(u):
    """The mean of u over all 2^d products of the reflections S_j."""
    fields = [u]
    for j in range(u.grid.dim):
        fields += [_reflect(f, j) for f in fields]
    total = fields[0]
    for f in fields[1:]:
        total = total + f
    return total * (1.0 / len(fields))


def _relative_gap(a, b):
    return sp.l2_norm(a - b) / sp.l2_norm(b)


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
@pytest.mark.parametrize("kind", [dyn.RK4, dyn.EM, dyn.TRANSFORMED])
def test_one_step_commutes_with_each_reflection(kind, dim, n):
    # S_j maps Euler solutions to Euler solutions and commutes with the
    # Leray projection and with alpha u dW: stepping S_j u gives S_j of the
    # step of u, whatever the stepper does with the roundoff
    g = _grid(n, dim)
    u = sp.make_initial_field(g, "random", 0.5, seed=12)
    if kind == dyn.RK4:
        model, dW = noise.zero_noise(), np.zeros(0)
    else:
        model, dW = _lin_mult(alpha=1.0), np.array([0.07])
    dt = 0.5 * dyn.cfl_limit(u, 0.5, model.alpha)
    step = getattr(dyn, f"step_{kind}")
    stepped = step(_state(u), dt, model, dW).u
    assert _relative_gap(stepped, u) > 1e-3  # the step moved u
    for j in range(dim):
        mirrored = step(_state(_reflect(u, j)), dt, model, dW).u
        assert _relative_gap(mirrored, _reflect(stepped, j)) <= 1e-13, j


@pytest.mark.parametrize("dim, n, steps", [(2, 32, 200), (3, 16, 100)])
@pytest.mark.parametrize("kind", [dyn.RK4, dyn.TRANSFORMED])
def test_a_run_from_a_mirror_symmetric_field_stays_symmetric(kind, dim, n,
                                                              steps):
    # a field that every S_j fixes stays fixed along the run: the driver's
    # path keeps u = P_sym u to roundoff, noiseless and under alpha u dW
    g = _grid(n, dim)
    u0 = _symmetrized(sp.make_initial_field(g, "random", 0.5, seed=13))
    assert _relative_gap(_symmetrized(u0), u0) <= 1e-15
    model = noise.zero_noise() if kind == dyn.RK4 else _lin_mult(alpha=1.0)
    dt = 0.005
    cfg = dyn.TrajectoryConfig(u0=u0, model=model, noise_seed=5,
                               T=steps * dt, dt=dt, integrator=kind,
                               sample_every=steps)
    diag, = dyn.integrate_trajectory(cfg)
    u = diag.final_u
    assert diag.failure is None and diag.final_time == pytest.approx(cfg.T)
    assert _relative_gap(u, u0) > 1e-3  # the run moved u
    assert _relative_gap(_symmetrized(u), u) <= 1e-13
