"""End-to-end acceptance gate.

Each test covers one headline guarantee and prints a single PASS/FAIL line
(visible with `pytest -s` or in failure output).  Tolerances are pinned
here on purpose; loosening them is a behavior change, not a test fix.
"""

import time

import pytest

import numpy as np

from stocheuler import (analysis as an, checks, dynamics as dyn,
                        ensemble as ens, noise, spectral as sp)
from tests.test_spectral import _convolution_oracle


_CAPTURE = None


@pytest.fixture(autouse=True)
def _hold_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(name: str, ok: bool, detail: str) -> None:
    # bypass output capture so the line always reaches the console
    msg = f"acceptance [{name}]: {'PASS' if ok else 'FAIL'} — {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(msg)
    else:
        print(msg)


def test_01_gbm_exit_probability():
    # mu = 3 alpha^2 / 8, R = 16: exact hit probability 1/2
    p = an.GBMParams(mu=3.0 / 8.0, alpha=1.0, x0=1.0, R=16.0)
    t0 = time.perf_counter()
    est = an.gbm_exit_mc(p, T=200.0, dt=1e-2, n_paths=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = 0.47 <= est.p_hit <= 0.53 and elapsed < 60.0
    _verdict("gbm exit probability", ok,
             f"p_hit={est.p_hit:.5f} target [0.47, 0.53], {elapsed:.1f}s")
    assert 0.47 <= est.p_hit <= 0.53
    assert elapsed < 60.0


def test_02_transform_equivalence_refinement():
    # martingale-transform solution vs direct Euler-Maruyama on a shared
    # Brownian path: discrepancy shrinks by ~2 per dt halving
    res = checks.transform_equivalence_check()
    ok = all(1.4 <= r <= 2.6 for r in res.ratios)
    _verdict("transform equivalence", ok,
             f"refinement ratios {['%.3f' % r for r in res.ratios]} "
             f"target [1.4, 2.6]")
    assert ok, res.ratios


def test_03_vorticity_sup_norm_decay():
    # damped 2D vorticity: sup-norm under the exp(-alpha^2 t/2) envelope
    res = checks.vorticity_decay_check(n=128, alpha=2.0, T=1.0)
    ok = res.max_excess <= 1.02
    _verdict("2d vorticity decay", ok,
             f"max envelope excess {res.max_excess:.4f} target <= 1.02")
    assert ok, res.max_excess


def test_04_deterministic_conservation():
    res = checks.conservation_check(n=64, T=1.0)
    ok = res.energy_drift < 1e-8 and res.enstrophy_l4_drift < 1e-3
    _verdict("deterministic conservation", ok,
             f"energy drift {res.energy_drift:.2e} (< 1e-8), "
             f"vorticity L4 drift {res.enstrophy_l4_drift:.2e} (< 1e-3)")
    assert res.energy_drift < 1e-8
    assert res.enstrophy_l4_drift < 1e-3


def test_05_worst_case_ode_sweep():
    # equality ODE from threshold initial data stays under alpha^2/(8 R Cbar)
    failures = []
    for R in (1.0, 2.0, 4.0):
        for a2 in (1.0, 4.0, 16.0):
            alpha = float(np.sqrt(a2))
            kk = an.kappa_K(R, alpha)
            params = an.OdeLemmaParams(R=R, alpha=alpha, y0=1.0,
                                       z_tag="extremal",
                                       log_y0=kk.log_kappa)
            res = an.ode_bound_check(params)
            if not res.bound_satisfied:
                failures.append((R, a2, res.margin))
    ok = not failures
    _verdict("worst-case ode sweep", ok,
             "all 9 cells bounded" if ok else f"violations: {failures}")
    assert ok, failures


def test_06_threshold_formula_properties():
    k_ok = all(an.kappa_K(float(R), float(np.sqrt(a2))).log_K >= np.log(2.0)
               for R in np.linspace(1.0, 10.0, 20)
               for a2 in np.logspace(-2.0, 2.0, 20))
    up = [an.kappa_K(1.0, float(np.sqrt(a2))).log_kappa
          for a2 in (1.0, 10.0, 100.0, 1000.0, 10000.0)]
    inc_ok = all(up[i] < up[i + 1] for i in range(len(up) - 1))
    down = [an.kappa_K(R, 1.0).log_kappa for R in (1.0, 2.0, 4.0, 8.0)]
    dec_ok = all(down[i] > down[i + 1] for i in range(len(down) - 1))
    ok = k_ok and inc_ok and dec_ok
    _verdict("threshold formulas", ok,
             f"K>=2 grid {k_ok}, kappa increasing in alpha^2 {inc_ok}, "
             f"decreasing in R {dec_ok}")
    assert ok


def test_07_spectral_core_properties():
    problems = []
    g = sp.Grid(2, 32)
    rng = np.random.default_rng(0)
    u = sp.dealias(sp.random_divergence_free(g, rng))
    raw = sp.SpectralField.from_physical(g, rng.standard_normal((2,) + g.shape))
    pu = sp.leray_project(raw)
    if sp.l2_norm(sp.leray_project(pu) - pu) > 1e-12 * sp.l2_norm(raw):
        problems.append("projection idempotence")
    if abs(sp.l2_inner(pu, raw - pu)) > 1e-12 * sp.l2_norm(raw) ** 2:
        problems.append("projection orthogonality")
    if abs(sp.l2_inner(sp.nonlinear_term(u), u)) > 1e-12 * sp.l2_norm(u) ** 3:
        problems.append("advection cancellation")
    if abs(sp.l2_norm(u) - sp.lp_norm(u, 2.0)) > 1e-12 * sp.l2_norm(u):
        problems.append("Parseval")
    g8 = sp.Grid(2, 8)
    tg = sp.dealias(sp.taylor_green(g8))
    gap = np.max(np.abs(sp.nonlinear_term(tg).coeffs
                        - _convolution_oracle(tg).coeffs))
    if gap > 1e-10:
        problems.append(f"dense convolution oracle (gap {gap:.1e})")
    moll = checks.mollifier_check()
    if not (moll.uniform_bound_ok and moll.gain_bounded
            and moll.convergence_monotone and moll.converged_to_zero):
        problems.append("mollifier properties")
    ok = not problems
    _verdict("spectral core properties", ok,
             "projection/cancellation/Parseval/convolution/mollifier all "
             "within tolerance" if ok else f"failed: {problems}")
    assert ok, problems


def test_08_log_gronwall_identities():
    bad = []
    for x in (1.0, 2.0, 5.0, 10.0, 100.0):
        v = an.log_gronwall_functions(x)
        if abs(v.Phi_prime * (x * v.zeta + 1.0) - v.Phi) > 1e-9:
            bad.append(("identity", x))
        h = 1e-4
        if x - h >= 1.0:
            fd = (an.log_gronwall_functions(x + h).Phi
                  - an.log_gronwall_functions(x - h).Phi) / (2.0 * h)
        else:
            # second-order one-sided stencil at the domain boundary
            fd = (-3.0 * v.Phi
                  + 4.0 * an.log_gronwall_functions(x + h).Phi
                  - an.log_gronwall_functions(x + 2.0 * h).Phi) / (2.0 * h)
        if abs(fd - v.Phi_prime) > 1e-6:
            bad.append(("fd", x))
    ok = not bad
    _verdict("log-gronwall identities", ok,
             "derivative identity at 1e-9 and FD agreement at 1e-6"
             if ok else f"failed: {bad}")
    assert ok, bad


def test_09_ensemble_reproducibility(tmp_path):
    g = sp.Grid(2, 32)
    traj = dyn.TrajectoryConfig(
        u0=0.5 * sp.taylor_green(g),
        model=noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=1.0),
        noise_seed=0, T=0.1, dt=5e-3, integrator="em")
    blobs = {}
    t0 = time.perf_counter()
    for width in (1, 8):
        cfg = ens.EnsembleConfig(trajectory=traj, n_paths=100,
                                 master_seed=12345, parallel_width=width)
        out = tmp_path / f"summary_{width}.json"
        ens.persist_summary(ens.run_ensemble(cfg), str(out))
        blobs[width] = out.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = blobs[1] == blobs[8]
    _verdict("ensemble reproducibility", ok,
             f"summary.json byte-identical across parallel widths 1 and 8 "
             f"({elapsed:.1f}s)" if ok else "summaries differ")
    assert ok
    assert elapsed < 60.0


def test_10_noise_lipschitz_hypotheses():
    # the global results need sigma globally Lipschitz in the run norm
    # W^{3,2}: alpha u has constant |alpha|, additive noise constant 0
    g = sp.Grid(2, 16)
    rng = np.random.default_rng(0)
    alpha = 1.5
    linear = noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=alpha)
    additive = noise.NoiseModel(
        noise.ADDITIVE, sigma_fields=noise.spectrum_sigma_fields(g, 2, 2.0,
                                                                 seed=1))
    gaps = []
    for _ in range(3):
        u = sp.random_divergence_free(g, rng)
        v = sp.random_divergence_free(g, rng)
        gaps.append(abs(noise.lipschitz_probe(linear, u, v, 3, 2.0) - alpha))
        gaps.append(noise.lipschitz_probe(additive, u, v, 3, 2.0))
    ok = max(gaps) < 1e-10
    _verdict("noise lipschitz hypotheses", ok,
             f"max gap to |alpha| (linear) and 0 (additive) {max(gaps):.1e} "
             f"target < 1e-10")
    assert ok, gaps
