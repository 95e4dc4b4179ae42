"""Exit probabilities, threshold formulas, the worst-case ODE."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from stocheuler import analysis as an
from stocheuler.errors import DomainError, InvalidParams, StiffnessFailure


# ---------------------------------------------------------------------------
# Wilson interval


def test_wilson_interval_basic_properties():
    lo, hi = an.wilson_interval(50, 100)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    assert isinstance(lo, float) and isinstance(hi, float)
    # degenerate counts stay inside [0, 1]
    lo0, hi0 = an.wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 < 0.1
    lo1, hi1 = an.wilson_interval(100, 100)
    assert hi1 == 1.0 and lo1 > 0.9
    with pytest.raises(InvalidParams):
        an.wilson_interval(0, 0)


def _wilson_oracle(k, n, confidence):
    """The Wilson score interval with z from scipy.stats."""
    from scipy.stats import norm

    z = float(norm.ppf(0.5 + confidence / 2.0))
    phat = k / n
    denom = 1.0 + z ** 2 / n
    center = (phat + z ** 2 / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z ** 2 / (4 * n ** 2))
    return (float(max(0.0, center - half)), float(min(1.0, center + half)))


@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
@pytest.mark.parametrize("n", [1, 7, 100, 10 ** 5])
def test_wilson_interval_equals_the_stats_quantile_formula(n, confidence):
    # z from scipy.special.ndtri is scipy.stats.norm.ppf's, bit for bit, so
    # every summary.json and gbm-exit interval stays byte-identical
    for k in sorted({0, 1, n // 2, n - 1, n}):
        assert (an.wilson_interval(k, n, confidence)
                == _wilson_oracle(k, n, confidence)), k


@pytest.mark.parametrize("successes, n, confidence", [
    pytest.param(5, 3, 0.99, id="successes-above-n"),
    pytest.param(-1, 3, 0.99, id="successes-negative"),
    pytest.param(2.5, 3, 0.99, id="successes-fractional"),
    pytest.param(2, 3, 1.0, id="confidence-1"),
    pytest.param(2, 3, 1.5, id="confidence-above-1"),
    pytest.param(2, 3, 0.0, id="confidence-0"),
    pytest.param(2, 3, float("nan"), id="confidence-nan"),
])
def test_wilson_interval_rejects_bad_input(successes, n, confidence):
    with pytest.raises(InvalidParams):
        an.wilson_interval(successes, n, confidence)


def test_wilson_interval_takes_numpy_integers():
    assert (an.wilson_interval(np.int64(3), 10)
            == an.wilson_interval(3, 10))


def test_wilson_interval_narrows_with_n():
    w_small = np.diff(an.wilson_interval(50, 100))[0]
    w_large = np.diff(an.wilson_interval(5000, 10000))[0]
    assert w_large < w_small / 5


def test_wilson_interval_covers_true_p():
    # 50 repeated binomial experiments at 99% confidence: at most a couple
    # of misses expected
    rng = np.random.default_rng(0)
    p_true, n = 0.3, 500
    misses = 0
    for _ in range(50):
        k = rng.binomial(n, p_true)
        lo, hi = an.wilson_interval(int(k), n)
        if not (lo <= p_true <= hi):
            misses += 1
    assert misses <= 3


# ---------------------------------------------------------------------------
# GBM exit bound


def test_gbm_params_validation():
    with pytest.raises(InvalidParams):
        an.GBMParams(mu=0.0, alpha=0.0)
    with pytest.raises(InvalidParams):
        an.GBMParams(mu=0.0, alpha=1.0, x0=0.0)
    with pytest.raises(InvalidParams):
        an.GBMParams(mu=0.0, alpha=1.0, R=1.0)


@pytest.mark.parametrize("bad, match", [
    ({"mu": -np.inf}, "must not be NaN or infinite"),
    ({"alpha": np.inf}, "must not be NaN or infinite"),
    ({"x0": np.inf}, "must not be NaN or infinite"),
    ({"R": np.inf}, "must not be NaN or infinite"),
    # alpha ** 2 of a float raises OverflowError, and an alpha^2 of 0 made
    # lambda_c divide by zero
    ({"alpha": 1e200}, "alpha\\^2 must be finite"),
    ({"alpha": -1e200}, "alpha\\^2 must be finite"),
    ({"alpha": 1e-200}, "alpha\\^2 must be nonzero"),
])
def test_gbm_params_reject_non_finite_values_and_alpha_squares(bad, match):
    with pytest.raises(InvalidParams, match=match):
        an.GBMParams(**{"mu": -1.0, "alpha": 1.0, "x0": 1.0, "R": 2.0,
                        **bad})


def test_gbm_bound_drift_free_case():
    # mu = 0: critical exponent 1, bound = 1 - x0/R
    p = an.GBMParams(mu=0.0, alpha=1.0, x0=1.0, R=4.0)
    assert p.lambda_c == pytest.approx(1.0)
    assert an.gbm_survival_bound(p) == pytest.approx(0.75)


def test_gbm_bound_critical_quarter_exponent():
    # mu = 3 alpha^2 / 8: exponent 1/4, R = 16 gives bound exactly 1/2
    p = an.GBMParams(mu=3.0 / 8.0, alpha=1.0, x0=1.0, R=16.0)
    assert p.lambda_c == pytest.approx(0.25)
    assert an.gbm_survival_bound(p) == pytest.approx(0.5)


def test_gbm_bound_tends_to_one_for_large_R():
    vals = [an.gbm_survival_bound(
        an.GBMParams(mu=0.1, alpha=1.0, x0=1.0, R=R))
        for R in (10.0, 100.0, 1000.0)]
    assert vals[0] < vals[1] < vals[2] < 1.0
    assert vals[2] > 0.995


def test_gbm_bound_rejects_supercritical_drift():
    p = an.GBMParams(mu=0.5, alpha=1.0, R=4.0)
    with pytest.raises(InvalidParams):
        an.gbm_survival_bound(p)
    with pytest.raises(InvalidParams):
        an.gbm_survival_bound(an.GBMParams(mu=0.0, alpha=1.0, x0=8.0, R=2.0))


# ---------------------------------------------------------------------------
# GBM Monte Carlo


def test_gbm_mc_hits_everything_when_started_at_level():
    p = an.GBMParams(mu=0.0, alpha=1.0, x0=4.0, R=2.0)
    est = an.gbm_exit_mc(p, T=1.0, dt=0.1, n_paths=50)
    assert est.p_hit == 1.0
    assert np.array_equal(est.hit_times, np.zeros(50))


def test_gbm_mc_validates_inputs():
    p = an.GBMParams(mu=0.0, alpha=1.0, R=2.0)
    with pytest.raises(InvalidParams):
        an.gbm_exit_mc(p, T=0.0, dt=0.1, n_paths=10)


def test_gbm_mc_is_deterministic_for_fixed_seed():
    p = an.GBMParams(mu=0.0, alpha=1.0, R=2.0)
    a = an.gbm_exit_mc(p, T=1.0, dt=0.01, n_paths=2000, seed=3)
    b = an.gbm_exit_mc(p, T=1.0, dt=0.01, n_paths=2000, seed=3)
    assert a.n_hit == b.n_hit
    assert np.array_equal(a.hit_times, b.hit_times)


@pytest.mark.parametrize("layout", [None, (512, 7)])
def test_gbm_mc_tiles_do_not_change_the_draws(monkeypatch, layout):
    # a tile continues its block's stream, so any tile size (here 1 row,
    # 7 rows and the default) leaves every hit time where it was
    if layout:
        monkeypatch.setattr(an, "PATH_CHUNK", layout[0])
        monkeypatch.setattr(an, "TIME_BLOCK", layout[1])
    p = an.GBMParams(mu=0.375, alpha=1.0, R=4.0)
    T, dt = 3.0, 0.01
    row_bytes = 8 * min(an.TIME_BLOCK, an.n_time_steps(T, dt))
    runs = []
    for tile_bytes in (1, 7 * row_bytes, an.TILE_BYTES):
        monkeypatch.setattr(an, "TILE_BYTES", tile_bytes)
        runs.append(an.gbm_exit_mc(p, T=T, dt=dt, n_paths=1500, seed=8))
    assert runs[0].n_hit > 0
    for est in runs[1:]:
        assert np.array_equal(est.hit_times, runs[0].hit_times)


def test_gbm_mc_memory_does_not_grow_with_the_block(monkeypatch):
    # one (paths, block) array is 8 MiB here; the tiles keep the peak to
    # the TILE_BYTES buffer and a few path-sized vectors
    monkeypatch.setattr(an, "PATH_CHUNK", 4096)
    monkeypatch.setattr(an, "TIME_BLOCK", 256)
    p = an.GBMParams(mu=0.0, alpha=1.0, R=1e6)
    tracemalloc.start()
    try:
        est = an.gbm_exit_mc(p, T=5.12, dt=0.01, n_paths=4096, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.n_hit == 0
    assert peak < 2 * 2 ** 20


def test_gbm_mc_consistent_with_analytic_bound():
    # survival estimate must not sit significantly below the analytic
    # lower bound on P(never hit)
    p = an.GBMParams(mu=3.0 / 8.0, alpha=1.0, x0=1.0, R=16.0)
    bound = an.gbm_survival_bound(p)
    est = an.gbm_exit_mc(p, T=50.0, dt=0.01, n_paths=5000, seed=1)
    survival_hi = 1.0 - est.wilson_99[0]
    assert survival_hi >= bound
    assert est.wilson_99[0] <= est.p_hit <= est.wilson_99[1]


def test_gbm_mc_chunking_agrees_statistically(monkeypatch):
    # different chunk layouts consume different draws but simulate the same
    # law; the two estimates must fall inside each other's 99% intervals
    p = an.GBMParams(mu=0.0, alpha=1.0, R=2.0)
    monkeypatch.setattr(an, "PATH_CHUNK", 4000)
    a = an.gbm_exit_mc(p, T=1.0, dt=0.01, n_paths=4000, seed=9)
    monkeypatch.setattr(an, "PATH_CHUNK", 512)
    monkeypatch.setattr(an, "TIME_BLOCK", 7)
    b = an.gbm_exit_mc(p, T=1.0, dt=0.01, n_paths=4000, seed=9)
    assert a.wilson_99[0] <= b.p_hit <= a.wilson_99[1]
    assert b.wilson_99[0] <= a.p_hit <= b.wilson_99[1]


@pytest.mark.parametrize("layout, n_hit", [(None, 978), ((512, 7), 983)])
def test_gbm_mc_golden_hit_count_and_grid_hit_times(monkeypatch, layout,
                                                    n_hit):
    # n_hit was recorded when the draws moved from Philox to SFC64: the
    # draws of a seed, and so its n_hit, must not change
    if layout:
        monkeypatch.setattr(an, "PATH_CHUNK", layout[0])
        monkeypatch.setattr(an, "TIME_BLOCK", layout[1])
    p = an.GBMParams(mu=0.375, alpha=1.0, R=4.0)
    T, dt = 3.0, 0.01
    est = an.gbm_exit_mc(p, T=T, dt=dt, n_paths=3000, seed=8)
    assert est.n_hit == n_hit
    assert est.hit_times.shape == (3000,)
    finite = np.isfinite(est.hit_times)
    assert np.all(est.hit_times[~finite] == np.inf)
    hit = est.hit_times[finite]
    assert hit.size == n_hit
    assert np.all((hit > 0.0) & (hit <= T + 1e-12))
    k = hit / dt
    assert np.max(np.abs(k - np.round(k))) < 1e-9


@pytest.mark.parametrize("layout", [None, (512, 7)])
def test_gbm_mc_hit_time_is_the_first_grid_crossing(monkeypatch, layout):
    # alpha ~ 0 leaves log x = t on the grid, which first reaches log 2 at
    # k dt = 0.70 (0.69 < log 2 = 0.6931...)
    if layout:
        monkeypatch.setattr(an, "PATH_CHUNK", layout[0])
        monkeypatch.setattr(an, "TIME_BLOCK", layout[1])
    p = an.GBMParams(mu=1.0, alpha=1e-9, R=2.0)
    est = an.gbm_exit_mc(p, T=1.0, dt=0.01, n_paths=600, seed=4)
    assert est.n_hit == 600
    assert np.allclose(est.hit_times, 0.70, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Logarithmic Gronwall functions


def test_log_gronwall_base_point():
    v = an.log_gronwall_functions(1.0)
    assert v.zeta == pytest.approx(1.0)
    assert v.Phi == pytest.approx(np.exp(v.Psi))
    with pytest.raises(DomainError):
        an.log_gronwall_functions(0.5)


def test_log_gronwall_values_unchanged():
    # pinned with ==: the quadrature is imported inside the call
    v = an.log_gronwall_functions(2.0)
    assert (v.zeta, v.Psi, v.Phi, v.Phi_prime, v.Phi_double_prime) == (
        1.6931471805599454, 1.1959189282766547, 3.306594898388175,
        0.7538470121152445, -0.290991401409409)


@pytest.mark.parametrize("x", [1.0, 2.0, 5.0, 10.0, 100.0])
def test_log_gronwall_derivative_identity(x):
    v = an.log_gronwall_functions(x)
    assert abs(v.Phi_prime * (x * v.zeta + 1.0) - v.Phi) < 1e-9
    assert v.Phi_prime > 0.0
    assert v.Phi_double_prime < 0.0


def test_log_gronwall_fd_oracle():
    h = 1e-4
    x = 5.0
    v = an.log_gronwall_functions(x)
    fd = (an.log_gronwall_functions(x + h).Phi
          - an.log_gronwall_functions(x - h).Phi) / (2.0 * h)
    assert abs(fd - v.Phi_prime) < 1e-6
    fd2 = (an.log_gronwall_functions(x + h).Phi_prime
           - an.log_gronwall_functions(x - h).Phi_prime) / (2.0 * h)
    assert abs(fd2 - v.Phi_double_prime) < 1e-6


# ---------------------------------------------------------------------------
# kappa / K thresholds


def _mpmath_log_K(R, alpha, Cbar, factor=4.0):
    with mpmath.workdps(60):
        R, alpha, Cbar = mpmath.mpf(R), mpmath.mpf(alpha), mpmath.mpf(Cbar)
        a2 = alpha ** 2
        DR = mpmath.exp(factor * Cbar * R)
        power = 1 - 1 / (8 * (DR - 1))
        poly = 1 + (a2 / (8 * Cbar)) ** power
        log_K = (mpmath.log(2 * R) + mpmath.log(poly)
                 + 8 * Cbar * R * DR * (Cbar + a2) / a2)
        return float(log_K)


@pytest.mark.parametrize("R,alpha,Cbar", [
    (1.0, 1.0, 1.0), (2.0, 0.5, 1.0), (4.0, 3.0, 2.0), (1.0, 10.0, 1.0),
])
def test_kappa_K_matches_high_precision_oracle(R, alpha, Cbar):
    kk = an.kappa_K(R, alpha, Cbar)
    want = _mpmath_log_K(R, alpha, Cbar)
    assert abs(kk.log_K - want) < 1e-10 * max(1.0, abs(want))
    assert kk.log_kappa == pytest.approx(
        np.log(alpha ** 2 / (2 * Cbar)) - kk.log_K)


def test_kappa_K_validation():
    with pytest.raises(InvalidParams):
        an.kappa_K(0.5, 1.0)
    with pytest.raises(InvalidParams):
        an.kappa_K(1.0, 0.0)
    with pytest.raises(InvalidParams):
        an.kappa_K(1.0, 1.0, Cbar=0.5)
    # alpha^2 overflows (alpha ** 2 of a float raises OverflowError)
    for alpha in (1e200, -1e200, np.inf):
        with pytest.raises(InvalidParams, match="alpha\\^2 must be finite"):
            an.kappa_K(1.0, alpha)
    assert np.isfinite(an.kappa_K(1.0, 1e150).log_K)


def test_K_at_least_two_on_grid():
    for R in np.linspace(1.0, 10.0, 20):
        for a2 in np.logspace(-2.0, 2.0, 20):
            kk = an.kappa_K(float(R), float(np.sqrt(a2)))
            assert kk.log_K >= np.log(2.0)


def test_kappa_monotone_in_alpha_and_R():
    # increasing in alpha^2 at R = 1...
    logs = [an.kappa_K(1.0, float(np.sqrt(a2))).log_kappa
            for a2 in (1.0, 10.0, 100.0, 1000.0, 10000.0)]
    assert all(logs[i] < logs[i + 1] for i in range(len(logs) - 1))
    # ...and decreasing in R at alpha = 1
    logs = [an.kappa_K(R, 1.0).log_kappa for R in (1.0, 2.0, 4.0, 8.0)]
    assert all(logs[i] > logs[i + 1] for i in range(len(logs) - 1))
    # K itself grows with R
    logK = [an.kappa_K(R, 1.0).log_K for R in (1.0, 2.0, 4.0, 8.0)]
    assert all(logK[i] < logK[i + 1] for i in range(len(logK) - 1))


def test_kappa_small_alpha_limit_and_underflow_flag():
    logs = [an.kappa_K(1.0, float(np.sqrt(10.0 ** -j))).log_kappa
            for j in range(0, 5)]
    assert all(logs[i] > logs[i + 1] for i in range(len(logs) - 1))
    kk = an.kappa_K(4.0, 1.0)  # deep underflow territory
    assert kk.kappa == 0.0
    assert kk.kappa_underflow
    assert np.isfinite(kk.log_kappa)


# ---------------------------------------------------------------------------
# Worst-case ODE


def test_ode_params_validation():
    with pytest.raises(InvalidParams):
        an.OdeLemmaParams(R=0.5, alpha=1.0)
    with pytest.raises(InvalidParams):
        an.OdeLemmaParams(R=1.0, alpha=1.0, y0=0.0)
    with pytest.raises(InvalidParams):
        an.OdeLemmaParams(R=1.0, alpha=1.0, z_tag="bogus")
    # log_y0 override makes a nonpositive y0 moot
    p = an.OdeLemmaParams(R=1.0, alpha=1.0, y0=-1.0, log_y0=-900.0)
    assert p.log_y0_value == -900.0


def test_ode_separable_closed_form_with_zero_z():
    # z = 0: Y(t) = Y0 + Cbar R (Cbar + a2) (8/a2)(1 - e^{-a2 t/8})
    p = an.OdeLemmaParams(R=1.0, alpha=2.0, Cbar=1.0, y0=1e-6, z_tag="zero")
    res = an.ode_bound_check(p)
    a2 = 4.0
    total = np.log(1e-6) + 1.0 * 1.0 * (1.0 + a2) * (8.0 / a2)
    # infinite-horizon closed form; the computed trajectory approaches it
    assert abs(res.log_y[-1] - total
               + 1.0 * (1.0 + a2) * (8.0 / a2)
               * np.exp(-a2 * res.times[-1] / 8.0)) < 1e-6
    assert res.bound_satisfied


def test_ode_tiny_initial_data_is_trivially_bounded():
    p = an.OdeLemmaParams(R=1.0, alpha=1.0, y0=1e-30)
    res = an.ode_bound_check(p)
    assert res.bound_satisfied
    assert res.margin > 0.0


def test_ode_extremal_sweep_cells():
    for R in (1.0, 2.0, 4.0):
        for a2 in (1.0, 4.0, 16.0):
            alpha = float(np.sqrt(a2))
            kk = an.kappa_K(R, alpha)
            p = an.OdeLemmaParams(R=R, alpha=alpha, y0=1.0,
                                  z_tag="extremal", log_y0=kk.log_kappa)
            res = an.ode_bound_check(p)
            assert res.bound_satisfied, (R, a2, res.margin)


def test_ode_large_initial_data_violates_bound():
    # starting far above the ceiling demonstrates non-applicability
    p = an.OdeLemmaParams(R=1.0, alpha=1.0, y0=10.0, z_tag="extremal")
    res = an.ode_bound_check(p)
    assert not res.bound_satisfied
    assert res.margin < 0.0


def test_ode_underflowed_y_reported_as_zero_without_warnings():
    kk = an.kappa_K(2.0, 1.0)
    p = an.OdeLemmaParams(R=2.0, alpha=1.0, y0=1.0, log_y0=kk.log_kappa)
    res = an.ode_bound_check(p)
    assert np.all(res.y == 0.0)  # exp of log values near -3000
    assert np.all(np.isfinite(res.log_y))
