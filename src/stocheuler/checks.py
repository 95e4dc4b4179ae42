"""Cross-formulation consistency checks shared by the CLI and the tests.

These run the quantitative experiments that the package exists to exhibit:
the exponential-martingale transform equivalence under time refinement, the
transformed 2D vorticity decay, the numeric smoothing-operator properties
and deterministic conservation.  Each PDE check runs one path through the
trajectory driver, dynamics.integrate_trajectory, on increments of its own
(_run), and reads the path's samples and last state u: a check that needs
v = gamma u forms it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _step_ratio, n_time_steps, squared_alpha
from .dynamics import (EM, RK4, TRANSFORMED, TrajectoryConfig,
                       TrajectoryDiagnostics, integrate_trajectory)
from .errors import InvalidParams, NonFinite
from .noise import LINEAR_MULTIPLICATIVE, NoiseModel, zero_noise
from .spectral import (Grid, NormRequest, curl, l2_norm, lp_norm, mollify,
                       random_divergence_free, sobolev_norm, taylor_green)


def _run(increments: np.ndarray, **cfg) -> TrajectoryDiagnostics:
    """One path of TrajectoryConfig(**cfg), sampled at 0 and T unless cfg
    says otherwise, on the increments (steps, K); a path that blows up or
    fails raises, as its stepper did."""
    cfg.setdefault("sample_every", len(increments))
    diag, = integrate_trajectory(TrajectoryConfig(**cfg), (0,),
                                 increments[None])
    if diag.failure is not None:
        raise diag.failure
    if diag.blow_up_flag:
        raise NonFinite(f"the path blew up at t={diag.final_time}")
    return diag


# ---------------------------------------------------------------------------
# Transform equivalence under refinement


@dataclass
class TransformCheckResult:
    dts: list[float]
    errors: list[float]
    ratios: list[float]


# the finest level's steps at most: its increments are drawn at once
MAX_FINE_STEPS = 10 ** 6


def transform_equivalence_check(n: int = 64, alpha: float = 1.0,
                                T: float = 0.5,
                                dts: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3),
                                seed: int = 67) -> TransformCheckResult:
    """L^2 discrepancy between the Euler-Maruyama and the transformed
    integrators' velocities u, on one shared Brownian path, across a dt
    refinement ladder.

    The finest-level increments are generated once and aggregated for the
    coarser levels, so every level sees the same Brownian path.  That needs
    every dt to be a whole multiple of the finest and to divide T, and a
    ratio needs two dts; any other ladder, a finest level of more than
    MAX_FINE_STEPS steps, or an n that Grid rejects, is InvalidParams.
    """
    try:
        grid = Grid(2, n)
    except ValueError as exc:
        raise InvalidParams(str(exc)) from None
    if len(dts) < 2 or not all(0 < x < np.inf for x in (T, *dts)):
        raise InvalidParams("need T > 0 and at least two dts > 0, all finite")
    if not np.isfinite(alpha):
        raise InvalidParams(f"alpha must be finite, got {alpha}")
    squared_alpha(alpha, nonzero=False)
    dt_fine = min(dts)
    if (ratio := _step_ratio(T, dt_fine)) > MAX_FINE_STEPS:
        raise InvalidParams(f"T={T} / dt={dt_fine} is {ratio:.3g} fine "
                            f"steps, more than {MAX_FINE_STEPS}")
    n_fine = int(round(ratio))
    steps = [int(round(_step_ratio(dt, dt_fine))) for dt in dts]
    if not (np.isclose(n_fine * dt_fine, T, rtol=1e-9, atol=0.0)
            and all(np.isclose(k * dt_fine, dt, rtol=1e-9, atol=0.0)
                    and n_fine % k == 0 for k, dt in zip(steps, dts))):
        raise InvalidParams(f"every dt in {list(dts)} must be a whole "
                            f"multiple of the finest dt and divide T={T}")
    u0 = taylor_green(grid)
    model = NoiseModel(LINEAR_MULTIPLICATIVE, alpha=alpha)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    fine = np.sqrt(dt_fine) * gen.standard_normal(n_fine)
    errors = []
    for dt, ratio in zip(dts, steps):
        incr = fine.reshape(-1, ratio, 1).sum(axis=1)
        em, tr = (_run(incr, u0=u0, model=model, T=T, dt=dt,
                       integrator=kind).final_u for kind in (EM, TRANSFORMED))
        errors.append(l2_norm(em - tr))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return TransformCheckResult(list(dts), errors, ratios)


# ---------------------------------------------------------------------------
# Transformed 2D vorticity decay


@dataclass
class VorticityDecayResult:
    times: list[float]
    sup_w: list[float]
    envelope: list[float]
    max_excess: float  # max over samples of sup_w / envelope


def vorticity_decay_check(n: int = 128, alpha: float = 2.0, T: float = 1.0,
                          dt: float = 5e-3, seed: int = 3,
                          perturbation: float = 0.3,
                          sample_every: int = 10) -> VorticityDecayResult:
    """2D step_transformed run: sup|curl v(t)| against ||w0||_inf e^{-a^2 t/2}.

    gamma(t) follows a simulated Brownian path; it only rescales the
    transport speed and cannot break the sup-norm decay.  The state holds
    u, and sup|curl v| = gamma sup|curl u|.  The initial data
    is a perturbed Taylor-Green vortex (pure Taylor-Green is steady and
    would make the transport trivial).
    """
    grid = Grid(2, n)
    rng = np.random.default_rng(seed)
    u0 = taylor_green(grid) + perturbation * random_divergence_free(grid, rng)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    dW = np.sqrt(dt) * gen.standard_normal((n_time_steps(T, dt), 1))
    model = NoiseModel(LINEAR_MULTIPLICATIVE, alpha=alpha)
    diag = _run(dW, u0=u0, model=model, T=T, dt=dt, integrator=TRANSFORMED,
                sample_every=sample_every)
    sup_w = [g * w for g, w in zip(diag.gamma, diag.curl_inf)]
    env = [sup_w[0] * float(np.exp(-alpha ** 2 * t / 2.0))
           for t in diag.times]
    excess = max(s / e for s, e in zip(sup_w, env))
    return VorticityDecayResult(diag.times, sup_w, env, excess)


# ---------------------------------------------------------------------------
# Smoothing-operator numeric properties


@dataclass
class MollifierCheckResult:
    uniform_bound_ok: bool
    derivative_gain_constant: float
    convergence_monotone: bool
    converged_to_zero: bool


def mollifier_check(n: int = 32, m: int = 2, p: float = 2.0,
                    seed: int = 5,
                    gain_limit: float = 2.0) -> MollifierCheckResult:
    """Numeric counterparts of the smoothing-operator lemma:

    (i)  ||F_eps u||_{m,p} <= ||u||_{m,p} uniformly in eps (the multiplier
         never exceeds 1);
    (ii) eps * ||F_eps u||_{m,p} / ||u||_{m-1,p} stays below a calibrated
         constant over eps = 2^-1 .. 2^-10;
    (iii) ||F_eps u - u||_{m,p} decreases monotonically to 0 along
         eps = 2^-j.
    """
    grid = Grid(2, n)
    rng = np.random.default_rng(seed)
    u = random_divergence_free(grid, rng)
    req = NormRequest(m, p)
    req_lower = NormRequest(m - 1, p)
    norm_u = sobolev_norm(u, req)
    norm_lower = sobolev_norm(u, req_lower)

    uniform_ok = all(
        sobolev_norm(mollify(u, eps), req) <= norm_u * (1.0 + 1e-12)
        for eps in (1e-4, 1e-3, 1e-2, 1e-1, 1.0))

    gain = max(eps * sobolev_norm(mollify(u, eps), req) / norm_lower
               for eps in [2.0 ** (-j) for j in range(1, 11)])

    residuals = [sobolev_norm(mollify(u, 2.0 ** (-j)) - u, req)
                 for j in range(0, 21)]
    monotone = all(residuals[i + 1] <= residuals[i] * (1.0 + 1e-12)
                   for i in range(len(residuals) - 1))
    converged = residuals[-1] < 1e-3 * norm_u

    return MollifierCheckResult(uniform_bound_ok=uniform_ok,
                                derivative_gain_constant=float(gain),
                                convergence_monotone=monotone,
                                converged_to_zero=converged and
                                gain <= gain_limit)


# ---------------------------------------------------------------------------
# Conservation of the deterministic scheme


@dataclass
class ConservationResult:
    energy_drift: float  # relative drift of ||u||_2^2
    enstrophy_l4_drift: float  # relative drift of ||w||_4


def conservation_check(n: int = 64, T: float = 1.0, dt: float = 5e-3,
                       perturbation: float = 0.1,
                       seed: int = 7) -> ConservationResult:
    """Zero-noise RK4 run; measures relative drift of the conserved
    quantities ||u||_2^2 and the vorticity L^4 Casimir."""
    grid = Grid(2, n)
    rng = np.random.default_rng(seed)
    u = taylor_green(grid) + perturbation * random_divergence_free(grid, rng)

    e0 = l2_norm(u) ** 2
    w4_0 = lp_norm(curl(u), 4.0)
    u = _run(np.zeros((n_time_steps(T, dt), 0)), u0=u, model=zero_noise(),
             T=T, dt=dt, integrator=RK4).final_u
    e1 = l2_norm(u) ** 2
    w4_1 = lp_norm(curl(u), 4.0)
    return ConservationResult(abs(e1 - e0) / e0, abs(w4_1 - w4_0) / w4_0)
