"""Cross-formulation consistency checks shared by the CLI and the tests.

These run the quantitative experiments that the package exists to exhibit:
the exponential-martingale transform equivalence under time refinement, the
transformed 2D vorticity decay, and the numeric smoothing-operator
properties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (SimState, step_em, step_rk4, step_transformed,
                       step_vorticity_2d)
from .errors import InvalidParams
from .noise import LINEAR_MULTIPLICATIVE, NoiseModel, zero_noise
from .spectral import (Grid, NormRequest, SpectralField, curl, dealias,
                       l2_norm, leray_project, lp_norm, mollify,
                       random_divergence_free, sobolev_norm, taylor_green)


# ---------------------------------------------------------------------------
# Transform equivalence under refinement


def _path(step, u0: SpectralField, dt: float, increments: np.ndarray,
          alpha: float) -> SimState:
    """Run a stepper over the given scalar increments of the
    linear-multiplicative noise alpha u dW."""
    model = NoiseModel(LINEAR_MULTIPLICATIVE, alpha=alpha)
    state = SimState(0.0, u0.copy())
    for dW in increments:
        state = step(state, dt, model, np.array([dW]))
    return state


@dataclass
class TransformCheckResult:
    dts: list[float]
    errors: list[float]
    ratios: list[float]


def transform_equivalence_check(n: int = 64, alpha: float = 1.0,
                                T: float = 0.5,
                                dts: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3),
                                seed: int = 67) -> TransformCheckResult:
    """L^2 discrepancy between the Euler-Maruyama velocity and
    exp(alpha W_t) times the transformed solution, on one shared Brownian
    path, across a dt refinement ladder.

    The finest-level increments are generated once and aggregated for the
    coarser levels, so every level sees the same Brownian path.  That needs
    every dt to be a whole multiple of the finest and to divide T, and a
    ratio needs two dts; any other ladder, or an n that Grid rejects, is
    InvalidParams.
    """
    try:
        grid = Grid(2, n)
    except ValueError as exc:
        raise InvalidParams(str(exc)) from None
    if len(dts) < 2 or min(dts) <= 0 or T <= 0:
        raise InvalidParams("need T > 0 and at least two dts, all positive")
    dt_fine = min(dts)
    n_fine = int(round(T / dt_fine))
    steps = [int(round(dt / dt_fine)) for dt in dts]
    if not (np.isclose(n_fine * dt_fine, T, rtol=1e-9, atol=0.0)
            and all(np.isclose(k * dt_fine, dt, rtol=1e-9, atol=0.0)
                    and n_fine % k == 0 for k, dt in zip(steps, dts))):
        raise InvalidParams(f"every dt in {list(dts)} must be a whole "
                            f"multiple of the finest dt and divide T={T}")
    u0 = taylor_green(grid)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    fine = np.sqrt(dt_fine) * gen.standard_normal(n_fine)
    errors = []
    for dt, ratio in zip(dts, steps):
        incr = fine.reshape(-1, ratio).sum(axis=1)
        u_em = _path(step_em, u0, dt, incr, alpha).u
        tr = _path(step_transformed, u0, dt, incr, alpha)
        u_from_v = float(np.exp(alpha * tr.W_accum)) * tr.u
        errors.append(l2_norm(u_em - u_from_v))
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
    """Transformed 2D vorticity run: sup|w(t)| against ||w0||_inf e^{-a^2 t/2}.

    gamma(t) follows a simulated Brownian path; it only rescales the
    transport speed and cannot break the sup-norm decay.  The initial data
    is a perturbed Taylor-Green vortex (pure Taylor-Green is steady and
    would make the transport trivial).
    """
    grid = Grid(2, n)
    rng = np.random.default_rng(seed)
    u0 = leray_project(dealias(
        taylor_green(grid)
        + perturbation * random_divergence_free(grid, rng)))
    w = curl(u0)
    w0_inf = lp_norm(w, np.inf)
    n_steps = int(round(T / dt))
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    dW = np.sqrt(dt) * gen.standard_normal(n_steps)
    W = 0.0
    times, sup_w, env = [0.0], [w0_inf], [w0_inf]
    for i in range(n_steps):
        gamma = float(np.exp(-alpha * W))
        w = step_vorticity_2d(w, dt, alpha=alpha, gamma=gamma)
        W += float(dW[i])
        if (i + 1) % sample_every == 0 or i == n_steps - 1:
            t = (i + 1) * dt
            times.append(t)
            sup_w.append(lp_norm(w, np.inf))
            env.append(w0_inf * float(np.exp(-alpha ** 2 * t / 2.0)))
    excess = max(s / e for s, e in zip(sup_w, env))
    return VorticityDecayResult(times, sup_w, env, excess)


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
    u = dealias(leray_project(
        taylor_green(grid)
        + perturbation * random_divergence_free(grid, rng)))

    e0 = l2_norm(u) ** 2
    w4_0 = lp_norm(curl(u), 4.0)
    state, model = SimState(0.0, u), zero_noise()
    for _ in range(int(round(T / dt))):
        state = step_rk4(state, dt, model, np.zeros(0))
    u = state.u
    e1 = l2_norm(u) ** 2
    w4_1 = lp_norm(curl(u), 4.0)
    return ConservationResult(abs(e1 - e0) / e0, abs(w4_1 - w4_0) / w4_0)
