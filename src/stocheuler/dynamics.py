"""Time integration of the stochastic Euler system and its variants.

Each integrator kind in INTEGRATORS has a stepper step_<kind> with one
contract: step_<kind>(state, dt, model, dW, **options) -> SimState, where dW
holds the step's Wiener increments (the trajectory driver samples them from
BrownianDriver(cfg.noise_seed, cfg.model.n_modes); the checks pass their
own).

A TrajectoryConfig states each run parameter once: the linear-multiplicative
coefficient alpha (noise, gamma = exp(-alpha W), the damping alpha^2/2 and the
gbm_level monitor) is model.alpha, the grid is u0.grid, and the sampled
W^{m,p} order is norms.  A sample whose W^{1,inf} norm reaches BLOWUP_LEVEL
ends the path as a blow-up.

A sample's W^{1,inf} and sup|curl u| come from one physical-space view of
the state (spectral._sup_view): two inverse transforms, u and its gradient
stack, and one sqrt after each max.  step_em and the first RK4 stage read
max|u| for the CFL check from the grid values of u that their flux inverts
anyway, so they transform u once.

* step_em              Euler-Maruyama on the velocity form
* step_rk4             RK4 drift with Euler-Maruyama noise coupling
* step_transformed     damped random PDE for v = gamma * u (exact
                       integrating-factor damping + RK4 transport)

step_vorticity_2d, the transformed 2D scalar vorticity transport, is run by
checks.vorticity_decay_check, not by the trajectory driver.

All steppers return new states; nothing is mutated.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import CflViolation, InvalidParams, NonFinite
from .noise import (LINEAR_MULTIPLICATIVE, BrownianDriver, NoiseModel,
                    apply_noise)
from .spectral import (Grid, NormRequest, ScalarField, SpectralField,
                       _sup_magnitude, _sup_view, biot_savart, curl, dealias,
                       dealias_scalar, l2_norm, leray_project, lp_norm,
                       nonlinear_term, sobolev_norm, w1inf_norm)

# curl and w1inf_norm are not called here, but the benchmark tracer
# (perfbench/tracing.py) patches them on this module by name, so they stay
# public re-exports
__all__ = [
    "EM", "RK4", "TRANSFORMED", "INTEGRATORS", "W1INF_THRESHOLD",
    "SOBOLEV_THRESHOLD", "GBM_LEVEL", "BLOWUP_LEVEL", "StoppingRule",
    "SimState", "TrajectoryDiagnostics", "TrajectoryConfig", "cfl_limit",
    "step_em", "step_rk4", "step_transformed", "step_vorticity_2d",
    "integrate_trajectory", "curl", "w1inf_norm",
]

EM = "em"
RK4 = "rk4"
TRANSFORMED = "transformed"
# integrator kind -> the TrajectoryConfig fields its stepper step_<kind>
# takes as keyword options
INTEGRATORS = {
    EM: ("c_cfl", "enforce_cfl"),
    RK4: ("c_cfl", "enforce_cfl"),
    TRANSFORMED: (),
}

W1INF_THRESHOLD = "w1inf_threshold"
SOBOLEV_THRESHOLD = "sobolev_threshold"
GBM_LEVEL = "gbm_level"

BLOWUP_LEVEL = 1e6


@dataclass(frozen=True)
class StoppingRule:
    """First-hitting rule on a monitored scalar."""

    kind: str
    level: float
    norm_spec: NormRequest | None = None

    def __post_init__(self):
        if self.kind not in (W1INF_THRESHOLD, SOBOLEV_THRESHOLD, GBM_LEVEL):
            raise ValueError(f"unknown stopping rule kind '{self.kind}'")
        if self.level <= 0:
            raise ValueError("stopping level must be positive")


@dataclass
class SimState:
    """One trajectory's integration state."""

    t: float
    u: SpectralField
    gamma: float = 1.0
    W_accum: float = 0.0
    step_index: int = 0


@dataclass
class TrajectoryDiagnostics:
    """Sampled norm series and stopping/blow-up bookkeeping for one path."""

    times: list[float] = field(default_factory=list)
    l2: list[float] = field(default_factory=list)
    wmp: list[float] = field(default_factory=list)
    w1inf: list[float] = field(default_factory=list)
    curl_inf: list[float] = field(default_factory=list)
    gamma: list[float] = field(default_factory=list)
    hits: list[tuple[str, float]] = field(default_factory=list)
    blow_up_flag: bool = False
    final_time: float = 0.0

    COLUMNS = ("t", "l2", "wmp", "w1inf", "curl_inf", "gamma")

    def first_hit(self, kind: str) -> float | None:
        for k, t in self.hits:
            if k == kind:
                return t
        return None

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(self.COLUMNS)
        for row in zip(self.times, self.l2, self.wmp, self.w1inf,
                       self.curl_inf, self.gamma):
            writer.writerow([repr(v) for v in row])

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


@dataclass
class TrajectoryConfig:
    """Everything needed to run one path (immutable per ensemble)."""

    u0: SpectralField
    model: NoiseModel
    T: float
    dt: float
    noise_seed: int = 0  # master seed of the path's BrownianDriver
    integrator: str = EM  # a key of INTEGRATORS
    c_cfl: float = 0.5
    stopping: tuple[StoppingRule, ...] = ()
    sample_every: int = 1
    norms: NormRequest = NormRequest(3, 2)
    enforce_cfl: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise InvalidParams(f"dt must be positive, got {self.dt}")
        if self.sample_every < 1:
            raise InvalidParams(f"sample_every must be >= 1, got "
                                f"{self.sample_every}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator '{self.integrator}' "
                             f"(accepted: {', '.join(INTEGRATORS)})")
        if (self.integrator == TRANSFORMED
                and self.model.kind != LINEAR_MULTIPLICATIVE):
            raise ValueError(f"integrator '{TRANSFORMED}' needs "
                             f"{LINEAR_MULTIPLICATIVE} noise")


# ---------------------------------------------------------------------------
# CFL and sanity helpers


def cfl_limit(u: SpectralField, c_cfl: float = 0.5, alpha: float = 0.0,
              values: np.ndarray | None = None) -> float:
    """Advective CFL bound c_cfl dx / max|u|; linear-multiplicative runs get
    the (0.1/alpha)^2 cap.  values, when given, are u's own grid values, so
    max|u| needs no transform."""
    umax = lp_norm(u, np.inf) if values is None else _sup_magnitude(values)
    limit = np.inf if umax == 0 else c_cfl * u.grid.dx / umax
    if alpha != 0.0:
        limit = min(limit, (0.1 / abs(alpha)) ** 2)
    return float(limit)


def _lm_alpha(model: NoiseModel) -> float:
    """The linear-multiplicative coefficient alpha; 0 for other noise kinds."""
    return model.alpha if model.kind == LINEAR_MULTIPLICATIVE else 0.0


def _check_finite(coeffs: np.ndarray) -> None:
    if not np.all(np.isfinite(coeffs.view(float))):
        raise NonFinite("non-finite Fourier coefficient")


def _flux_values(u: SpectralField, dt: float, model: NoiseModel,
                 c_cfl: float, enforce_cfl: bool) -> np.ndarray:
    """Check that dt is positive and, when enforced, within the CFL limit;
    return the grid values of the dealiased u, which nonlinear_term takes.

    Every state a step returns is already dealiased, so there these are u's
    own values and the CFL bound reads max|u| from them.  A u with content
    outside the dealias mask is checked on its own inverse.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    ud = dealias(u)
    values = ud.to_physical()
    if enforce_cfl:
        own = np.array_equal(ud.coeffs, u.coeffs)
        lim = cfl_limit(u, c_cfl, _lm_alpha(model), values if own else None)
        if dt > lim * (1.0 + 1e-12):
            raise CflViolation(f"dt={dt} exceeds CFL limit {lim}")
    return values


def _project(coeffs: np.ndarray, grid: Grid) -> SpectralField:
    """Dealias and Leray-project a step's new coefficients; fail on NaN/Inf."""
    u_new = leray_project(SpectralField(grid,
                                        coeffs * grid.dealias_mask[None, ...]))
    _check_finite(u_new.coeffs)
    return u_new


def _advance(state: SimState, dt: float, u_new: SpectralField,
             model: NoiseModel, dW: np.ndarray) -> SimState:
    """The state after one step: t += dt, W += dW[0] under
    linear-multiplicative noise, gamma = exp(-alpha W)."""
    alpha = _lm_alpha(model)
    W_new = state.W_accum + (float(dW[0])
                             if model.kind == LINEAR_MULTIPLICATIVE else 0.0)
    return SimState(state.t + dt, u_new,
                    gamma=float(np.exp(-alpha * W_new)) if alpha else 1.0,
                    W_accum=W_new, step_index=state.step_index + 1)


# ---------------------------------------------------------------------------
# Steppers


def _rk4(v, dt: float, rhs, k1=None):
    """Classic RK4 with a time-dependent rhs(tau, v) over tau in [0, dt];
    k1, when given, is rhs(0, v)."""
    if k1 is None:
        k1 = rhs(0.0, v)
    k2 = rhs(0.5 * dt, v + 0.5 * dt * k1)
    k3 = rhs(0.5 * dt, v + 0.5 * dt * k2)
    k4 = rhs(dt, v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _damped_rk4(v, dt: float, alpha: float, gamma: float, F):
    """Advance dv/dt + (alpha^2/2) v = gamma^{-1} F(v) over dt, F quadratic:
    w = exp(alpha^2 tau / 2) v obeys w' = exp(-alpha^2 tau / 2) gamma^{-1} F(w)
    (F is homogeneous of degree 2), which RK4 advances; the exact damping
    factor is undone at tau = dt."""
    half = 0.5 * alpha ** 2

    def rhs(tau, w):
        return (np.exp(-half * tau) / gamma) * F(w)

    return float(np.exp(-half * dt)) * _rk4(v, dt, rhs)


def step_em(state: SimState, dt: float, model: NoiseModel, dW: np.ndarray,
            c_cfl: float = 0.5, enforce_cfl: bool = True) -> SimState:
    """u+ = u - dt P(u.grad u) + P(sigma(u) dW), dealiased and re-projected."""
    u = state.u
    u_phys = _flux_values(u, dt, model, c_cfl, enforce_cfl)
    coeffs = u.coeffs - dt * nonlinear_term(u, u_phys).coeffs
    if model.n_modes:
        coeffs = coeffs + apply_noise(model, u, dW).coeffs
    return _advance(state, dt, _project(coeffs, u.grid), model, dW)


def step_rk4(state: SimState, dt: float, model: NoiseModel, dW: np.ndarray,
             c_cfl: float = 0.5, enforce_cfl: bool = True) -> SimState:
    """RK4 on the conservative drift, Euler-Maruyama coupling for the noise."""
    u = state.u
    u_phys = _flux_values(u, dt, model, c_cfl, enforce_cfl)

    def rhs(_tau, v):
        return -1.0 * nonlinear_term(v)

    u_new = _rk4(u, dt, rhs, k1=-1.0 * nonlinear_term(u, u_phys))
    if model.n_modes:
        u_new = u_new + apply_noise(model, u, dW)
    return _advance(state, dt, _project(u_new.coeffs, u.grid), model, dW)


def step_transformed(state: SimState, dt: float, model: NoiseModel,
                     dW: np.ndarray) -> SimState:
    """One step of  dv/dt + (alpha^2/2) v + gamma^{-1} P(v.grad v) = 0.

    state.u holds v = gamma u with gamma = state.gamma = exp(-alpha W) and
    alpha the noise model's coefficient; dW only advances W.  The damping is
    exact (_damped_rk4).
    """
    gamma = state.gamma
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    # the transport term is P(v.grad v) / (-gamma)
    v_new = _damped_rk4(state.u, dt, _lm_alpha(model), -gamma, nonlinear_term)
    _check_finite(v_new.coeffs)
    return _advance(state, dt,
                    SpectralField(v_new.grid, v_new.coeffs,
                                  divergence_free=True),
                    model, dW)


def _transport_rhs_2d(w: ScalarField) -> ScalarField:
    """-dealias(div(u w)) = -dealias(u . grad w) with u = Biot-Savart(w)."""
    g = w.grid
    wd = dealias_scalar(w)
    flux = SpectralField.from_physical(
        g, biot_savart(wd).to_physical() * wd.to_physical())
    return ScalarField(g, -np.sum(g.ik * flux.coeffs, axis=0)
                       * g.dealias_mask)


def step_vorticity_2d(w: ScalarField, dt: float, alpha: float = 0.0,
                      gamma: float = 1.0) -> ScalarField:
    """Advance the 2D scalar vorticity by transport.

    alpha != 0 adds the exact exp(-alpha^2 dt/2) damping of the transformed
    system (transport scaled by gamma^{-1}).
    """
    w_new = _damped_rk4(w, dt, alpha, gamma, _transport_rhs_2d)
    _check_finite(w_new.coeffs)
    return w_new


# ---------------------------------------------------------------------------
# Trajectory driver


def _monitored_value(rule: StoppingRule, u: SpectralField, state: SimState,
                     alpha: float, diag: TrajectoryDiagnostics,
                     req: NormRequest) -> float:
    """The rule's scalar at the sample just recorded in diag, reusing its
    W^{1,inf} and W^{m,p} values where the rule asks for those norms."""
    if rule.kind == W1INF_THRESHOLD:
        return diag.w1inf[-1]
    if rule.kind == SOBOLEV_THRESHOLD:
        spec = rule.norm_spec or NormRequest(1, 2)
        return diag.wmp[-1] if spec == req else sobolev_norm(u, spec)
    # gbm_level monitors rho_alpha(t) = exp(alpha W_t - alpha^2 t / 8)
    return float(np.exp(alpha * state.W_accum - alpha ** 2 * state.t / 8.0))


def integrate_trajectory(cfg: TrajectoryConfig,
                         trajectory_id: int = 0) -> TrajectoryDiagnostics:
    """Run one path to T, first stopping hit, or numerical blow-up."""
    diag = TrajectoryDiagnostics()
    alpha = _lm_alpha(cfg.model)
    transformed = cfg.integrator == TRANSFORMED  # state.u holds v = gamma u
    state = SimState(0.0, cfg.u0.copy())
    fired: set[str] = set()

    def sample() -> bool:
        """Record diagnostics; returns True if a stopping rule fired."""
        u = (1.0 / state.gamma) * state.u if transformed else state.u
        diag.times.append(state.t)
        diag.l2.append(l2_norm(u))
        diag.wmp.append(sobolev_norm(u, cfg.norms))
        u_max, grad_max, curl_max = _sup_view(u)
        diag.w1inf.append(u_max + grad_max)
        diag.curl_inf.append(curl_max)
        diag.gamma.append(state.gamma)
        if diag.w1inf[-1] >= BLOWUP_LEVEL:
            diag.blow_up_flag = True
            return True
        hit = False
        for rule in cfg.stopping:
            if rule.kind in fired:
                continue
            if _monitored_value(rule, u, state, alpha, diag, cfg.norms) \
                    >= rule.level:
                diag.hits.append((rule.kind, state.t))
                fired.add(rule.kind)
                hit = True
        return hit

    if cfg.T <= 0:
        diag.final_time = 0.0
        return diag

    # looked up on the module at call time, so a stepper replaced there (for
    # instance by a tracer) is the one that runs
    step = globals()[f"step_{cfg.integrator}"]
    options = {key: getattr(cfg, key) for key in INTEGRATORS[cfg.integrator]}
    driver = BrownianDriver(cfg.noise_seed, cfg.model.n_modes)
    stop = sample()
    n_steps = max(1, int(round(cfg.T / cfg.dt)))
    while not stop and state.step_index < n_steps:
        dW = driver.sample_increments(trajectory_id, state.step_index, cfg.dt)
        try:
            state = step(state, cfg.dt, cfg.model, dW, **options)
        except NonFinite:
            diag.blow_up_flag = True
            break
        if state.step_index % cfg.sample_every == 0 \
                or state.step_index == n_steps:
            stop = sample()
    diag.final_time = state.t
    return diag
