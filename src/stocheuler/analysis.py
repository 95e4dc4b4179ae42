"""Closed-form and numerical verifiers for the stochastic-analysis bounds.

Covers: geometric-Brownian-motion exit probabilities (analytic bound and an
exact-simulation Monte Carlo cross-check), the logarithmic Gronwall change
of variables, the explicit small-data thresholds kappa(R, alpha) and
K(R, alpha), and the worst-case ODE sweep behind them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate as _sciint
from scipy import stats as _scistats

from .errors import DomainError, InvalidParams, StiffnessFailure


# ---------------------------------------------------------------------------
# Wilson score interval (used here and by the ensemble module)


def wilson_interval(successes: int, n: int,
                    confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise InvalidParams("n must be positive")
    z = float(_scistats.norm.ppf(0.5 + confidence / 2.0))
    phat = successes / n
    denom = 1.0 + z ** 2 / n
    center = (phat + z ** 2 / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z ** 2 / (4 * n ** 2))
    return (float(max(0.0, center - half)), float(min(1.0, center + half)))


# ---------------------------------------------------------------------------
# GBM exit times


@dataclass(frozen=True)
class GBMParams:
    """dx = mu x dt + alpha x dW, exit level R from x0."""

    mu: float
    alpha: float
    x0: float = 1.0
    R: float = 2.0

    def __post_init__(self):
        if self.alpha == 0:
            raise InvalidParams("alpha must be nonzero")
        if self.x0 <= 0:
            raise InvalidParams("x0 must be positive")
        if self.R <= 1:
            raise InvalidParams("R must exceed 1")

    @property
    def lambda_c(self) -> float:
        return 1.0 - 2.0 * self.mu / self.alpha ** 2


def gbm_survival_bound(p: GBMParams) -> float:
    """Lower bound 1 - (x0/R)^lambda_c on P(the level R is never hit)."""
    if p.mu >= p.alpha ** 2 / 2.0:
        raise InvalidParams("need mu < alpha^2 / 2")
    if p.R <= p.x0:
        raise InvalidParams("need R > x0")
    return 1.0 - (p.x0 / p.R) ** p.lambda_c


@dataclass
class GBMExitEstimate:
    n_paths: int
    n_hit: int
    p_hit: float
    wilson_99: tuple[float, float]
    T: float
    dt: float
    # per path, the first grid time k dt (k >= 1) with x >= R; inf if none
    hit_times: np.ndarray = field(repr=False)


# gbm_exit_mc draws block (seed, chunk start, block start) of PATH_CHUNK
# paths by TIME_BLOCK steps from its own stream: these fix a seed's draws
PATH_CHUNK = 20000
TIME_BLOCK = 1024


def gbm_exit_mc(p: GBMParams, T: float, dt: float, n_paths: int,
                seed: int = 0) -> GBMExitEstimate:
    """Exact-in-law simulation of the GBM hit fraction before T.

    x(t) = x0 exp((mu - alpha^2/2) t + alpha W_t) is evaluated on the dt
    grid; a path counts as hit when max over samples >= R.  Paths that hit
    stop being simulated (exact pruning; never biases the estimate).
    """
    if T <= 0 or dt <= 0 or n_paths <= 0:
        raise InvalidParams("T, dt, n_paths must be positive")
    if p.R <= p.x0:
        return GBMExitEstimate(n_paths, n_paths, 1.0,
                               wilson_interval(n_paths, n_paths), T, dt,
                               np.zeros(n_paths))
    n_steps = int(round(T / dt))
    log_barrier = np.log(p.R / p.x0)
    drift = (p.mu - p.alpha ** 2 / 2.0) * dt
    vol = p.alpha * np.sqrt(dt)
    hit_times = np.full(n_paths, np.inf)
    for chunk in range(0, n_paths, PATH_CHUNK):
        size = min(PATH_CHUNK, n_paths - chunk)
        cur = np.zeros(size)
        alive = np.ones(size, dtype=bool)
        done = 0
        while done < n_steps and alive.any():
            block = min(TIME_BLOCK, n_steps - done)
            gen = np.random.Generator(np.random.Philox(
                np.random.SeedSequence([seed, chunk, done])))
            na = int(alive.sum())
            incr = drift + vol * gen.standard_normal((na, block))
            paths = cur[alive, None] + np.cumsum(incr, axis=1)
            hit = paths.max(axis=1) >= log_barrier
            idx = np.flatnonzero(alive)
            first = np.argmax(paths[hit] >= log_barrier, axis=1)
            hit_times[chunk + idx[hit]] = (done + 1 + first) * dt
            cur[idx] = paths[:, -1]
            alive[idx[hit]] = False
            done += block
    n_hit = int(np.isfinite(hit_times).sum())
    return GBMExitEstimate(n_paths, n_hit, n_hit / n_paths,
                           wilson_interval(n_hit, n_paths), T, dt, hit_times)


# ---------------------------------------------------------------------------
# Logarithmic Gronwall change of variables


@dataclass(frozen=True)
class LogGronwallValues:
    zeta: float
    Psi: float
    Phi: float
    Phi_prime: float
    Phi_double_prime: float


def log_gronwall_functions(x: float) -> LogGronwallValues:
    """zeta(x) = 1 + ln x, Psi(x) = int_0^x dr/(r zeta(r) + 1), Phi = exp(Psi).

    Closed forms for the derivatives:
    Phi' = Phi / (x zeta + 1),  Phi'' = -Phi zeta / (x zeta + 1)^2.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    zeta = 1.0 + np.log(x)

    def integrand(r):
        return 1.0 / (r * (1.0 + np.log(r)) + 1.0) if r > 0 else 1.0

    psi, _err = _sciint.quad(integrand, 0.0, x, epsabs=1e-12, epsrel=1e-12,
                             limit=200)
    phi = float(np.exp(psi))
    denom = x * zeta + 1.0
    return LogGronwallValues(zeta=float(zeta), Psi=float(psi), Phi=phi,
                             Phi_prime=phi / denom,
                             Phi_double_prime=-phi * zeta / denom ** 2)


# ---------------------------------------------------------------------------
# Explicit small-data thresholds kappa(R, alpha), K(R, alpha)


@dataclass(frozen=True)
class KappaK:
    K: float
    kappa: float
    log_K: float
    log_kappa: float
    kappa_underflow: bool
    K_overflow: bool


def kappa_K(R: float, alpha: float, Cbar: float = 1.0) -> KappaK:
    """Threshold pair:

    K = 2R (1 + (alpha^2/(8 Cbar))^(1 - 1/(8 (D_R - 1))))
          * exp(8 Cbar R D_R (Cbar + alpha^2) / alpha^2),   D_R = exp(4 Cbar R)
    kappa = alpha^2 / (2 Cbar K).

    Everything is accumulated in log space; kappa routinely underflows the
    double range and is then reported as 0 with the underflow flag set.
    """
    if R < 1:
        raise InvalidParams(f"R must be >= 1, got {R}")
    if alpha == 0:
        raise InvalidParams("alpha must be nonzero")
    if Cbar < 1:
        raise InvalidParams(f"Cbar must be >= 1, got {Cbar}")
    a2 = alpha ** 2
    log_DR = 4.0 * Cbar * R
    DR = float(np.exp(min(log_DR, 700.0))) if log_DR <= 700.0 else np.inf
    power = 1.0 if not np.isfinite(DR) else 1.0 - 1.0 / (8.0 * (DR - 1.0))
    log_base = np.log(a2 / (8.0 * Cbar))
    # log(1 + base^power) without forming base^power
    log_poly = float(np.logaddexp(0.0, power * log_base))
    if np.isfinite(DR):
        log_exp_term = 8.0 * Cbar * R * DR * (Cbar + a2) / a2
    else:
        log_exp_term = np.inf
    log_K = float(np.log(2.0 * R) + log_poly + log_exp_term)
    K_overflow = not np.isfinite(log_K) or log_K > 709.0
    K = np.inf if K_overflow else float(np.exp(log_K))
    log_kappa = float(np.log(a2 / (2.0 * Cbar)) - log_K)
    kappa = 0.0 if log_kappa < -745.0 else float(np.exp(log_kappa))
    return KappaK(K=K, kappa=kappa, log_K=log_K, log_kappa=log_kappa,
                  kappa_underflow=(kappa == 0.0), K_overflow=K_overflow)


# ---------------------------------------------------------------------------
# Worst-case ODE integration behind the kappa/K lemma


Z_PROFILE_TAGS = ("extremal", "half", "zero", "decaying")


def _z_profile(tag: str, alpha: float):
    a2 = alpha ** 2
    if tag == "extremal":
        return lambda t: a2 / 4.0
    if tag == "half":
        return lambda t: a2 / 8.0
    if tag == "zero":
        return lambda t: 0.0
    if tag == "decaying":
        return lambda t: (a2 / 4.0) * np.exp(-t)
    raise InvalidParams(f"unknown z profile '{tag}'")


@dataclass(frozen=True)
class OdeLemmaParams:
    """dy/dt = Cbar R exp(-alpha^2 t/8) y (Cbar + alpha^2 + z(t) log y)."""

    R: float
    alpha: float
    Cbar: float = 1.0
    y0: float = 1e-3
    z_tag: str = "extremal"
    log_y0: float | None = None  # overrides y0 when it underflows

    def __post_init__(self):
        if self.R < 1 or self.alpha == 0 or self.Cbar < 1:
            raise InvalidParams("need R >= 1, alpha != 0, Cbar >= 1")
        if self.log_y0 is None and self.y0 <= 0:
            raise InvalidParams("y0 must be positive (or give log_y0)")
        if self.z_tag not in Z_PROFILE_TAGS:
            raise InvalidParams(f"unknown z profile '{self.z_tag}'")

    @property
    def log_y0_value(self) -> float:
        return self.log_y0 if self.log_y0 is not None else float(np.log(self.y0))


@dataclass
class OdeBoundResult:
    times: np.ndarray
    log_y: np.ndarray
    y: np.ndarray
    bound_satisfied: bool
    margin: float
    log_bound: float
    tail_increment: float


def _integrate_logY(p: OdeLemmaParams, dt: float, T_end: float) -> np.ndarray:
    """RK4 on Y' = a(t)(Cbar + alpha^2 + z(t) Y), Y = log y (exact change)."""
    a2 = p.alpha ** 2
    z = _z_profile(p.z_tag, p.alpha)

    def a(t):
        return p.Cbar * p.R * np.exp(-a2 * t / 8.0)

    def f(t, Y):
        return a(t) * (p.Cbar + a2 + z(t) * Y)

    n = int(np.ceil(T_end / dt))
    out = np.empty(n + 1)
    Y = p.log_y0_value
    out[0] = Y
    t = 0.0
    for i in range(n):
        k1 = f(t, Y)
        k2 = f(t + dt / 2, Y + dt / 2 * k1)
        k3 = f(t + dt / 2, Y + dt / 2 * k2)
        k4 = f(t + dt, Y + dt * k3)
        Y = Y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        out[i + 1] = Y
    return out


def ode_bound_check(p: OdeLemmaParams, dt: float = 1e-2,
                    tol: float = 1e-8) -> OdeBoundResult:
    """Integrate the equality ODE (worst case of the inequality) and test
    whether y stays below alpha^2 / (8 R Cbar).

    Integration is performed on Y = log y, so initial data far below the
    double underflow threshold are handled exactly.  T_end is chosen so the
    drift envelope exp(-alpha^2 t/8) has decayed below 1e-8; the remaining
    analytic tail increment is added to the reported margin.
    """
    a2 = p.alpha ** 2
    T_end = 8.0 * np.log(1e8) / a2
    logY = _integrate_logY(p, dt, T_end)
    for _ in range(8):
        logY_half = _integrate_logY(p, dt / 2.0, T_end)
        err = abs(logY[-1] - logY_half[-1]) / max(1.0, abs(logY_half[-1]))
        if err <= tol:
            break
        dt /= 2.0
        logY = logY_half
    else:
        raise StiffnessFailure(
            f"step-doubling residual {err:.3e} exceeds tolerance {tol} "
            f"at dt={dt}")
    n = len(logY) - 1
    times = np.linspace(0.0, n * dt, n + 1)
    # tail of int a(t) dt beyond T_end, times the worst-case bracket
    tail_int = 8.0 * p.Cbar * p.R / a2 * np.exp(-a2 * T_end / 8.0)
    Y_max = float(np.max(logY))
    tail_increment = tail_int * (p.Cbar + a2 + (a2 / 4.0) * max(Y_max, 0.0))
    log_bound = float(np.log(a2 / (8.0 * p.R * p.Cbar)))
    margin = log_bound - (Y_max + tail_increment)
    with np.errstate(under="ignore"):
        y = np.exp(logY)
    return OdeBoundResult(times=times, log_y=logY, y=y,
                          bound_satisfied=bool(margin >= 0.0),
                          margin=float(margin), log_bound=log_bound,
                          tail_increment=float(tail_increment))
