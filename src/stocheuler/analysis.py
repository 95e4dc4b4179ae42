"""Closed-form and numerical verifiers for the stochastic-analysis bounds.

Covers: geometric-Brownian-motion exit probabilities (analytic bound and a
Monte Carlo cross-check monitored on the dt grid), the logarithmic Gronwall
change of variables, the explicit small-data thresholds kappa(R, alpha) and
K(R, alpha), and the worst-case ODE sweep behind them.

It imports no scipy: the Wilson z comes from _ndtri, a port of Cephes ndtri
(Moshier, Methods and Programs for Mathematical Functions, 1989) with
scipy.special.ndtri's bits, and log_gronwall_functions imports
scipy.integrate when it is called.  So a command that transforms no field
loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidParams, StiffnessFailure
from .noise import keyed_generator


# ---------------------------------------------------------------------------
# Wilson score interval (used here and by the ensemble module)

# Cephes ndtri's coefficients as doubles, highest power first, each Q with
# its implied leading 1 (which Horner's first step multiplies exactly).
# P0/Q0 serve exp(-2) < y < 1 - exp(-2), P1/Q1 and P2/Q2 the tails where
# x = sqrt(-2 log y) is below 8 and at least 8
_S2PI, _EXP_M2 = 2.5066282746310007, 0.1353352832366127  # sqrt(2 pi), e^-2
_P0 = (-59.96335010141079, 98.00107541859997, -56.67628574690703,
       13.931260938727968, -1.2391658386738125)
_Q0 = (1.0, 1.9544885833814176, 4.676279128988815, 86.36024213908905,
       -225.46268785411937, 200.26021238006066, -82.03722561683334,
       15.90562251262117, -1.1833162112133)
_P1 = (4.0554489230596245, 31.525109459989388, 57.16281922464213,
       44.08050738932008, 14.684956192885803, 2.1866330685079025,
       -0.1402560791713545, -0.03504246268278482, -0.0008574567851546854)
_Q1 = (1.0, 15.779988325646675, 45.39076351288792, 41.3172038254672,
       15.04253856929075, 2.504649462083094, -0.14218292285478779,
       -0.03808064076915783, -0.0009332594808954574)
_P2 = (3.2377489177694603, 6.915228890689842, 3.9388102529247444,
       1.3330346081580755, 0.20148538954917908, 0.012371663481782003,
       0.00030158155350823543, 2.6580697468673755e-06, 6.239745391849833e-09)
_Q2 = (1.0, 6.02427039364742, 3.6798356385616087, 1.3770209948908132,
       0.21623699359449663, 0.013420400608854318, 0.00032801446468212774,
       2.8924786474538068e-06, 6.790194080099813e-09)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """The polynomial of coef (highest power first) at x, by Horner."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """The standard normal quantile of y in [0, 1]: Cephes ndtri, operation
    for operation, so its bits are scipy.special.ndtri's."""
    if y == 0.0 or y == 1.0:
        return math.inf if y else -math.inf
    if upper := y > 1.0 - _EXP_M2:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    P, Q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    z = 1.0 / x
    x = x - math.log(x) / x - z * _polevl(z, P) / _polevl(z, Q)
    return x if upper else -x


def wilson_interval(successes: int, n: int,
                    confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.  InvalidParams
    unless n > 0, successes is an integer in [0, n] and 0 < confidence < 1."""
    if n <= 0:
        raise InvalidParams("n must be positive")
    if not (isinstance(successes, (int, np.integer)) and 0 <= successes <= n):
        raise InvalidParams(f"successes must be an integer in [0, {n}], "
                            f"got {successes!r}")
    if not 0 < confidence < 1:
        raise InvalidParams(f"confidence must be in (0, 1), got {confidence}")
    z = _ndtri(0.5 + confidence / 2.0)  # the normal quantile
    phat = successes / n
    denom = 1.0 + z ** 2 / n
    center = (phat + z ** 2 / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z ** 2 / (4 * n ** 2))
    return (float(max(0.0, center - half)), float(min(1.0, center + half)))


# ---------------------------------------------------------------------------
# GBM exit times


def squared_alpha(alpha: float, nonzero: bool = True) -> float:
    """alpha ** 2; InvalidParams where it overflows, or where it is 0 and
    nonzero is set (the noise of a run may vanish, a GBM's may not)."""
    a2 = float(alpha) * float(alpha)
    if not np.isfinite(a2):
        raise InvalidParams(f"alpha^2 must be finite, got alpha={alpha}")
    if a2 == 0 and nonzero:
        raise InvalidParams(f"alpha^2 must be nonzero, got alpha={alpha}")
    return alpha ** 2


@dataclass(frozen=True)
class GBMParams:
    """dx = mu x dt + alpha x dW, exit level R from x0."""

    mu: float
    alpha: float
    x0: float = 1.0
    R: float = 2.0

    def __post_init__(self):
        if not np.isfinite([self.mu, self.alpha, self.x0, self.R]).all():
            raise InvalidParams(f"mu, alpha, x0 and R must not be NaN or "
                                f"infinite: {self}")
        squared_alpha(self.alpha)
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


def _step_ratio(T: float, dt: float) -> float:
    """T / dt, InvalidParams where it overflows to inf."""
    if (ratio := T / dt) == np.inf:
        raise InvalidParams(f"T={T} / dt={dt} overflows: too many steps")
    return ratio


def n_time_steps(T: float, dt: float) -> int:
    """T / dt, the number of dt steps to T.  InvalidParams unless T and dt
    are positive and finite, T / dt is finite, and it is a whole number (to
    1e-9 relative) of at least 1, so no run reports on zero steps or ends
    before or past T."""
    if not (0 < T < np.inf and 0 < dt < np.inf):
        raise InvalidParams(f"T and dt must be positive and finite, got "
                            f"T={T}, dt={dt}")
    ratio = _step_ratio(T, dt)
    n_steps = int(round(ratio))
    if n_steps < 1:
        raise InvalidParams(f"T={T} rounds to zero steps of dt={dt}")
    if abs(ratio - n_steps) > 1e-9 * n_steps:
        raise InvalidParams(f"T={T} is not a whole multiple of dt={dt}")
    return n_steps


# gbm_exit_mc draws block (seed, chunk start, block start) of PATH_CHUNK
# paths by TIME_BLOCK steps from its own stream: these fix a seed's draws.
# A block's alive rows are drawn in tiles of at most TILE_BYTES (one row at
# least), each continuing the block's stream: the tile bounds memory and
# does not enter the stream.
PATH_CHUNK = 20000
TIME_BLOCK = 1024
TILE_BYTES = 256 * 1024


def gbm_exit_mc(p: GBMParams, T: float, dt: float, n_paths: int,
                seed: int = 0) -> GBMExitEstimate:
    """Fraction of GBM paths that reach R on the dt grid before T.

    x(t) = x0 exp((mu - alpha^2/2) t + alpha W_t) is simulated exactly in
    law at the grid times; a path counts as hit when max over samples >= R.
    Crossings between grid points go unseen, so the fraction reads low
    against the continuously monitored hit probability.  Paths that hit
    stop being simulated (exact pruning; never biases the estimate).  The
    draws come from noise.keyed_generator and depend on seed, PATH_CHUNK
    and TIME_BLOCK only; beside vectors of one value per path, the work runs
    in one TILE_BYTES buffer.
    """
    n_steps = n_time_steps(T, dt)
    if n_paths <= 0:
        raise InvalidParams("n_paths must be positive")
    if p.R <= p.x0:
        return GBMExitEstimate(n_paths, n_paths, 1.0,
                               wilson_interval(n_paths, n_paths), T, dt,
                               np.zeros(n_paths))
    log_barrier = np.log(p.R / p.x0)
    drift = (p.mu - p.alpha ** 2 / 2.0) * dt
    vol = p.alpha * np.sqrt(dt)
    hit_times = np.full(n_paths, np.inf)
    buf = np.empty(max(TILE_BYTES // 8, min(TIME_BLOCK, n_steps)))
    for chunk in range(0, n_paths, PATH_CHUNK):
        size = min(PATH_CHUNK, n_paths - chunk)
        cur = np.zeros(size)
        alive = np.ones(size, dtype=bool)
        done = 0
        while done < n_steps and alive.any():
            block = min(TIME_BLOCK, n_steps - done)
            gen = keyed_generator(seed, chunk, done)
            idx = np.flatnonzero(alive)
            tile = buf.size // block
            for start in range(0, idx.size, tile):
                rows = idx[start:start + tile]
                # out= needs a contiguous array, and the last block is short
                w = buf[:rows.size * block].reshape(rows.size, block)
                gen.standard_normal(out=w)
                w *= vol
                w += drift
                np.cumsum(w, axis=1, out=w)
                w += cur[rows, None]
                hit = w.max(axis=1) >= log_barrier
                first = np.argmax(w[hit] >= log_barrier, axis=1)
                hit_times[chunk + rows[hit]] = (done + 1 + first) * dt
                alive[rows[hit]] = False
                cur[rows] = w[:, -1]
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
    from scipy.integrate import quad  # loaded here: see the module docstring
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    zeta = 1.0 + np.log(x)

    def integrand(r):
        return 1.0 / (r * (1.0 + np.log(r)) + 1.0) if r > 0 else 1.0

    psi, _err = quad(integrand, 0.0, x, epsabs=1e-12, epsrel=1e-12,
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
    if not R >= 1:
        raise InvalidParams(f"R must be >= 1, got {R}")
    a2 = squared_alpha(alpha)
    if not Cbar >= 1:
        raise InvalidParams(f"Cbar must be >= 1, got {Cbar}")
    if np.inf in (R, Cbar):
        raise InvalidParams(f"R and Cbar must be finite, got R={R}, "
                            f"Cbar={Cbar}")
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


def _rk4(v, dt: float, rhs, k1=None, stage=None):
    """Classic RK4 with a time-dependent rhs(tau, v) over tau in [0, dt];
    k1, when given, is rhs(0, v).  v is a float (the ODE sweep below), a
    SpectralField, or an array (the dynamics steppers' kept boxes).

    stage(c, k), when given, returns the stage input v + c k; the steppers
    pass one that forms it in a work buffer.  The sum k1 + 2 k2 + 2 k3 + k4
    forms in k1 by augmented assignments, which rebind a float and update a
    field or an array in place, so k1 must be its own; each later k is
    added into k1 and into the next stage input before the next k is asked
    for, so rhs may return k2, k3 and k4 in one buffer.  The result is k1.
    """
    if stage is None:
        def stage(c, k):
            return v + c * k
    if k1 is None:
        k1 = rhs(0.0, v)
    k = rhs(0.5 * dt, stage(0.5 * dt, k1))
    for tau in (0.5 * dt, dt):  # k3 and k4
        w = stage(tau, k)
        k *= 2.0
        k1 += k
        del k  # freed before the next k is made
        k = rhs(tau, w)
    k1 += k
    k1 *= dt / 6.0
    k1 += v
    return k1


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
        if not np.isfinite([self.R, self.alpha, self.Cbar]).all():
            raise InvalidParams(f"R, alpha and Cbar must be finite, got "
                                f"R={self.R}, alpha={self.alpha}, "
                                f"Cbar={self.Cbar}")
        if self.R < 1 or self.alpha == 0 or self.Cbar < 1:
            raise InvalidParams("need R >= 1, alpha != 0, Cbar >= 1")
        if self.log_y0 is None and self.y0 <= 0:
            raise InvalidParams("y0 must be positive (or give log_y0)")
        if self.log_y0 is not None and not np.isfinite(self.log_y0):
            raise InvalidParams(f"log_y0 must be finite, got {self.log_y0}")
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
    """RK4 on Y' = a(t)(Cbar + alpha^2 + z(t) Y), Y = log y (exact change).
    StiffnessFailure at the first step whose Y is not finite."""
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
    with np.errstate(over="ignore", invalid="ignore"):  # Y is checked
        for i in range(n):
            Y = _rk4(Y, dt, lambda tau, y: f(t + tau, y))
            t += dt
            if not math.isfinite(Y):
                raise StiffnessFailure(f"the log solution left the double "
                                       f"range at t={t:.6g} (dt={dt:.6g})")
            out[i + 1] = Y
    return out


def ode_bound_check(p: OdeLemmaParams, dt: float = 1e-2,
                    tol: float = 1e-8) -> OdeBoundResult:
    """Integrate the equality ODE (worst case of the inequality) and test
    whether y stays below alpha^2 / (8 R Cbar).

    Integration is performed on Y = log y, so initial data far below the
    double underflow threshold are handled exactly.  T_end is chosen so the
    drift envelope exp(-alpha^2 t/8) has decayed below 1e-8; the remaining
    analytic tail increment is added to the reported margin.  dt must be
    positive and finite (InvalidParams otherwise, NaN included): an
    infinite dt would pass on zero steps.
    """
    if not 0 < dt < np.inf:
        raise InvalidParams(f"dt must be positive and finite, got {dt}")
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
