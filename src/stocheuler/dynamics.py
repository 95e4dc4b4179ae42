"""Time integration of the stochastic Euler system and its variants.

Each integrator kind in INTEGRATORS has a stepper step_<kind> with one
contract: step_<kind>(state, dt, model, dW, c_cfl=0.5) -> SimState maps a
state holding the velocity u to one holding u, given the step's Wiener
increments dW (the trajectory driver samples them from
BrownianDriver(cfg.noise_seed, cfg.model.n_modes) unless it is given them),
or raises CflViolation over the CFL limit.  v = gamma u lives only
inside step_transformed's step; gamma = exp(-alpha W) is formed where reported.

Batch axis: a SimState may hold a batch of paths, u of shape
(B, dim) + spectral_shape with dW of shape (B, K).  A state holds u and its
sampled grid view alone.  The trajectory driver counts the batch's steps k
and reports every time (a sample's t, a hit, final_time, gbm_level's rho) as
k dt, and under linear-multiplicative noise it sums each path's W from the
dW[:, 0] of the steps that path took.  Every stepper acts on each path alone
(see spectral), so a path's numbers do not depend on the batch it runs in.
A CflViolation or NonFinite raised on a batch names its rows (exc.rows).

integrate_trajectory(cfg, trajectory_ids) is the one loop that steps a
path (run, ensemble and the checks): it steps all the ids as one batch and
drops a path from it when the path hits a stopping rule, blows up or fails.
It draws the batch's increments one Wiener block at a time (noise), one
sample_increments call per path and block, or takes them all from the
checks' increments, and drops a path's rows of the block with its state.

A TrajectoryConfig states each run parameter once: the linear-multiplicative
coefficient alpha (noise, gamma = exp(-alpha W), the damping alpha^2/2 and the
gbm_level monitor) is model.alpha, which the model checks and which is 0
under every other noise kind, the grid is u0.grid, and the sampled W^{m,p}
order is norms.  A gbm_level rule needs linear-multiplicative noise.  A
sample whose W^{1,inf} norm reaches BLOWUP_LEVEL ends the path as a blow-up.

States are dealiased from t = 0: TrajectoryConfig rejects a u0 that is not.
The first batch is a read-only view of u0 repeated per path: no stepper
writes its input state.  A sample's W^{1,inf} and sup|curl u| come from one
physical-space view of the state (spectral._sup_view): one pruned inverse
transform of u and, per derivative axis j, one of the rows d_j u_i, and one
sqrt after each max; it carves its work arrays from the pools that
nonlinear_term sizes, so sampling makes them no larger.  The driver keeps a
sampled state's grid values and max|u| (state.values, state.u_max).  step_em
and the first stage of the RK4 transport take their flux from them, and every
stepper its CFL bound, so a state is transformed to the grid once per step
(step 1 reuses the sample at t = 0).

* step_em              Euler-Maruyama on the velocity form
* step_rk4             RK4 drift with Euler-Maruyama noise coupling
* step_transformed     damped random PDE for v = gamma * u, stepped as u
                       (exact integrating-factor damping + RK4 transport)

All steppers return new states and mutate nothing.  A step gathers u's
kept box (see spectral) once, runs on box arrays of the grid workspace and
scatters once into the new state; it calls nonlinear_term and apply_noise
in their box form (out=).  step_rk4 and step_transformed share one RK4
transport (_transport), which forms its stage inputs in one box array,
k2, k3 and k4 in another, and k1 + 2 k2 + 2 k3 + k4 in place in k1.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .analysis import _rk4, n_time_steps
from .errors import (CflViolation, ConfigError, InvalidParams, NonFinite,
                     ShapeMismatch, StochEulerError)
from .noise import (LINEAR_MULTIPLICATIVE, BrownianDriver, NoiseModel,
                    apply_noise, block_steps)
from .spectral import (Grid, NormRequest, SpectralField, _field_of_box,
                       _inverse, _per_path, _project_box, _rows,
                       _sup_magnitude, _sup_view, _trailing, curl, l2_norm,
                       lp_norm, nonlinear_term, sobolev_norm, w1inf_norm)

# curl and w1inf_norm are not called here, but the benchmark tracer
# (perfbench/tracing.py) patches them on this module by name, so they stay
# public re-exports
__all__ = [
    "EM", "RK4", "TRANSFORMED", "INTEGRATORS", "W1INF_THRESHOLD",
    "SOBOLEV_THRESHOLD", "GBM_LEVEL", "BLOWUP_LEVEL", "StoppingRule",
    "SimState", "TrajectoryDiagnostics", "TrajectoryConfig", "cfl_limit",
    "step_em", "step_rk4", "step_transformed", "integrate_trajectory",
    "curl", "w1inf_norm",
]

EM = "em"
RK4 = "rk4"
TRANSFORMED = "transformed"
# the integrator kinds; kind k steps with step_<k>
INTEGRATORS = (EM, RK4, TRANSFORMED)

W1INF_THRESHOLD = "w1inf_threshold"
SOBOLEV_THRESHOLD = "sobolev_threshold"
GBM_LEVEL = "gbm_level"

BLOWUP_LEVEL = 1e6


@dataclass(frozen=True)
class StoppingRule:
    """First-hitting rule on a monitored scalar; a sobolev_threshold rule
    monitors the W^{m,p} norm of its norm_spec."""

    kind: str
    level: float
    norm_spec: NormRequest | None = None

    def __post_init__(self):
        if self.kind not in (W1INF_THRESHOLD, SOBOLEV_THRESHOLD, GBM_LEVEL):
            raise ValueError(f"unknown stopping rule kind '{self.kind}'")
        if self.level <= 0:
            raise ValueError("stopping level must be positive")
        if self.kind == SOBOLEV_THRESHOLD and self.norm_spec is None:
            raise ValueError(f"a {SOBOLEV_THRESHOLD} rule needs a norm_spec")


@dataclass
class SimState:
    """Integration state of one path, or of a batch of paths: then u has a
    leading batch axis.  u is the velocity under every integrator; the
    fields after it are keyword-only."""

    u: SpectralField
    _: KW_ONLY
    # u's grid values and max|u| from a sample of this state; states are
    # dealiased from t = 0, so the next step's flux and CFL check reuse them
    values: np.ndarray | None = None
    u_max: np.ndarray | None = None


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
    failure: Exception | None = None  # what ended a failed path; not in CSV
    final_u: SpectralField | None = None  # the path's last state; not in CSV

    COLUMNS = ("t", "l2", "wmp", "w1inf", "curl_inf", "gamma")

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh) -> None:
        """The rows csv.writer writes (its "\r\n" line ends; no repr of a
        number needs quoting), joined and written at once."""
        rows = zip(self.times, self.l2, self.wmp, self.w1inf, self.curl_inf,
                   self.gamma)
        fh.write("\r\n".join([",".join(self.COLUMNS)]
                              + [",".join(map(repr, row)) for row in rows])
                 + "\r\n")


@dataclass
class TrajectoryConfig:
    """Everything needed to run one path (immutable per ensemble)."""

    u0: SpectralField
    model: NoiseModel
    T: float
    dt: float
    noise_seed: int = 0  # master seed of the path's BrownianDriver
    integrator: str = EM  # one of INTEGRATORS
    c_cfl: float = 0.5
    stopping: tuple[StoppingRule, ...] = ()
    sample_every: int = 1
    norms: NormRequest = NormRequest(3, 2)

    def __post_init__(self):
        if not self.dt > 0:
            raise InvalidParams(f"dt must be positive, got {self.dt}")
        if self.T < 0:
            raise InvalidParams(f"T must be non-negative, got {self.T}")
        if self.T != 0:  # T = 0 is an empty run; NaN is checked
            n_time_steps(self.T, self.dt)
        if not self.c_cfl > 0:
            raise InvalidParams(f"c_cfl must be positive, got {self.c_cfl}")
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
        if np.any(self.u0.coeffs[..., ~self.u0.grid.dealias_mask]):
            raise InvalidParams("u0 must vanish outside the dealias mask")
        # without alpha, rho = exp(alpha W - alpha^2 t / 8) is 1 at every t
        if (self.model.kind != LINEAR_MULTIPLICATIVE
                and any(r.kind == GBM_LEVEL for r in self.stopping)):
            raise ConfigError(f"stopping: a {GBM_LEVEL} rule needs "
                              f"{LINEAR_MULTIPLICATIVE} noise, not "
                              f"'{self.model.kind}'")


# ---------------------------------------------------------------------------
# CFL and sanity helpers


def cfl_limit(u: SpectralField, c_cfl: float = 0.5, alpha: float = 0.0,
              umax: np.ndarray | None = None):
    """Advective CFL bound c_cfl dx / max|u| per path, capped at
    (0.1/alpha)^2 for a nonzero alpha (em and rk4 under linear-multiplicative
    noise), a cap that is +inf where it overflows.  umax, when given, is
    max|u| over the grid: no transform."""
    umax = np.asarray(lp_norm(u, np.inf) if umax is None else umax)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        limit = np.where(umax == 0, np.inf, c_cfl * u.grid.dx / umax)
        if alpha != 0.0:
            limit = np.minimum(limit, np.float64(0.1 / abs(alpha)) ** 2)
    return _per_path(limit)


def _flux_values(state: SimState, dt: float, c_cfl: float,
                 alpha: float) -> np.ndarray:
    """Check that dt is positive and within the CFL limit (capped at
    (0.1/alpha)^2 unless alpha is 0), which reads max|u| from u's grid values
    (state.values, if a sample made them, else the pruned inverse's); return
    the values, which nonlinear_term takes."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = state.u
    values, umax = state.values, state.u_max
    if values is None:
        values = _inverse(u.coeffs, u.grid, pruned=True)
        umax = _sup_magnitude(values, u.grid.dim)
    # cfl_limit gives one float for an unbatched path
    lim = np.asarray(cfl_limit(u, c_cfl, alpha, umax)).reshape(-1)
    over = (dt > lim * (1.0 + 1e-12)).nonzero()[0]
    if over.size:
        raise CflViolation(f"dt={dt} exceeds CFL limit "
                           f"{float(lim[over].min())}", rows=over)
    return values


def _boxes(u: SpectralField, count: int) -> tuple[np.ndarray, ...]:
    """count step work arrays of u's box shape, the first holding u's box."""
    g = u.grid
    boxes = g._workspace.arrays(u.coeffs.shape[:-(g.dim + 1)],
                                *[("step", g.dim)] * count)
    g._workspace.gather(u.coeffs, boxes[0])
    return boxes


def _advance(g: Grid, box: np.ndarray, project: bool = True) -> SimState:
    """The state after a step whose new u has the kept box box: projected
    as leray_project(dealiased=True) projects (if project), and NonFinite on
    the paths with a NaN or Inf."""
    if project:
        _project_box(g, box)
    finite = np.logical_and.reduce(np.isfinite(box.view(float)),
                                   axis=_trailing(g.dim + 1))
    if not finite.all():
        raise NonFinite("non-finite Fourier coefficient",
                        rows=np.flatnonzero(~finite))
    return SimState(_field_of_box(g, box))


def _transport(g: Grid, boxes: list[np.ndarray], dt: float,
               u_phys: np.ndarray, half: float = 0.0) -> np.ndarray:
    """RK4 over tau in [0, dt] of w' = -exp(-half tau) P(w.grad w) from
    w(0) = u on boxes _boxes(u, 4): u's, k1 (the result), k2..k4 and the
    stage inputs.  The first stage advects u's grid values u_phys."""
    v, k1, k, stage_in = boxes

    def rhs(tau, w, w_phys=None, out=k):
        nonlinear_term(SpectralField(g, w), w_phys, out=out)
        out *= -np.exp(-half * tau)
        return out

    def stage(c, k_i):
        np.multiply(k_i, c, out=stage_in)
        return np.add(stage_in, v, out=stage_in)

    rhs(0.0, v, u_phys, out=k1)
    del u_phys  # so a step holds no grid values past its first stage
    return _rk4(v, dt, rhs, k1=k1, stage=stage)


# ---------------------------------------------------------------------------
# Steppers


def step_em(state: SimState, dt: float, model: NoiseModel, dW: np.ndarray,
            c_cfl: float = 0.5) -> SimState:
    """u+ = u - dt P(u.grad u) + P(sigma(u) dW), dealiased and re-projected.
    state.u must vanish outside the dealias mask, as every state does."""
    u = state.u
    v, drift, noise = _boxes(u, 3)
    nonlinear_term(SpectralField(u.grid, v),
                   _flux_values(state, dt, c_cfl, model.alpha), out=drift)
    drift *= dt
    box = np.subtract(v, drift, out=drift)
    if model.n_modes:
        box += apply_noise(model, u, dW, out=noise)
    return _advance(u.grid, box)


def step_rk4(state: SimState, dt: float, model: NoiseModel, dW: np.ndarray,
             c_cfl: float = 0.5) -> SimState:
    """RK4 on the conservative drift, Euler-Maruyama coupling for the noise.
    state.u must vanish outside the dealias mask, as every state does."""
    u = state.u
    boxes = _boxes(u, 4)
    box = _transport(u.grid, boxes, dt,
                     _flux_values(state, dt, c_cfl, model.alpha))
    if model.n_modes:
        box += apply_noise(model, u, dW, out=boxes[2])
    return _advance(u.grid, box)


def step_transformed(state: SimState, dt: float, model: NoiseModel,
                     dW: np.ndarray, c_cfl: float = 0.5) -> SimState:
    """One step of du = -P(u.grad u) dt + alpha u dW (Ito) through the
    paper's v = gamma u, gamma = exp(-alpha W), which obeys the random PDE
    dv/dt + (alpha^2/2) v + gamma^{-1} P(v.grad v) = 0.

    W, so gamma, is frozen over the step.  There u = v / gamma obeys
    u' = -(alpha^2/2) u - P(u.grad u), and P(u.grad u) is quadratic, so
    w = exp(alpha^2 tau / 2) u obeys w' = -exp(-alpha^2 tau / 2) P(w.grad w),
    which RK4 advances from w(0) = u (the damping is exact).  At the step's
    end gamma drops by exp(-alpha dW[..., 0]), so
    u_new = exp(alpha dW - alpha^2 dt / 2) w(dt): the v-form step in exact
    arithmetic, as RK4 on a quadratic rhs commutes with scaling.  Both
    factors are exact, so the CFL limit has no (0.1/alpha)^2 cap.
    """
    alpha = model.alpha
    half = 0.5 * alpha ** 2
    g = state.u.grid
    box = _transport(g, _boxes(state.u, 4), dt,
                     _flux_values(state, dt, c_cfl, 0.0), half)
    dW0 = dW[..., 0] if model.n_modes else 0.0
    box *= _rows(np.exp(alpha * dW0 - half * dt), g.dim + 1)
    return _advance(g, box, project=False)


# ---------------------------------------------------------------------------
# Trajectory driver


def _monitored_value(rule: StoppingRule, u: SpectralField, W: np.ndarray,
                     t: float, alpha: float, w1inf: np.ndarray,
                     wmp: np.ndarray, req: NormRequest) -> np.ndarray:
    """The rule's scalar per path at the sample just taken of u, at time t
    and path values W, reusing its W^{1,inf} and W^{m,p} values."""
    if rule.kind == W1INF_THRESHOLD:
        return w1inf
    if rule.kind == SOBOLEV_THRESHOLD:
        return (wmp if rule.norm_spec == req
                else sobolev_norm(u, rule.norm_spec))
    # gbm_level monitors rho_alpha(t) = exp(alpha W_t - alpha^2 t / 8)
    return np.exp(alpha * W - alpha ** 2 * t / 8.0)


def _keep(state: SimState, keep: np.ndarray) -> SimState:
    """The state of the batch rows where keep is True."""
    u = state.u
    values, u_max = (None if a is None else a[keep]
                     for a in (state.values, state.u_max))
    return SimState(SpectralField(u.grid, u.coeffs[keep]), values=values,
                    u_max=u_max)


def integrate_trajectory(cfg: TrajectoryConfig, trajectory_ids=(0,),
                         increments: np.ndarray | None = None
                         ) -> list[TrajectoryDiagnostics]:
    """Run the paths trajectory_ids as one batch, each to T, its first
    stopping hit, numerical blow-up or failure; one diagnostics per id.

    A path's noise is keyed by (cfg.noise_seed, its id) alone, and every
    operator acts on each path alone, so its diagnostics are bit for bit
    those of a batch of one; increments (ids, steps, K), if given, are the
    paths' increments instead.  A path leaves the batch when it stops, with
    its last state in diag.final_u.  A step that raises a CflViolation or
    NonFinite naming rows is run again without them; a NonFinite path is a
    blow-up, any other error ends the paths it names (all, if it names none)
    with diag.failure set.
    """
    ids = list(trajectory_ids)
    diags = [TrajectoryDiagnostics() for _ in ids]
    n_modes = cfg.model.n_modes
    n_steps = n_time_steps(cfg.T, cfg.dt) if cfg.T else 0
    shape = (len(ids), n_steps, n_modes)
    if increments is not None and np.shape(increments) != shape:
        raise ShapeMismatch(f"increments of shape {np.shape(increments)}, "
                            f"need {shape}")
    if not n_steps:
        return diags
    alpha = cfg.model.alpha
    u0 = cfg.u0
    # a read-only view: no stepper writes its input state, _keep copies the
    # rows it keeps, and a path that ends before its first step keeps a view
    # of u0 as its final_u
    state = SimState(SpectralField(u0.grid, np.broadcast_to(
        u0.coeffs, (len(ids),) + u0.coeffs.shape)))
    rows = np.arange(len(ids))  # the diags index of each batch row
    W = np.zeros(len(ids))  # each row's Wiener path at the state's time
    k = 0  # the batch's steps taken; the state's time is k * cfg.dt

    def sample() -> np.ndarray:
        """Record the batch's diagnostics; True where a path stops."""
        t = k * cfg.dt
        l2 = l2_norm(state.u)
        wmp = sobolev_norm(state.u, cfg.norms)
        state.values, state.u_max, grad_max, curl_max = _sup_view(state.u)
        w1inf = state.u_max + grad_max
        gamma = np.exp(-alpha * W)
        for i, a, b, c, e, f in zip(rows, l2.tolist(), wmp.tolist(),
                                    w1inf.tolist(), curl_max.tolist(),
                                    gamma.tolist()):
            d = diags[i]
            d.times.append(t)
            d.l2.append(a)
            d.wmp.append(b)
            d.w1inf.append(c)
            d.curl_inf.append(e)
            d.gamma.append(f)
        stop = w1inf >= BLOWUP_LEVEL
        for i in rows[stop]:
            diags[i].blow_up_flag = True
        # a rule kind fires once per path; blown-up paths check no rule
        fired: dict[str, np.ndarray] = {}
        for rule in cfg.stopping:
            done = fired.setdefault(rule.kind, stop.copy())
            if done.all():
                continue
            hit = ~done & (_monitored_value(rule, state.u, W, t, alpha,
                                            w1inf, wmp, cfg.norms)
                           >= rule.level)
            for i in rows[hit]:
                diags[i].hits.append((rule.kind, t))
            done |= hit
        for done in fired.values():
            stop = stop | done
        return stop

    def finish(out, coeffs: np.ndarray) -> None:
        """Record the end of paths rows[out], whose last u is coeffs."""
        for i, u in zip(rows[out], coeffs):
            diags[i].final_time = k * cfg.dt
            diags[i].final_u = SpectralField(u0.grid, u)

    def retire(out: np.ndarray) -> None:
        """Drop the rows where out is True from the batch."""
        nonlocal state, rows, W, block
        if not out.any():
            return
        finish(out, state.u.coeffs[out])
        state, rows, W, block = (_keep(state, ~out), rows[~out], W[~out],
                                 block[~out])

    # looked up on the module at call time, so a stepper replaced there (for
    # instance by a tracer) is the one that runs
    step = globals()[f"step_{cfg.integrator}"]
    driver = BrownianDriver(cfg.noise_seed, n_modes)
    length = block_steps(n_modes)
    # the batch's increments of the current Wiener block, (rows, steps, K),
    # drawn up to step `drawn`; given increments are one block of the run
    block, drawn = np.zeros((len(ids), 0, n_modes)), 0
    if increments is not None:
        block, drawn, length = np.asarray(increments, float), n_steps, n_steps
    try:
        retire(sample())
        while rows.size and k < n_steps:
            if k == drawn:
                count = min(length, n_steps - drawn)
                block = np.stack([driver.sample_increments(
                    ids[i], drawn, cfg.dt, count) for i in rows])
                drawn += count
            dW = block[:, k % length]
            try:
                state = step(state, cfg.dt, cfg.model, dW, cfg.c_cfl)
            except StochEulerError as exc:
                if exc.rows is None:
                    raise
                out = np.zeros(rows.size, dtype=bool)
                out[exc.rows] = True
                for i in rows[out]:
                    if isinstance(exc, NonFinite):
                        diags[i].blow_up_flag = True
                    else:
                        diags[i].failure = exc
                retire(out)
                continue  # the same step again, on the other paths
            if cfg.model.kind == LINEAR_MULTIPLICATIVE:
                W = W + dW[:, 0]
            k += 1
            if k % cfg.sample_every == 0 or k == n_steps:
                retire(sample())
    except Exception as exc:
        for i in rows:
            diags[i].failure = exc
    finish(slice(None), state.u.coeffs)
    return diags
