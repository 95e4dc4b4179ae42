"""Monte Carlo orchestration of trajectory batches and survival statistics.

A PDE path is keyed by (master_seed, trajectory_id) alone, and the
trajectory driver steps it bit for bit as it would alone, so the summary is
a deterministic fold over trajectory ids, byte-identical for any
parallel_width and chunk size.  The ids are split into consecutive chunks
of at most CHUNK_BYTES of half-spectrum coefficients (at least one path),
and each chunk is one batch of integrate_trajectory; a process pool maps
chunks to workers.  A surrogate ensemble is one analysis.gbm_exit_mc batch
in this process, its draws keyed by (master_seed, path chunk, time block).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analysis
from .analysis import (GBMParams, gbm_survival_bound, kappa_K, n_time_steps,
                       squared_alpha, wilson_interval)
from .dynamics import (GBM_LEVEL, SOBOLEV_THRESHOLD, StoppingRule,
                       TrajectoryConfig, integrate_trajectory)
from .errors import ConfigError, InvalidParams
from .noise import LINEAR_MULTIPLICATIVE
from .spectral import sobolev_norm

SUMMARY_SCHEMA_VERSION = 1
HIT_HISTOGRAM_BINS = 20
# half-spectrum bytes of one chunk of paths: 30 paths at 2D n=32, one at
# 3D n=32.  A batch's peak memory is about five times its coefficients; a
# 2D n=32 path runs about as fast in a batch of 10 as in one of 60
CHUNK_BYTES = 512 * 1024


@dataclass(frozen=True)
class GBMSurrogateSpec:
    """Bypass the PDE: monitor rho_alpha(t) = exp(alpha W_t - alpha^2 t/8),
    the geometric Brownian motion with mu = 3 alpha^2 / 8 started at 1."""

    alpha: float
    R: float
    T: float
    dt: float
    gbm: GBMParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_time_steps(self.T, self.dt)
        object.__setattr__(self, "gbm", GBMParams(
            mu=3.0 * squared_alpha(self.alpha) / 8.0, alpha=self.alpha,
            x0=1.0, R=self.R))


@dataclass
class EnsembleConfig:
    trajectory: TrajectoryConfig | None
    n_paths: int
    master_seed: int
    parallel_width: int = 1
    output_dir: str | None = None
    bound_comparison: GBMParams | None = None
    surrogate: GBMSurrogateSpec | None = None
    # gbm_survival_bound(bound_comparison), evaluated before any path runs
    analytic_bound: float | None = field(init=False, default=None)

    def __post_init__(self):
        if self.n_paths < 1 or self.parallel_width < 1:
            raise ValueError("n_paths and parallel_width must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got "
                             f"{self.master_seed}")
        if self.trajectory is None and self.surrogate is None:
            raise ValueError("need a trajectory config or a surrogate spec")
        if self.bound_comparison is not None:
            try:
                self.analytic_bound = gbm_survival_bound(self.bound_comparison)
            except InvalidParams as exc:
                raise ConfigError(f"bound_comparison: {exc}") from None


@dataclass
class PathRecord:
    trajectory_id: int
    survived: bool
    blow_up: bool
    hits: dict[str, float]
    final_time: float
    final_l2: float
    final_wmp: float
    engineering_failure: bool = False
    failure: str = ""  # "ExceptionClass: message" of an engineering failure


@dataclass
class EnsembleSummary:
    n_paths: int
    n_survived: int
    survival_fraction: float
    wilson_99: tuple[float, float]
    hit_histograms: dict[str, list[int]]
    hit_counts: dict[str, int]
    horizon: float
    analytic_bound: float | None
    mean_final_l2: float
    max_final_l2: float
    mean_final_wmp: float
    max_final_wmp: float
    n_blow_up: int
    n_engineering_failures: int
    partial: bool
    master_seed: int
    # engineering failures per reason, most common first; telemetry, so it
    # stays out of summary.json
    failure_reasons: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        fields = asdict(self)
        del fields["failure_reasons"]
        return {"schema_version": SUMMARY_SCHEMA_VERSION, **fields}


# ---------------------------------------------------------------------------
# Chunk worker (top level so it pickles for the process pool)


def _failed(tid: int, exc: Exception) -> PathRecord:
    return PathRecord(tid, False, False, {}, 0.0, np.nan, np.nan,
                      engineering_failure=True,
                      failure=f"{type(exc).__name__}: {exc}")


def _run_chunk(args) -> list[PathRecord]:
    """One batch of PDE paths, each path's noise keyed by (master_seed,
    trajectory id); one record per id, in the order given."""
    cfg, tids = args
    traj = replace(cfg.trajectory, noise_seed=cfg.master_seed)
    try:
        diags = integrate_trajectory(traj, tids)
    except Exception as exc:
        return [_failed(tid, exc) for tid in tids]
    records = []
    for tid, diag in zip(tids, diags):
        if diag.failure is not None:
            records.append(_failed(tid, diag.failure))
            continue
        if cfg.output_dir is not None:
            paths_dir = os.path.join(cfg.output_dir, "paths")
            os.makedirs(paths_dir, exist_ok=True)
            diag.to_csv(os.path.join(paths_dir, f"{tid}.csv"))
        hits = {kind: t for kind, t in diag.hits}
        survived = not diag.blow_up_flag and not hits
        records.append(PathRecord(tid, survived, diag.blow_up_flag, hits,
                                  diag.final_time,
                                  diag.l2[-1] if diag.l2 else 0.0,
                                  diag.wmp[-1] if diag.wmp else 0.0))
    return records


def _chunks(cfg: EnsembleConfig) -> list[range]:
    """Consecutive trajectory ids, CHUNK_BYTES of coefficients per chunk."""
    size = max(1, CHUNK_BYTES // cfg.trajectory.u0.coeffs.nbytes)
    return [range(start, min(start + size, cfg.n_paths))
            for start in range(0, cfg.n_paths, size)]


def _worker_pool_width(cfg: EnsembleConfig) -> int:
    """parallel_width, capped by a positive integer STOCHEULER_THREADS."""
    width = cfg.parallel_width
    cap = os.environ.get("STOCHEULER_THREADS")
    if cap:
        if not (cap.isdecimal() and int(cap) > 0):
            raise ConfigError(f"STOCHEULER_THREADS must be a positive "
                              f"integer, got '{cap}'")
        width = min(width, int(cap))
    return width


def run_ensemble(cfg: EnsembleConfig) -> EnsembleSummary:
    """Run n_paths independent trajectories and fold the statistics.

    A surrogate ensemble is one gbm_exit_mc batch; a PDE ensemble runs its
    chunks (_chunks) and folds their records in trajectory-id order.
    Per-path failures are recorded, never abort the batch; the summary is
    flagged partial when more than 1% of paths failed for non-scientific
    reasons.
    """
    spec = cfg.surrogate
    if spec is not None:
        est = analysis.gbm_exit_mc(spec.gbm, spec.T, spec.dt, cfg.n_paths,
                                   seed=cfg.master_seed)
        return _fold(cfg, [
            PathRecord(tid, t_hit == np.inf, False,
                       {} if t_hit == np.inf else {GBM_LEVEL: t_hit},
                       spec.T, 0.0, 0.0)
            for tid, t_hit in enumerate(est.hit_times.tolist())])
    jobs = [(cfg, tids) for tids in _chunks(cfg)]
    width = _worker_pool_width(cfg)
    if width == 1:
        chunks = [_run_chunk(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=width) as pool:
            chunks = list(pool.map(_run_chunk, jobs))
    return _fold(cfg, [record for chunk in chunks for record in chunk])


def _fold(cfg: EnsembleConfig, records: list[PathRecord]) -> EnsembleSummary:
    horizon = (cfg.surrogate.T if cfg.surrogate is not None
               else cfg.trajectory.T)
    ok = [r for r in records if not r.engineering_failure]
    n_eng = len(records) - len(ok)
    reasons = Counter(r.failure for r in records if r.engineering_failure)
    n_survived = sum(r.survived for r in ok)
    n_blow = sum(r.blow_up for r in ok)
    histograms: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    edges = np.linspace(0.0, horizon, HIT_HISTOGRAM_BINS + 1)
    for r in ok:
        for kind, t_hit in r.hits.items():
            if kind not in histograms:
                histograms[kind] = [0] * HIT_HISTOGRAM_BINS
                counts[kind] = 0
            b = min(HIT_HISTOGRAM_BINS - 1,
                    int(np.searchsorted(edges, t_hit, side="right")) - 1)
            histograms[kind][max(b, 0)] += 1
            counts[kind] += 1
    l2s = [r.final_l2 for r in ok] or [0.0]
    wmps = [r.final_wmp for r in ok] or [0.0]
    n_ok = max(1, len(ok))
    return EnsembleSummary(
        n_paths=len(records), n_survived=n_survived,
        survival_fraction=n_survived / n_ok,
        wilson_99=wilson_interval(n_survived, n_ok),
        hit_histograms=histograms, hit_counts=counts, horizon=horizon,
        analytic_bound=cfg.analytic_bound,
        mean_final_l2=float(np.mean(l2s)), max_final_l2=float(np.max(l2s)),
        mean_final_wmp=float(np.mean(wmps)),
        max_final_wmp=float(np.max(wmps)), n_blow_up=n_blow,
        n_engineering_failures=n_eng,
        partial=n_eng > 0.01 * len(records), master_seed=cfg.master_seed,
        failure_reasons=dict(reasons.most_common()))


# ---------------------------------------------------------------------------
# Alpha sweep against the kappa(R, alpha) threshold


SWEEP_SCALINGS = ("fixed", "kappa-scaled")


def check_sweep_args(traj: TrajectoryConfig | None, alpha_list: list[float],
                     R: float, data_scaling: str = "fixed",
                     Cbar: float = 1.0) -> None:
    """Reject, before any path runs, what survival_vs_alpha_sweep and its
    kappa_K calls would reject (an alpha whose square overflows, say): the
    sweep varies the alpha of the ensemble's trajectory config traj."""
    if traj is None:
        raise ValueError("needs a trajectory config, not a surrogate")
    if traj.model.kind != LINEAR_MULTIPLICATIVE:  # no other kind has alpha
        kind = traj.model.kind if traj.model.n_modes else "none"
        raise ValueError(f"needs {LINEAR_MULTIPLICATIVE} noise, not "
                         f"'{kind}', whose runs have no alpha to vary")
    if not alpha_list:
        raise ValueError("alpha_list must be nonempty")
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if Cbar < 1:
        raise ValueError(f"Cbar must be >= 1, got {Cbar}")
    if data_scaling not in SWEEP_SCALINGS:
        raise ValueError(f"unknown data_scaling '{data_scaling}' "
                         f"(accepted: {', '.join(SWEEP_SCALINGS)})")
    for alpha in alpha_list:
        if alpha != 0.0:  # alpha = 0 is the undamped baseline row
            kappa_K(R, alpha, Cbar)


def survival_vs_alpha_sweep(base: EnsembleConfig, alpha_list: list[float],
                            R: float, data_scaling: str = "fixed",
                            Cbar: float = 1.0) -> list[dict]:
    """For each alpha run the linear-multiplicative ensemble and report the
    fraction of paths whose W^{m,p} norm exceeds alpha^2 / (4 Cbar), out of
    the paths that did not fail (a row whose every path failed is flagged).

    data_scaling 'kappa-scaled' rescales the initial data so its W^{m,p}
    norm is min(current norm, kappa(R, alpha)); alphas whose kappa
    underflows are emitted as flagged rows without running.
    """
    traj = base.trajectory
    check_sweep_args(traj, alpha_list, R, data_scaling, Cbar)
    req = traj.norms
    rows = []

    def row(alpha, kappa, threshold, exceed_fraction=None, interval=None,
            note=""):
        """One sweep.csv row; a row with a note is flagged."""
        rows.append({"alpha": alpha, "kappa": kappa, "threshold": threshold,
                     "exceed_fraction": exceed_fraction,
                     "interval": interval, "flagged": bool(note),
                     "note": note})

    for alpha in alpha_list:
        threshold = alpha ** 2 / (4.0 * Cbar)
        if alpha == 0.0:
            row(0.0, 0.0, 0.0, 1.0, [1.0, 1.0],
                "undamped baseline: zero threshold")
            continue
        kk = kappa_K(R, alpha, Cbar)
        if data_scaling == "kappa-scaled" and kk.kappa_underflow:
            row(alpha, 0.0, threshold, note="kappa underflow: run skipped")
            continue
        u0 = traj.u0
        if data_scaling == "kappa-scaled":
            norm0 = sobolev_norm(u0, req)
            target = min(norm0, kk.kappa)
            if norm0 > 0:
                u0 = (target / norm0) * u0
        model = replace(traj.model, alpha=alpha)
        rule = StoppingRule(SOBOLEV_THRESHOLD, threshold, req)
        t2 = replace(traj, u0=u0, model=model, stopping=(rule,))
        cfg = replace(base, trajectory=t2)
        summary = run_ensemble(cfg)
        # a failed path is neither an exceedance nor a survivor
        n_ok = summary.n_paths - summary.n_engineering_failures
        if n_ok == 0:
            row(alpha, kk.kappa, threshold, note="every path failed")
            continue
        n_exceed = summary.hit_counts.get(SOBOLEV_THRESHOLD, 0)
        row(alpha, kk.kappa, threshold, n_exceed / n_ok,
            list(wilson_interval(n_exceed, n_ok)))
    return rows


# ---------------------------------------------------------------------------
# Persistence


def persist_summary(summary: EnsembleSummary, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(summary.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
