"""The benchmark's workloads: the CLI calls a round makes, and the laws their
outputs must obey.

Every workload drives linear multiplicative noise with alpha = 1, whose laws
are closed forms that do not go through the code being timed.  The Wiener
increments come from the public ``BrownianDriver`` with the op's seeds.

* Euler-Maruyama (traj2d-n128, ens2d-n32): a step is
  u+ = (1 + alpha dW) u - dt P(u.grad u) and <u, P(u.grad u)> = 0 for a
  dealiased divergence-free u, so ||u_n|| = ||u_0|| prod_k |1 + alpha dW_k|
  up to a relative excess of order dt^2 ||P(u.grad u)||^2 / ||u||^2 that is
  never negative.
* transformed (traj3d-n32): v = exp(-alpha W) u obeys a damped Euler
  equation whose transport conserves energy, so
  ||u(t)|| = ||u_0|| exp(alpha W_t - alpha^2 t / 2) and gamma = exp(-alpha W).
* gbm-exit: both ops estimate the probability that
  exp((mu - alpha^2/2) t + alpha W_t) reaches R = 16 before T = 200 with
  mu = 3/8 (test_01's law).  Each op must lie within its own sampling
  error of the continuous-monitoring closed form, and the estimate pooled
  over all ops of a kind in a run must land in test_01's band
  [0.47, 0.53].  The pooled distance from the closed form is reported, so
  the dt-grid estimator's discrete-monitoring bias shows.

Each op also has a fixed amount of work: its steps, samples and paths must
equal their nominal values and no stopping rule may fire, on any seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

from stocheuler.noise import BrownianDriver

ALPHA = 1.0
AMPLITUDE = 0.5
NEVER = 1.0e12  # stopping level that no trajectory here comes near
EM_EXCESS_MAX = 1e-3
TRANSFORMED_TOL = 1e-9
ROUNDOFF = 1e-12
P_HIT_BAND = (0.47, 0.53)
# an op's p_hit may be off the closed form by this monitoring bias (the
# dt-grid estimators read about 0.007 low) plus P_HIT_SIGMAS binomial
# standard errors of its path count
MONITORING_BIAS = 0.01
P_HIT_SIGMAS = 5.0
GBM_LAW = {"mu": 0.375, "alpha": 1.0, "R": 16.0, "T": 200.0, "dt": 0.01}
WARMUP_INDEX = 1000  # op indices of set-up calls; rounds stay below it


class OracleMiss(Exception):
    """An op's outputs broke its law or its fixed amount of work."""


@dataclass
class Op:
    """One CLI call, the check of its outputs (None: exit code only) and the
    work it completes: nominal time steps over all its paths, and paths."""

    argv: list[str]
    check: Callable[[str, dict], None] | None
    work: dict[str, int]


def first_passage_probability(mu: float, alpha: float, R: float,
                              T: float) -> float:
    """P(max_{t<=T} x_t >= R) for x_t = exp((mu - alpha^2/2) t + alpha W_t)."""
    nu = mu - alpha ** 2 / 2.0
    b = math.log(R)
    s = alpha * math.sqrt(T)

    def phi(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    return (phi((nu * T - b) / s)
            + math.exp(2.0 * nu * b / alpha ** 2) * phi((-nu * T - b) / s))


P_HIT_EXACT = first_passage_probability(
    GBM_LAW["mu"], GBM_LAW["alpha"], GBM_LAW["R"], GBM_LAW["T"])


def _sets(pairs: dict) -> list[str]:
    out = []
    for key, value in pairs.items():
        out += ["--set", f"{key}={value}"]
    return out


def _n_samples(n_steps: int, every: int) -> int:
    return 1 + n_steps // every + (1 if n_steps % every else 0)


def _read_series(path: str) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise OracleMiss(f"{path} has no samples")
    return {key: [float(r[key]) for r in rows] for key in rows[0]}


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _expect(what: str, got, want) -> None:
    if got != want:
        raise OracleMiss(f"{what} is {got}, expected {want}")


def check_l2_law(series: dict[str, list[float]], noise_seed: int, tid: int,
                 dt: float, n_steps: int, every: int,
                 integrator: str) -> float:
    """Check one path's diagnostics against its law; return the largest
    relative deviation of the L2 series from it."""
    _expect("samples", len(series["t"]), _n_samples(n_steps, every))
    if abs(series["t"][-1] - n_steps * dt) > 1e-9:
        raise OracleMiss(f"final time {series['t'][-1]}, expected "
                         f"{n_steps * dt}")
    driver = BrownianDriver(noise_seed, 1)
    dW = [float(driver.sample_increments(tid, k, dt)[0])
          for k in range(n_steps)]
    factor, W, k, worst = 1.0, 0.0, 0, 0.0
    for t, l2, gamma in zip(series["t"], series["l2"], series["gamma"]):
        while k < round(t / dt):
            factor *= abs(1.0 + ALPHA * dW[k])
            W += dW[k]
            k += 1
        if integrator == "em":
            dev = l2 / (AMPLITUDE * factor) - 1.0
            ok = -ROUNDOFF <= dev <= EM_EXCESS_MAX
        else:
            dev = l2 / (AMPLITUDE * math.exp(ALPHA * W - ALPHA ** 2 * t / 2))
            dev -= 1.0
            ok = abs(dev) <= TRANSFORMED_TOL
        if not ok:
            raise OracleMiss(f"L2 norm {l2!r} at t={t} is off its law by "
                             f"{dev:.3e} relative")
        if abs(gamma / math.exp(-ALPHA * W) - 1.0) > ROUNDOFF:
            raise OracleMiss(f"gamma {gamma!r} at t={t} is not exp(-alpha W)")
        worst = max(worst, abs(dev))
    return worst


class Workload:
    """What a run needs of a workload besides its ops: the reference kernel
    that tracks the machine's speed for the ops' kind of work (a kind and
    its arguments, see ``run.py``), the fewest rounds a run makes, and the
    checks on the whole run."""

    reference: tuple = ()
    min_rounds = 1

    def check_run(self, details: list[dict]) -> list[str]:
        return []


class Trajectory(Workload):
    """One `run` trajectory on a random initial field."""

    def __init__(self, dim: int, n: int, integrator: str, dt: float,
                 n_steps: int, sample_every: int, stopping: bool,
                 reference: tuple):
        self.dim, self.n, self.integrator = dim, n, integrator
        self.dt, self.n_steps, self.sample_every = dt, n_steps, sample_every
        self.stopping = stopping
        self.reference = reference

    def ops(self, seed: int, index: int, out_dir: str,
            warmup: bool = False) -> list[Op]:
        n_steps = 2 if warmup else self.n_steps
        pairs = {
            "grid.dim": self.dim, "grid.n": self.n,
            "noise.kind": "linear_multiplicative", "noise.alpha": ALPHA,
            "noise.seed": seed,
            "initial.name": "random", "initial.amplitude": AMPLITUDE,
            "initial.seed": seed,
            "integrator.kind": self.integrator,
            "integrator.T": repr(n_steps * self.dt),
            "integrator.dt": repr(self.dt),
            "integrator.sample_every": self.sample_every,
        }
        if self.stopping:
            pairs["stopping"] = (
                f"[{{kind: w1inf_threshold, level: {NEVER!r}}}, "
                f"{{kind: sobolev_threshold, level: {NEVER!r}, m: 3, p: 2}}, "
                f"{{kind: gbm_level, level: {NEVER!r}}}]")
        out = os.path.join(out_dir, f"run-{index}.csv")
        argv = ["run", "--seed", str(index), "--out", out, *_sets(pairs)]

        def check(stdout: str, details: dict) -> None:
            if "blow_up=False" not in stdout or "hits=[]" not in stdout:
                raise OracleMiss(f"a stopping rule fired: {stdout.strip()}")
            series = _read_series(out)
            details["l2_law_dev"] = check_l2_law(
                series, seed, index, self.dt, n_steps, self.sample_every,
                self.integrator)
            if self.stopping:
                # the monitored values themselves, not only the reported hits
                # (norms.m = 3, p = 2 by default, so wmp is the Sobolev rule)
                top = max(max(series["w1inf"]), max(series["wmp"]),
                          max(math.exp(-math.log(g) - ALPHA ** 2 * t / 8)
                              for t, g in zip(series["t"], series["gamma"])))
                if top >= NEVER:
                    raise OracleMiss(f"a monitored value reached {top}")

        return [Op(argv, check, {"steps": n_steps, "paths": 1})]


class Ensemble(Workload):
    """`ensemble --out` over trajectories, with per-path CSVs written."""

    def __init__(self, n: int, dt: float, n_steps: int, n_paths: int,
                 reference_ffts: int):
        self.n, self.dt, self.n_steps, self.n_paths = n, dt, n_steps, n_paths
        self.reference = ("fft", (n, n), reference_ffts)

    def ops(self, seed: int, index: int, out_dir: str,
            warmup: bool = False) -> list[Op]:
        n_paths = 2 if warmup else self.n_paths
        master = seed * 10_000 + index
        out = os.path.join(out_dir, f"ensemble-{index}")
        pairs = {
            "grid.dim": 2, "grid.n": self.n,
            "noise.kind": "linear_multiplicative", "noise.alpha": ALPHA,
            "initial.name": "random", "initial.amplitude": AMPLITUDE,
            "initial.seed": seed,
            "integrator.kind": "em", "integrator.alpha": ALPHA,
            "integrator.T": repr(self.n_steps * self.dt),
            "integrator.dt": repr(self.dt),
            "ensemble.n_paths": n_paths, "ensemble.parallel_width": 1,
        }
        argv = ["ensemble", "--seed", str(master), "--out", out,
                *_sets(pairs)]

        def check(stdout: str, details: dict) -> None:
            summary = _read_json(os.path.join(out, "summary.json"))
            details["paths_failed"] = (summary["n_engineering_failures"]
                                       + summary["n_blow_up"])
            _expect("failed paths", details["paths_failed"], 0)
            _expect("paths", summary["n_paths"], n_paths)
            _expect("stopping hits", summary["hit_counts"], {})
            csvs = sorted(os.listdir(os.path.join(out, "paths")))
            _expect("path files", csvs,
                    sorted(f"{tid}.csv" for tid in range(n_paths)))
            details["l2_law_dev"] = max(
                check_l2_law(_read_series(os.path.join(out, "paths", name)),
                             master, tid, self.dt, self.n_steps, 1, "em")
                for tid, name in ((int(c[:-4]), c) for c in csvs))

        work = {"steps": n_paths * self.n_steps, "paths": n_paths}
        return [Op(argv, check, work)]


class GbmExit(Workload):
    """`gbm-exit` Monte Carlo and a surrogate `ensemble` of the same law.

    An op's path count is small enough that a run holds many ops, so its
    throughputs are medians; test_01's band is checked on the estimate
    pooled over the run's ops (at least ``min_rounds`` of each kind)."""

    KINDS = ("mc", "surrogate")
    reference = ("gbm",)

    def __init__(self, n_mc: int, n_surrogate: int, min_rounds: int):
        self.n_mc, self.n_surrogate = n_mc, n_surrogate
        self.min_rounds = min_rounds

    def ops(self, seed: int, index: int, out_dir: str,
            warmup: bool = False) -> list[Op]:
        law = dict(GBM_LAW)
        n_mc, n_sur = self.n_mc, self.n_surrogate
        if warmup:
            law["T"], n_mc, n_sur = 2.0, 1000, 100
        master = seed * 10_000 + index
        mc_out = os.path.join(out_dir, f"gbm-{index}.json")
        mc_argv = ["gbm-exit", "--seed", str(master), "--n-paths", str(n_mc),
                   "--out", mc_out, "--quiet",
                   *[a for key in ("mu", "alpha", "R", "T", "dt")
                     for a in (f"--{key}", repr(law[key]))]]
        sur_out = os.path.join(out_dir, f"surrogate-{index}")
        sur_argv = ["ensemble", "--seed", str(master), "--out", sur_out,
                    *_sets({"surrogate": f"{{alpha: {law['alpha']!r}, "
                                         f"R: {law['R']!r}, T: {law['T']!r}, "
                                         f"dt: {law['dt']!r}}}",
                            "ensemble.n_paths": n_sur,
                            "ensemble.parallel_width": 1})]
        n_steps = round(law["T"] / law["dt"])

        def near_law(kind: str, hits: int, n: int, details: dict) -> None:
            details[f"{kind}_hits"], details[f"{kind}_paths"] = hits, n
            p_hit = hits / n
            slack = MONITORING_BIAS + P_HIT_SIGMAS * math.sqrt(0.25 / n)
            if abs(p_hit - P_HIT_EXACT) > slack:
                raise OracleMiss(f"{kind} p_hit {p_hit} is off the closed "
                                 f"form {P_HIT_EXACT:.5f} by more than "
                                 f"{slack:.4f}")

        def check_mc(stdout: str, details: dict) -> None:
            est = _read_json(mc_out)["estimate"]
            _expect("paths", est["n_paths"], n_mc)
            _expect("horizon", (est["T"], est["dt"]), (law["T"], law["dt"]))
            near_law("mc", round(est["p_hit"] * n_mc), n_mc, details)

        def check_surrogate(stdout: str, details: dict) -> None:
            summary = _read_json(os.path.join(sur_out, "summary.json"))
            details["paths_failed"] = (summary["n_engineering_failures"]
                                       + summary["n_blow_up"])
            _expect("failed paths", details["paths_failed"], 0)
            _expect("paths", summary["n_paths"], n_sur)
            near_law("surrogate", summary["hit_counts"].get("gbm_level", 0),
                     n_sur, details)

        return [
            Op(mc_argv, None if warmup else check_mc,
               {"steps": n_mc * n_steps}),
            Op(sur_argv, None if warmup else check_surrogate,
               {"paths": n_sur}),
        ]

    def check_run(self, details: list[dict]) -> list[str]:
        """Pool each estimator over the run's ops: print its distance from
        the closed form and return a problem if it leaves test_01's band."""
        problems = []
        for kind in self.KINDS:
            hits = sum(d.get(f"{kind}_hits", 0) for d in details)
            n = sum(d.get(f"{kind}_paths", 0) for d in details)
            if n == 0:
                problems.append(f"no {kind} op passed its own check")
                continue
            p_hit = hits / n
            print(f"pooled {kind} p_hit {p_hit:.5f} over {n} paths, "
                  f"{p_hit - P_HIT_EXACT:+.5f} from the closed form "
                  f"{P_HIT_EXACT:.5f}")
            if not P_HIT_BAND[0] <= p_hit <= P_HIT_BAND[1]:
                problems.append(f"pooled {kind} p_hit {p_hit} outside "
                                f"{P_HIT_BAND}")
        return problems


# Why each workload, and which layer it isolates, is recorded in
# BENCHMARK.json.  ens2d-n32 uses a random field because the 2D
# Taylor-Green field is a steady Euler solution with zero advection term.
# The dt-grid estimators of gbm-exit average about 0.489, so a run's
# pooled estimate (at least 5 x 3000 MC and 5 x 2500 surrogate paths)
# leaves [0.47, 0.53] by sampling error with a chance below 1e-5 (more
# than 4.5 standard errors).
WORKLOADS = {
    "traj2d-n128": Trajectory(dim=2, n=128, integrator="em", dt=2e-3,
                              n_steps=50, sample_every=1, stopping=True,
                              reference=("fft", (128, 128), 240)),
    "traj3d-n32": Trajectory(dim=3, n=32, integrator="transformed", dt=5e-3,
                             n_steps=20, sample_every=10, stopping=False,
                             reference=("advect", (32, 32, 32), 5)),
    "ens2d-n32": Ensemble(n=32, dt=5e-3, n_steps=20, n_paths=25,
                          reference_ffts=1700),
    "gbm-exit": GbmExit(n_mc=3000, n_surrogate=2500, min_rounds=5),
}
