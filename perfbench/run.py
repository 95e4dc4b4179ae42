"""Benchmark of the stocheuler CLI on four oracle-checked workloads.

Run from the repository root:

    python3 perfbench/run.py --workload traj2d-n128 --seed 1 --seconds 20 --trace 0

A round calls ``stocheuler.cli.main`` in-process, as a user runs the
commands, and checks the outputs against closed-form laws (``workloads.py``).
Set-up (package import, config build, initial fields and a reduced warm-up
call) is repeated five times and its median reported.  Rounds then repeat
in one process and one thread, and the run ends at the round boundary
nearest to ``--seconds``.  Throughputs are medians over the ops of the run.

On a 2-vCPU Xeon virtual machine the host's speed drifted by up to 2x over
seconds to minutes (other tenants; no steal time recorded), which spread
wall-clock throughput across runs by more than any useful regression bound.
A fixed numpy kernel that does not use stocheuler, but does the same kind
of work as the workload's ops (FFTs or advection terms on its grid, or
Philox draws with cumulative sums), is therefore timed before and after every measured op,
and the reported throughputs are per reference second: the op's wall
seconds scaled by the kernel's nominal over the mean of its two timings.
A kernel of another kind than the op's tracked the drift worse than none.
The wall-clock throughputs are printed beside them, marked unreported.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics of the median
traced round (``tracing.py``); its spans are written to
``.perfbench_work/`` at exit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
metric names and units are those declared in ``BENCHMARK.json``.  Without
the package sources under ``src/`` the benchmark exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# Nominal duration of a reference kernel: an op's reference seconds are
# its wall seconds times REFERENCE_S over the kernel's measured duration.
REFERENCE_S = 0.08
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import stocheuler.cli; "
                "print(time.perf_counter() - t)")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("spectral.fft", "spectral.nonlinear_term", "spectral.leray_project",
          "spectral.norms", "noise.sample_increments", "noise.apply_noise",
          "dynamics.step", "dynamics.cfl_limit",
          "dynamics.integrate_trajectory", "dynamics.to_csv",
          "ensemble.run_ensemble", "analysis.gbm_exit_mc", "cli.main")


@dataclass
class OpResult:
    ok: bool
    wall: float
    work: dict[str, int]
    details: dict = field(default_factory=dict)
    error: str = ""
    ref_wall: float = 0.0  # reference kernel seconds around the op


@dataclass
class Round:
    ops: list[OpResult]
    spans: list | None

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.ops)


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds(src: Path) -> float:
    """Time of ``import stocheuler.cli`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def run_op(cli, op, tracer) -> OpResult:
    """Call the CLI once, then check its exit code and outputs."""
    result = OpResult(False, 0.0, op.work)
    out = io.StringIO()
    patched = tracer.installed() if tracer else contextlib.nullcontext()
    root = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with patched, contextlib.redirect_stdout(out), root:
            rc = cli.main(op.argv)
    except (Exception, SystemExit) as exc:
        rc, result.error = None, f"raised {type(exc).__name__}: {exc}"
    result.wall = time.perf_counter() - t0
    if rc is not None and rc != 0:
        result.error = f"exit code {rc}"
    if result.error:
        return result
    if op.check is not None:
        # the outputs come from the program under test: any defect in them,
        # including one that breaks their parsing, fails the op
        try:
            op.check(out.getvalue(), result.details)
        except Exception as exc:
            result.error = f"check: {type(exc).__name__}: {exc}"
            return result
    result.ok = True
    return result


def fft_reference(shape: tuple, pairs: int):
    """Reference for the norm-bound and per-call-bound spectral workloads:
    ``pairs`` forward and inverse FFTs of a masked field on the workload's
    grid (on small grids numpy's per-call overhead dominates, as there)."""
    import numpy as np

    rng = np.random.default_rng(0)
    field_ = rng.standard_normal(shape)
    mask = rng.random(shape)

    def seconds() -> float:
        t0 = time.perf_counter()
        for _ in range(pairs):
            np.fft.ifftn(mask * np.fft.fftn(field_)).real
        return time.perf_counter() - t0

    return seconds


def advect_reference(shape: tuple, evaluations: int):
    """Reference for the stepper-bound workload: ``evaluations`` dealiased,
    projected advection terms u.grad u of a random field on the workload's
    grid, written in numpy (FFTs and the elementwise products between them
    in the proportions of a step)."""
    import numpy as np

    dim, n = len(shape), shape[0]
    k = np.stack(np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n)] * dim,
                             indexing="ij"))
    k_sq = np.maximum(np.sum(k * k, axis=0), 1.0)
    mask = np.all(np.abs(k) <= n / 3.0, axis=0)
    rng = np.random.default_rng(0)
    u_hat = np.stack([np.fft.fftn(c) for c in
                      rng.standard_normal((dim, *shape))]) * mask

    def seconds() -> float:
        t0 = time.perf_counter()
        for _ in range(evaluations):
            u = np.stack([np.fft.ifftn(c).real for c in u_hat])
            adv = np.empty_like(u)
            for i in range(dim):
                grad = np.stack([np.fft.ifftn(1j * k[j] * u_hat[i]).real
                                 for j in range(dim)])
                adv[i] = np.sum(u * grad, axis=0)
            adv_hat = np.stack([np.fft.fftn(a) for a in adv]) * mask
            adv_hat - k * (np.sum(k * adv_hat, axis=0) / k_sq)
        return time.perf_counter() - t0

    return seconds


def gbm_reference():
    """Reference for gbm-exit: a block of Philox draws over 3000 paths with
    a cumulative sum and running maximum, as in the Monte Carlo op, and
    30 single paths of 20000 draws, as in the surrogate ensemble."""
    import numpy as np

    def seconds() -> float:
        t0 = time.perf_counter()
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence([0, 0])))
        block = np.cumsum(0.1 * gen.standard_normal((3000, 512)), axis=1)
        (block.max(axis=1) >= 2.0).sum()
        for tid in range(30):
            gen = np.random.Generator(np.random.Philox(
                np.random.SeedSequence([1, tid])))
            np.flatnonzero(np.cumsum(0.1 * gen.standard_normal(20000)) >= 2.0)
        return time.perf_counter() - t0

    return seconds


REFERENCES = {"fft": fft_reference, "advect": advect_reference,
              "gbm": gbm_reference}


def run_round(cli, ops, label: str, traced: bool, reference=None) -> Round:
    """Run one round's ops; with a reference, time it before and after
    each op."""
    import tracing

    tracer = tracing.Tracer() if traced else None
    results = []
    before = reference() if reference else 0.0
    for op in ops:
        r = run_op(cli, op, tracer)
        if reference:
            after = reference()
            r.ref_wall, before = (before + after) / 2, after
        results.append(r)
    for k, (op, r) in enumerate(zip(ops, results)):
        status = "ok" if r.ok else f"FAILED ({r.error})"
        details = " ".join(f"{key}={val:.3g}" if isinstance(val, float)
                           else f"{key}={val}"
                           for key, val in r.details.items())
        ref = f" ref {r.ref_wall:.4f}s" if reference else ""
        print(f"op {label}.{k} {op.argv[0]}{' traced' if traced else ''} "
              f"{r.wall:.4f}s{ref} {status} {details}".rstrip())
    return Round(results, tracer.spans if tracer else None)


def measure(cli, workload, seed: int, seconds: float, trace: bool,
            out_dir: str, reference) -> list[Round]:
    """Closed loop of at least ``workload.min_rounds`` rounds, ended at the
    round boundary nearest to ``seconds`` (rounds of a workload take about
    the same time)."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        index = len(rounds)
        traced = trace and index % 2 == 1
        rounds.append(run_round(cli, workload.ops(seed, index, out_dir),
                                str(index), traced, reference))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in rounds)
        if (len(rounds) >= max(workload.min_rounds, 2 if trace else 1)
                and elapsed + typical / 2 > seconds):
            return rounds


def end_to_end(rounds: list[Round], setup_s: float) -> dict[str, float]:
    """Median throughputs per wall second and per reference second, set-up
    time and peak memory."""
    rates: dict[str, list[float]] = {"reference_kernel_s": []}
    for rnd in rounds:
        for r in rnd.ops:
            rates["reference_kernel_s"].append(r.ref_wall)
            ref_seconds = r.wall * REFERENCE_S / r.ref_wall
            for unit, count in r.work.items():
                rates.setdefault(f"{unit}_per_s", []).append(count / r.wall)
                rates.setdefault(f"{unit}_per_ref_s", []).append(
                    count / ref_seconds)
    values = {name: statistics.median(v) for name, v in rates.items()}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    return values


def per_layer(rounds: list[Round]) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of the median traced round, and any count mismatches."""
    import tracing

    traced = sorted((r for r in rounds if r.spans is not None),
                    key=lambda r: r.wall)
    untraced = [r.wall for r in rounds if r.spans is None]
    totals = [tracing.layer_totals(r.spans) for r in traced]
    problems = []
    for layer in LAYERS:
        calls = {t.get(layer, {}).get("calls", 0) for t in totals}
        if len(calls) > 1:
            problems.append(f"{layer} calls differ between rounds: "
                            f"{sorted(calls)}")
    mid = (len(traced) - 1) // 2
    median_round, median_totals = traced[mid], totals[mid]
    values: dict[str, float] = {}
    for layer in LAYERS:
        t = median_totals.get(layer, {"calls": 0, "self_s": 0.0, "bytes": 0})
        values[f"{layer}.calls"] = t["calls"]
        values[f"{layer}.self_s"] = t["self_s"]
        values[f"{layer}.bytes"] = t["bytes"]
    values["spectral.fft.bytes_computed"] = values.pop("spectral.fft.bytes")
    values["ensemble.paths_failed"] = sum(
        r.details.get("paths_failed", 0) for r in median_round.ops)
    traced_s = sum(end - start for _, start, end, parent, _ in
                   median_round.spans if parent < 0)
    values["trace.round_s"] = traced_s
    values["trace.attributed_frac"] = 1.0 - values["cli.main.self_s"] / traced_s
    values["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                  - statistics.median(untraced))
    return values, problems


def write_spans(rounds: list[Round], meta: dict) -> Path:
    path = WORK_DIR / f"trace-{meta['workload']}-seed{meta['seed']}.json"
    with open(path, "w") as fh:
        json.dump({"meta": meta,
                   "columns": ["name", "start", "end", "parent", "bytes"],
                   "rounds": [r.spans for r in rounds if r.spans is not None]},
                  fh)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "stocheuler" / "__init__.py").is_file():
        print(f"perfbench: no stocheuler sources under {src}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import stocheuler.cli as cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (src / "stocheuler").resolve():
        print(f"perfbench: imported stocheuler from {cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy
    # imported only now (here and in the helpers), because they import
    # stocheuler, whose import time is part of setup_s
    from workloads import WARMUP_INDEX, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(ROOT), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    print("meta " + json.dumps(meta, sort_keys=True))

    WORK_DIR.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        warmups = [run_round(cli, workload.ops(args.seed, WARMUP_INDEX + rep,
                                               out_dir, warmup=True),
                             f"setup{rep}", False)
                   for rep in range(SETUP_REPEATS)]
        # the package imports once per process; the other set-ups time the
        # import in fresh interpreters
        imports = [import_s] + [import_seconds(src)
                                for _ in range(SETUP_REPEATS - 1)]
        setup_s = (statistics.median(imports)
                   + statistics.median(r.wall for r in warmups))
        kind, *spec = workload.reference
        reference = None if args.trace else REFERENCES[kind](*spec)
        if reference:
            reference()  # first calls plan the FFTs and fault pages in
        rounds = measure(cli, workload, args.seed, args.seconds,
                         bool(args.trace), out_dir, reference)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    results = [r for rnd in warmups + rounds for r in rnd.ops]
    failed = sum(not r.ok for r in results)
    # run-level oracles, on the ops that passed their own checks
    problems = workload.check_run([r.details for rnd in rounds
                                   for r in rnd.ops if r.ok])
    if args.trace:
        values, layer_problems = per_layer(rounds)
        problems += layer_problems
        print(f"spans written to {write_spans(rounds, meta)}")
        section = declared["per_layer"]
    else:
        values = end_to_end(rounds, setup_s)
        section = declared["end_to_end"]
    for p in problems:
        print(f"problem: {p}")
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value for declared metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name in sorted(set(values) - set(metrics)):
        print(f"unreported {name} {values[name]:.6g}")
    print(f"metric failed_ops_frac {failed / len(results):.6g} ratio "
          f"({failed} of {len(results)} ops)")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
