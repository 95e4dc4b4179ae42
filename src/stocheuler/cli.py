"""Command-line surface.

Exit codes: 0 success, 1 validation/usage error (including a time step over
the CFL limit), 2 scientific failure (a checked inequality failed at the
requested parameters, a check's path went non-finite or blew up, or the
ode-bound integration could not meet its step-doubling tolerance or left
the double range).
A raised error (config, parameters, CFL, non-finite, stiffness) is one
stderr line and writes no --out file.  A PDE ensemble in which every path
failed exits as its most common failure would: 1 for a CFL violation, else
2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import analysis, checks
from .config import (apply_overrides, build_ensemble_config, build_sweep,
                     build_trajectory_config, load_config)
from .dynamics import integrate_trajectory
from .ensemble import persist_summary, run_ensemble, survival_vs_alpha_sweep
from .errors import (CflViolation, ConfigError, InvalidParams, NonFinite,
                     StiffnessFailure)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCIENCE = 2


def _out_path(path: str) -> str:
    """path, after making the directory it goes in."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _write_rows(path: str, rows: list[dict]) -> None:
    """rows as CSV under a header of the first row's keys."""
    with open(_out_path(path), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(_out_path(args.out), "w") as fh:
            fh.write(text + "\n")
    if not args.quiet:
        print(text)


def _load_doc(args) -> dict:
    doc = load_config(args.config) if args.config else {}
    return apply_overrides(doc, args.set or [])


def cmd_run(args) -> int:
    doc = _load_doc(args)
    cfg = build_trajectory_config(doc)
    diag, = integrate_trajectory(cfg, [args.seed or 0])
    if diag.failure is not None:
        raise diag.failure
    if args.out:
        diag.to_csv(_out_path(args.out))
    if not args.quiet:
        print(f"trajectory: T_final={diag.final_time:.6g} "
              f"samples={len(diag.times)} blow_up={diag.blow_up_flag} "
              f"hits={diag.hits}")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    doc = _load_doc(args)
    if args.seed is not None:
        apply_overrides(doc, [f"ensemble.master_seed={args.seed}"])
    cfg = build_ensemble_config(doc, output_dir=args.out)
    out_dir = cfg.output_dir
    sweep = build_sweep(doc, cfg.trajectory)
    summary = run_ensemble(cfg)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        persist_summary(summary, os.path.join(out_dir, "summary.json"))
    if summary.n_engineering_failures == summary.n_paths:
        reason, count = next(iter(summary.failure_reasons.items()))
        print(f"ensemble: all {summary.n_paths} paths failed; most common "
              f"reason ({count} paths): {reason}", file=sys.stderr)
        return (EXIT_USAGE if reason.startswith(f"{CflViolation.__name__}:")
                else EXIT_SCIENCE)
    if sweep is not None:
        rows = survival_vs_alpha_sweep(cfg, **sweep)
        if out_dir:
            _write_rows(os.path.join(out_dir, "sweep.csv"), rows)
    if not args.quiet:
        print(f"ensemble: n={summary.n_paths} "
              f"survival={summary.survival_fraction:.4f} "
              f"wilson99={summary.wilson_99} partial={summary.partial}")
    return EXIT_OK


def cmd_gbm_exit(args) -> int:
    params = analysis.GBMParams(mu=args.mu, alpha=args.alpha, x0=args.x0,
                                R=args.R)
    bound = analysis.gbm_survival_bound(params)
    est = analysis.gbm_exit_mc(params, args.T, args.dt, args.n_paths,
                               seed=args.seed or 0)
    survival_mc = 1.0 - est.p_hit
    surv_lo = 1.0 - est.wilson_99[1]
    surv_hi = 1.0 - est.wilson_99[0]
    # the analytic statement P(survive) >= bound fails statistically only if
    # the interval's upper end sits below the bound
    consistent = surv_hi >= bound
    _emit(args, {
        "params": {"mu": params.mu, "alpha": params.alpha,
                   "x0": params.x0, "R": params.R,
                   "lambda_c": params.lambda_c},
        "analytic": {"survival_lower_bound": bound},
        "estimate": {"p_hit": est.p_hit, "survival": survival_mc,
                     "n_paths": est.n_paths, "T": est.T, "dt": est.dt},
        "interval": {"p_hit_99": list(est.wilson_99),
                     "survival_99": [surv_lo, surv_hi]},
        "consistent": consistent,
    })
    return EXIT_OK if consistent else EXIT_SCIENCE


def cmd_ode_bound(args) -> int:
    rows = []
    ok = True
    for R in args.R_list:
        for a2 in args.alpha2_list:
            alpha = float(np.sqrt(a2))
            kk = analysis.kappa_K(R, alpha, args.Cbar)
            params = analysis.OdeLemmaParams(
                R=R, alpha=alpha, Cbar=args.Cbar, y0=1.0,
                z_tag=args.z_profile, log_y0=kk.log_kappa)
            res = analysis.ode_bound_check(params, dt=args.dt)
            ok = ok and res.bound_satisfied
            rows.append({"R": R, "alpha2": a2,
                         "log_y0": kk.log_kappa,
                         "bound_satisfied": res.bound_satisfied,
                         "margin": res.margin})
    _emit(args, {"Cbar": args.Cbar, "z_profile": args.z_profile,
                 "cells": rows, "all_satisfied": ok})
    return EXIT_OK if ok else EXIT_SCIENCE


def cmd_kappa_table(args) -> int:
    rows = []
    all_K_ok = True
    for R in args.R_list:
        for a2 in args.alpha2_list:
            kk = analysis.kappa_K(R, float(np.sqrt(a2)), args.Cbar)
            all_K_ok = all_K_ok and (kk.K >= 2.0)
            rows.append({"R": R, "alpha2": a2, "K": kk.K,
                         "kappa": kk.kappa, "log_K": kk.log_K,
                         "log_kappa": kk.log_kappa,
                         "kappa_underflow": kk.kappa_underflow})
    if args.out:
        _write_rows(args.out, rows)
    if not args.quiet:
        for r in rows:
            print(f"R={r['R']:g} alpha2={r['alpha2']:g} "
                  f"log_K={r['log_K']:.6g} kappa={r['kappa']:.6g}"
                  f"{' (underflow)' if r['kappa_underflow'] else ''}")
    return EXIT_OK if all_K_ok else EXIT_SCIENCE


def cmd_transform_check(args) -> int:
    res = checks.transform_equivalence_check(
        n=args.n, alpha=args.alpha, T=args.T,
        dts=tuple(args.dt_list), seed=args.seed)
    ok = all(1.4 <= r <= 2.6 for r in res.ratios)
    _emit(args, {"dts": res.dts, "errors": res.errors,
                 "ratios": res.ratios, "ratios_in_band": ok})
    return EXIT_OK if ok else EXIT_SCIENCE


def cmd_mollifier_check(args) -> int:
    res = checks.mollifier_check(seed=args.seed)
    ok = (res.uniform_bound_ok and res.gain_bounded
          and res.convergence_monotone and res.converged_to_zero)
    _emit(args, {"uniform_bound_ok": res.uniform_bound_ok,
                 "derivative_gain_constant": res.derivative_gain_constant,
                 "gain_bounded": res.gain_bounded,
                 "convergence_monotone": res.convergence_monotone,
                 "converged_to_zero": res.converged_to_zero})
    return EXIT_OK if ok else EXIT_SCIENCE


def _float_list(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got '{text}'")
    return values


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got '{text}'")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1, not 2 (2 is reserved
    for scientific failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stocheuler",
        description="Pseudo-spectral laboratory for the stochastic "
                    "incompressible Euler equations on the torus")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p, config: bool = False, seed: bool = True):
        # only the flags the subcommand reads
        if config:
            p.add_argument("--config", help="YAML config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="config override (dotted keys)")
        p.add_argument("--out", help="output file or directory")
        if seed:
            p.add_argument("--seed", type=_seed, help="non-negative seed "
                           "override (under 'run', the trajectory id)")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("run", help="integrate one trajectory")
    common(p, config=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ensemble", help="run a Monte Carlo batch")
    common(p, config=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("gbm-exit",
                       help="GBM exit probability: MC vs analytic bound")
    common(p)
    p.add_argument("--mu", type=float, default=3.0 / 8.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--R", type=float, default=16.0)
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--n-paths", type=int, default=100000)
    p.set_defaults(func=cmd_gbm_exit)

    p = sub.add_parser("ode-bound",
                       help="worst-case ODE sweep for the kappa/K lemma")
    common(p, seed=False)
    p.add_argument("--R-list", type=_float_list, default=[1.0, 2.0, 4.0])
    p.add_argument("--alpha2-list", type=_float_list,
                   default=[1.0, 4.0, 16.0])
    p.add_argument("--Cbar", type=float, default=1.0)
    p.add_argument("--z-profile", default="extremal")
    p.add_argument("--dt", type=float, default=1e-2)
    p.set_defaults(func=cmd_ode_bound)

    p = sub.add_parser("kappa-table", help="tabulate K and kappa")
    common(p, seed=False)
    p.add_argument("--R-list", type=_float_list, default=[1.0, 2.0, 4.0])
    p.add_argument("--alpha2-list", type=_float_list,
                   default=[1.0, 4.0, 16.0, 64.0])
    p.add_argument("--Cbar", type=float, default=1.0)
    p.set_defaults(func=cmd_kappa_table)

    p = sub.add_parser("transform-check",
                       help="transform equivalence under dt refinement")
    common(p)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--T", type=float, default=0.5)
    p.add_argument("--dt-list", type=_float_list,
                   default=[1e-2, 5e-3, 2.5e-3])
    p.set_defaults(func=cmd_transform_check, seed=67)

    p = sub.add_parser("mollifier-check",
                       help="numeric smoothing-operator properties")
    common(p)
    p.set_defaults(func=cmd_mollifier_check, seed=5)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage()
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidParams as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CflViolation as exc:
        print(f"cfl violation: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFinite as exc:
        print(f"non-finite result: {exc}", file=sys.stderr)
        return EXIT_SCIENCE
    except StiffnessFailure as exc:
        print(f"stiffness failure: {exc}", file=sys.stderr)
        return EXIT_SCIENCE


if __name__ == "__main__":
    sys.exit(main())
