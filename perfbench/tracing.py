"""In-memory span tracer that wraps stocheuler's public functions from outside.

A traced call records a span ``[name, start, end, parent, nbytes]``.  The
package is not changed: each name is patched where its caller looks it up
while the call runs, and restored afterwards.

* ``stocheuler.dynamics.<name>`` for the spectral and noise functions that
  ``dynamics`` imports at load, and for its own steppers and ``cfl_limit``;
* ``stocheuler.spectral.leray_project``, because the steppers import it at
  call time and ``nonlinear_term`` calls it through the module globals;
* ``stocheuler.cli`` and ``stocheuler.ensemble`` for the run functions
  they import at load, ``stocheuler.analysis.gbm_exit_mc`` for the
  ``gbm-exit`` command;
* ``numpy.fft.fftn`` and ``numpy.fft.ifftn``;
* the ``BrownianDriver.sample_increments`` and
  ``TrajectoryDiagnostics.to_csv`` methods.

A layer's self time is its span's duration minus the durations of its
direct children, so the self times of one traced call tree add up to the
duration of its root span.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

NORM_FUNCTIONS = ("sobolev_norm", "w1inf_norm", "l2_norm", "lp_norm", "curl")
STEPPERS = ("step_em", "step_rk4", "step_transformed")


def _fft_bytes(args, out) -> int:
    """Bytes an FFT call reads and writes, computed from the array sizes."""
    return int(getattr(args[0], "nbytes", 0)) + int(out.nbytes)


def _csv_bytes(args, out) -> int:
    return os.path.getsize(args[1])


def patch_targets() -> list[tuple]:
    """(owner, attribute, layer name, byte counter or None) for every wrap."""
    import numpy as np
    from stocheuler import analysis, cli, dynamics, ensemble, noise, spectral

    return [
        (np.fft, "fftn", "spectral.fft", _fft_bytes),
        (np.fft, "ifftn", "spectral.fft", _fft_bytes),
        (dynamics, "nonlinear_term", "spectral.nonlinear_term", None),
        (spectral, "leray_project", "spectral.leray_project", None),
        *[(dynamics, fn, "spectral.norms", None) for fn in NORM_FUNCTIONS],
        (noise.BrownianDriver, "sample_increments",
         "noise.sample_increments", None),
        (dynamics, "apply_noise", "noise.apply_noise", None),
        *[(dynamics, fn, "dynamics.step", None) for fn in STEPPERS],
        (dynamics, "cfl_limit", "dynamics.cfl_limit", None),
        (cli, "integrate_trajectory", "dynamics.integrate_trajectory", None),
        (ensemble, "integrate_trajectory", "dynamics.integrate_trajectory",
         None),
        (dynamics.TrajectoryDiagnostics, "to_csv", "dynamics.to_csv",
         _csv_bytes),
        (cli, "run_ensemble", "ensemble.run_ensemble", None),
        (analysis, "gbm_exit_mc", "analysis.gbm_exit_mc", None),
    ]


class Tracer:
    """Collects the spans of one traced round; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count_bytes=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count_bytes is not None:
                self.spans[idx][4] = count_bytes(args, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count_bytes in patch_targets():
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, count_bytes))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer name: number of calls, self seconds and bytes."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, nbytes) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "bytes": 0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child[i]
        t["bytes"] += nbytes
    return totals
