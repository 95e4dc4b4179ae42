"""Wiener increment driver and the sigma(u) noise operator families.

Every keyed Gaussian draw of the package comes from keyed_generator(*key),
an SFC64 generator seeded by SeedSequence(key): a key names an independent
stream, so ensemble workers never need to coordinate RNG state.  Its two
consumers are the trajectory driver (BrownianDriver) and
analysis.gbm_exit_mc, whose keys are (seed, path chunk, time block).

The driver is stateless.  A path's increments come in blocks of
block_steps(K) steps by K modes, block b keyed by (master_seed,
trajectory_id, b): row r of block b, times sqrt(dt), is step b L + r's
increment.  A block holds at most BLOCK_NORMALS draws (64 KB) and at most
BLOCK_STEPS steps, and its length depends on K alone, so a path's draws do
not depend on the batch, chunk or dt it runs with.  A block's first rows
are the rows that drawing the whole block gives, so a run draws only the
rows it steps through.

A NoiseModel is the one place that says what alpha and "no noise" mean:
kind none has no modes, alpha belongs to linear-multiplicative noise alone,
and the model checks it where it is built (squared_alpha, which the GBM
and kappa code share).  The trajectory driver sums the path W that alpha
multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInput, InvalidParams, ShapeMismatch
from .spectral import (Grid, NormRequest, SpectralField, _project_box,
                       _rows, dealias, l2_inner, leray_project,
                       random_divergence_free, sobolev_norm)

BLOCK_STEPS = 1024
BLOCK_NORMALS = 8192


def keyed_generator(*key: int) -> np.random.Generator:
    """The SFC64 generator of SeedSequence(key), for nonnegative ints."""
    if all(0 <= i < 2 ** 32 for i in key):
        # SeedSequence turns an int below 2^32 into one uint32 word; handing
        # it the words skips its slow per-int conversion and gives the same
        # stream
        key = np.array(key, dtype=np.uint32)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


def block_steps(n_modes: int) -> int:
    """Steps per Wiener block of a path with n_modes modes."""
    return max(1, min(BLOCK_STEPS, BLOCK_NORMALS // max(1, n_modes)))


@dataclass(frozen=True)
class BrownianDriver:
    """Reproducible multi-mode Wiener increment source."""

    master_seed: int
    n_modes: int = 1

    def sample_increments(self, trajectory_id: int, step: int, dt: float,
                          n_steps: int | None = None) -> np.ndarray:
        """Step `step`'s K i.i.d. N(0, dt) increments, shape (K,); given
        n_steps, those of the n_steps steps from `step`, shape (n_steps, K).
        Deterministic given the ids: a step's increments do not depend on
        the call that draws them."""
        if dt < 0:
            raise ValueError("dt must be nonnegative")
        count = 1 if n_steps is None else n_steps
        if count < 0:
            raise ValueError("n_steps must be nonnegative")
        out = np.zeros((count, self.n_modes))
        if dt > 0 and self.n_modes and count:
            length, end = block_steps(self.n_modes), step + count
            for block in range(step // length, (end - 1) // length + 1):
                first = block * length
                lo, hi = max(step, first), min(end, first + length)
                gen = keyed_generator(self.master_seed, trajectory_id, block)
                rows = gen.standard_normal((hi - first, self.n_modes))
                out[lo - step:hi - step] = rows[lo - first:]
            out *= np.sqrt(dt)
        return out[0] if n_steps is None else out


# ---------------------------------------------------------------------------
# Pointwise map registry for Nemytskii noise (closed-form tags only, so runs
# are reproducible from a config file alone).

G_REGISTRY: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda u: u,
    "square": lambda u: u ** 2,
    "cube": lambda u: u ** 3,
    "sigmoid": lambda u: np.tanh(u),
}

NONE = "none"
ADDITIVE = "additive"
LINEAR_MULTIPLICATIVE = "linear_multiplicative"
NEMYTSKII = "nemytskii"
FUNCTIONAL = "functional"


def squared_alpha(alpha: float, nonzero: bool = True) -> float:
    """alpha ** 2; InvalidParams where it overflows, or where it is 0 and
    nonzero is set (the noise of a run may vanish, a GBM's may not)."""
    a2 = float(alpha) * float(alpha)
    if not np.isfinite(a2):
        raise InvalidParams(f"alpha^2 must be finite, got alpha={alpha}")
    if a2 == 0 and nonzero:
        raise InvalidParams(f"alpha^2 must be nonzero, got alpha={alpha}")
    return alpha ** 2


@dataclass
class NoiseModel:
    """Tagged description of the noise operator sigma.

    none:                  sigma = 0, no modes
    additive:              sigma_k fixed fields, u-independent
    linear_multiplicative: alpha * u with a single scalar Brownian motion
    nemytskii:             sigma_k(u)(x) = alpha_k(x) g(u(x)), g from registry
    functional:            sigma_k(u) = <u, profile_k>_{L^2} * alpha_k(x)

    alpha, whose square must be finite, is 0 unless linear_multiplicative;
    sigma_fields belong to additive, nemytskii and functional noise,
    profiles to functional noise, one per sigma field, and a g_tag other
    than the default to nemytskii noise.
    """

    kind: str
    alpha: float = 0.0
    sigma_fields: Sequence[SpectralField] = field(default_factory=tuple)
    g_tag: str = "identity"
    profiles: Sequence[SpectralField] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in (NONE, ADDITIVE, LINEAR_MULTIPLICATIVE, NEMYTSKII,
                             FUNCTIONAL):
            raise ValueError(f"unknown noise kind '{self.kind}'")
        if self.kind == LINEAR_MULTIPLICATIVE:
            squared_alpha(self.alpha, nonzero=False)
        elif self.alpha != 0:
            raise InvalidParams(f"noise kind '{self.kind}' has no alpha")
        # a field the kind never reads is refused, not dropped
        if self.kind in (NONE, LINEAR_MULTIPLICATIVE) and self.sigma_fields:
            raise InvalidParams(f"noise kind '{self.kind}' has no "
                                f"sigma_fields")
        if self.kind != FUNCTIONAL and self.profiles:
            raise InvalidParams(f"noise kind '{self.kind}' has no profiles")
        if self.kind != NEMYTSKII and self.g_tag != "identity":
            raise InvalidParams(f"noise kind '{self.kind}' has no g_tag")
        if (self.kind == FUNCTIONAL
                and len(self.profiles) != len(self.sigma_fields)):
            raise InvalidParams(f"functional noise needs one profile per "
                                f"sigma field, got {len(self.profiles)} "
                                f"for {len(self.sigma_fields)}")
        if self.kind == NEMYTSKII and self.g_tag not in G_REGISTRY:
            raise ValueError(f"unknown g tag '{self.g_tag}'")

    @property
    def n_modes(self) -> int:
        if self.kind == LINEAR_MULTIPLICATIVE:
            return 1
        return len(self.sigma_fields)


def zero_noise() -> NoiseModel:
    return NoiseModel(NONE)


def apply_noise(model: NoiseModel, u: SpectralField, dW: np.ndarray, *,
                out: np.ndarray | None = None):
    """P(sum_k sigma_k(u) dW_k) for one step's increments.

    dW has shape (..., K): a batch of fields u (see spectral) takes one row
    of K increments per path.  out, the steppers' form, is a box work
    array of u's batch and components: the term's kept box is written there
    and returned, and the linear-multiplicative kind makes nothing of a
    field's size.  Additive and functional noise then project their mode
    sum on the kept box alone, as the projection acts mode by mode.
    """
    dW = np.atleast_1d(np.asarray(dW, dtype=float))
    if dW.shape[-1] != model.n_modes:
        raise ShapeMismatch(
            f"got {dW.shape[-1]} increments for {model.n_modes} noise modes")
    g = u.grid
    ws = g._workspace
    ndim = g.dim + 1

    if model.kind == LINEAR_MULTIPLICATIVE:
        scale = _rows(model.alpha * dW[..., 0], ndim)
        if out is None:
            return SpectralField(g, scale * u.coeffs)
        return np.multiply(scale, ws.gather(u.coeffs, out), out=out)

    if model.kind in (ADDITIVE, FUNCTIONAL):
        # functional: sigma_k(u) = f_k(u) alpha_k with f_k an L^2 inner
        # product
        acc = np.zeros_like(u.coeffs)
        for k, sig in enumerate(model.sigma_fields):
            w = dW[..., k]
            if model.kind == FUNCTIONAL:
                w = w * l2_inner(u, model.profiles[k])
            acc += _rows(w, ndim) * sig.coeffs
        if out is None:
            return leray_project(SpectralField(g, acc))
        return _project_box(g, ws.gather(acc, out))

    if out is not None:
        return ws.gather(apply_noise(model, u, dW).coeffs, out)

    if model.n_modes == 0:
        return SpectralField(g, np.zeros_like(u.coeffs))

    # nemytskii: sum_k dW_k alpha_k(x) g(u(x)) is linear in alpha_k: one
    # transform
    gu = G_REGISTRY[model.g_tag](dealias(u).to_physical())
    amp = sum(_rows(dW[..., k], ndim) * dealias(sig).to_physical()
              for k, sig in enumerate(model.sigma_fields))
    return leray_project(SpectralField.from_physical(g, amp * gu),
                         dealiased=True)


def _sigma_stack(model: NoiseModel, u: SpectralField) -> list[SpectralField]:
    """All sigma_k(u) as individual fields (unit increments, one mode hot)."""
    out = []
    for k in range(model.n_modes):
        e = np.zeros(model.n_modes)
        e[k] = 1.0
        out.append(apply_noise(model, u, e))
    return out


def lipschitz_probe(model: NoiseModel, u: SpectralField, v: SpectralField,
                    m: int, p: float) -> float:
    """Empirical ratio ||sigma(u) - sigma(v)|| / ||u - v|| in W^{m,p}.

    The numerator is the l^2 sum over modes of per-mode W^{m,p} norms.
    """
    req = NormRequest(m, p)
    denom = sobolev_norm(u - v, req)
    if denom < 1e-14:
        raise DegenerateInput("u and v coincide to within 1e-14")
    su = _sigma_stack(model, u)
    sv = _sigma_stack(model, v)
    num_sq = sum(sobolev_norm(a - b, req) ** 2 for a, b in zip(su, sv))
    return float(np.sqrt(num_sq) / denom)


def spectrum_sigma_fields(grid: Grid, k_modes: int, gamma: float,
                          seed: int) -> list[SpectralField]:
    """k_modes random divergence-free fields with ||sigma_k|| ~ k^(-gamma)."""
    if k_modes < 0:
        raise ValueError(f"k_modes must be >= 0, got {k_modes}")
    try:
        amps = [(k + 1.0) ** (-gamma) for k in range(k_modes)]
        if not np.isfinite(amps).all():
            raise OverflowError
    except OverflowError:
        raise ValueError(f"(k + 1)^(-mode_decay) overflows at k_modes="
                         f"{k_modes}, mode_decay={gamma}") from None
    return [random_divergence_free(
        grid, np.random.default_rng(np.random.SeedSequence([seed, k])),
        amplitude=amp) for k, amp in enumerate(amps)]
