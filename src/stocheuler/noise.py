"""Wiener increment driver and the sigma(u) noise operator families.

The driver is stateless: every (master_seed, trajectory_id, step) triple
keys an independent counter-based Philox stream, so ensemble workers never
need to coordinate RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInput, ShapeMismatch
from .spectral import (Grid, NormRequest, SpectralField, _rows, dealias,
                       l2_inner, leray_project, random_divergence_free,
                       sobolev_norm)


@dataclass(frozen=True)
class BrownianDriver:
    """Reproducible multi-mode Wiener increment source."""

    master_seed: int
    n_modes: int = 1

    def _generator(self, trajectory_id: int, step: int) -> np.random.Generator:
        ids = [self.master_seed, trajectory_id, step]
        if all(0 <= i < 2 ** 32 for i in ids):
            # SeedSequence turns an int below 2^32 into one uint32 word;
            # handing it the words skips its slow per-int conversion and
            # gives the same stream
            ids = np.array(ids, dtype=np.uint32)
        ss = np.random.SeedSequence(ids)
        return np.random.Generator(np.random.Philox(ss))

    def sample_increments(self, trajectory_id: int, step: int,
                          dt: float) -> np.ndarray:
        """K i.i.d. N(0, dt) increments, deterministic given the ids."""
        if dt < 0:
            raise ValueError("dt must be nonnegative")
        if dt == 0:
            return np.zeros(self.n_modes)
        gen = self._generator(trajectory_id, step)
        return np.sqrt(dt) * gen.standard_normal(self.n_modes)


# ---------------------------------------------------------------------------
# Pointwise map registry for Nemytskii noise (closed-form tags only, so runs
# are reproducible from a config file alone).

G_REGISTRY: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda u: u,
    "square": lambda u: u ** 2,
    "cube": lambda u: u ** 3,
    "sigmoid": lambda u: np.tanh(u),
}

ADDITIVE = "additive"
LINEAR_MULTIPLICATIVE = "linear_multiplicative"
NEMYTSKII = "nemytskii"
FUNCTIONAL = "functional"


@dataclass
class NoiseModel:
    """Tagged description of the noise operator sigma.

    additive:              sigma_k fixed fields, u-independent
    linear_multiplicative: alpha * u with a single scalar Brownian motion
    nemytskii:             sigma_k(u)(x) = alpha_k(x) g(u(x)), g from registry
    functional:            sigma_k(u) = <u, profile_k>_{L^2} * alpha_k(x)
    """

    kind: str
    alpha: float = 0.0
    sigma_fields: Sequence[SpectralField] = field(default_factory=tuple)
    g_tag: str = "identity"
    profiles: Sequence[SpectralField] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in (ADDITIVE, LINEAR_MULTIPLICATIVE, NEMYTSKII,
                             FUNCTIONAL):
            raise ValueError(f"unknown noise kind '{self.kind}'")
        if self.kind == NEMYTSKII and self.g_tag not in G_REGISTRY:
            raise ValueError(f"unknown g tag '{self.g_tag}'")

    @property
    def n_modes(self) -> int:
        if self.kind == LINEAR_MULTIPLICATIVE:
            return 1
        return len(self.sigma_fields)


def zero_noise() -> NoiseModel:
    return NoiseModel(ADDITIVE, sigma_fields=())


def apply_noise(model: NoiseModel, u: SpectralField,
                dW: np.ndarray) -> SpectralField:
    """P(sum_k sigma_k(u) dW_k) for one step's increments.

    dW has shape (..., K): a batch of fields u (see spectral) takes one row
    of K increments per path.
    """
    dW = np.atleast_1d(np.asarray(dW, dtype=float))
    if dW.shape[-1] != model.n_modes:
        raise ShapeMismatch(
            f"got {dW.shape[-1]} increments for {model.n_modes} noise modes")
    g = u.grid
    ndim = g.dim + 1
    per_mode = np.moveaxis(dW, -1, 0)  # the K per-path increment arrays

    if model.kind == LINEAR_MULTIPLICATIVE:
        return SpectralField(g, _rows(model.alpha * per_mode[0], ndim)
                             * u.coeffs)

    if model.n_modes == 0:
        return SpectralField(g, np.zeros_like(u.coeffs))

    if model.kind == ADDITIVE:
        acc = np.zeros_like(u.coeffs)
        for w, sig in zip(per_mode, model.sigma_fields):
            acc += _rows(w, ndim) * sig.coeffs
        return leray_project(SpectralField(g, acc))

    if model.kind == NEMYTSKII:
        # sum_k dW_k alpha_k(x) g(u(x)) is linear in alpha_k: one transform
        gu = G_REGISTRY[model.g_tag](dealias(u).to_physical())
        amp = sum(_rows(w, ndim) * dealias(sig).to_physical()
                  for w, sig in zip(per_mode, model.sigma_fields))
        return leray_project(SpectralField.from_physical(g, amp * gu),
                             dealiased=True)

    # functional: sigma_k(u) = f_k(u) alpha_k with f_k an L^2 inner product
    acc = np.zeros_like(u.coeffs)
    for w, sig, prof in zip(per_mode, model.sigma_fields, model.profiles):
        acc += _rows(w * l2_inner(u, prof), ndim) * sig.coeffs
    return leray_project(SpectralField(g, acc))


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
