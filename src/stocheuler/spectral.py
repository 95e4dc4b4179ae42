"""Fourier-space fields on the periodic torus and the operators acting on them.

Fields are stored as real-FFT half spectra (``scipy.fft.rfftn`` layout): the
last axis holds indices 0..n/2 only, and each stored mode k stands for
itself and its conjugate partner -k, so physical-space values are real by
construction.  Wavenumbers are numpy's ``fftfreq`` values of the stored
indices on every axis.  Every transform goes
through the private pair ``_forward``/``_inverse``, which act on the trailing
``dim`` axes and so take a whole (components, n, ..., n) stack in one call.

All differential operators are exact on retained modes; quadratic terms are
dealiased with the sharp 2/3-rule mask.  The advection term is evaluated in
divergence form, P div(u (x) u), from the dim (dim + 1) / 2 products u_i u_j.

W^{m,2} norms (and L^2 norms and inner products) are Parseval sums over the
half spectrum with a cached weight per (grid, m); they use no transform.
Other (m, p) use collocation on the grid.  Both take a derivative of a mode
as its grid values see it (``_derivative_symbol``), so they agree on every
field, Nyquist modes included.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import ShapeMismatch, UnsupportedNorm, VersionError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform collocation grid on the d-torus, d in {2, 3}.

    n is the number of modes (and points) per axis; the dealias mask
    zeroes every mode with any |k_i| above dealias_fraction * n / 2.
    Wavenumber arrays live on the half spectrum, shape spectral_shape.
    """

    dim: int
    n: int
    length: float = TWO_PI
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")
        if not (0.0 < self.dealias_fraction <= 1.0):
            raise ValueError("dealias_fraction must lie in (0, 1]")
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def k_index(self) -> np.ndarray:
        """Integer wavenumbers, shape (dim,) + spectral_shape: the fftfreq
        values of the stored indices, so the last axis ends at -n/2."""
        full = np.fft.fftfreq(self.n, d=1.0 / self.n)
        half = full[:self.n // 2 + 1]
        axes = np.meshgrid(*([full] * (self.dim - 1) + [half]), indexing="ij")
        return np.array(axes)

    @cached_property
    def k(self) -> np.ndarray:
        """Physical wavenumbers 2*pi*k_index/length."""
        return (TWO_PI / self.length) * self.k_index

    @cached_property
    def k_sq(self) -> np.ndarray:
        return np.sum(self.k ** 2, axis=0)

    @cached_property
    def k_sq_safe(self) -> np.ndarray:
        ks = self.k_sq.copy()
        ks[(0,) * self.dim] = 1.0
        return ks

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        cutoff = self.dealias_fraction * self.n / 2.0
        return np.all(np.abs(self.k_index) <= cutoff + 1e-12, axis=0)

    @cached_property
    def ik(self) -> np.ndarray:
        """Fourier symbols i k_j of the first derivatives."""
        return 1j * self.k

    @cached_property
    def nyquist(self) -> np.ndarray:
        """Per axis j, True where |k_j| = n/2."""
        return np.abs(self.k_index) == self.n // 2

    @cached_property
    def hermitian_weight(self) -> np.ndarray:
        """How many full-spectrum modes each stored mode stands for: 1 on the
        k_last = 0 and Nyquist planes, 2 elsewhere."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[[0, -1]] = 1.0
        return w

    @cached_property
    def grad_symbols(self) -> np.ndarray:
        """Symbols of d_1, ..., d_dim as the grid values see them."""
        return np.stack([_derivative_symbol(self, (j,))
                         for j in range(self.dim)])

    @cached_property
    def _parseval_weights(self) -> dict[int, np.ndarray]:
        """Parseval weight per derivative order m, filled on first use."""
        return {}

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Physical coordinates, shape (dim, n, ..., n)."""
        x1 = np.arange(self.n) * self.dx
        axes = np.meshgrid(*([x1] * self.dim), indexing="ij")
        return np.array(axes)

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.dim


def _forward(values: np.ndarray, dim: int) -> np.ndarray:
    """Half spectra of real values over their trailing dim axes."""
    return scipy.fft.rfftn(values, axes=tuple(range(-dim, 0)))


def _inverse(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Real physical values of half spectra over their trailing axes."""
    return scipy.fft.irfftn(coeffs, s=grid.shape,
                            axes=tuple(range(-grid.dim, 0)))


@dataclass
class ScalarField:
    """Scalar spectral field (e.g. 2D vorticity)."""

    grid: Grid
    coeffs: np.ndarray

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "ScalarField":
        return cls(grid, _forward(np.asarray(values, dtype=float), grid.dim))

    def to_physical(self) -> np.ndarray:
        return _inverse(self.coeffs, self.grid)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.coeffs.copy())

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c: float) -> "ScalarField":
        return ScalarField(self.grid, self.coeffs * c)

    __rmul__ = __mul__


@dataclass
class SpectralField:
    """Vector spectral field; coeffs shape (dim,) + grid.spectral_shape."""

    grid: Grid
    coeffs: np.ndarray
    divergence_free: bool = False

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray,
                      divergence_free: bool = False) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.dim,) + grid.shape:
            raise ShapeMismatch(
                f"expected shape {(grid.dim,) + grid.shape}, got {values.shape}")
        return cls(grid, _forward(values, grid.dim), divergence_free)

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros((grid.dim,) + grid.spectral_shape,
                                  dtype=complex), divergence_free=True)

    def to_physical(self) -> np.ndarray:
        return _inverse(self.coeffs, self.grid)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy(), self.divergence_free)

    def max_divergence(self) -> float:
        """max_k |k . u_hat(k)|, the divergence-free defect in Fourier space."""
        div = np.sum(self.grid.k * self.coeffs, axis=0)
        return float(np.max(np.abs(div)))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs + other.coeffs,
                             self.divergence_free and other.divergence_free)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs - other.coeffs,
                             self.divergence_free and other.divergence_free)

    def __mul__(self, c: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * c, self.divergence_free)

    __rmul__ = __mul__


@dataclass(frozen=True)
class NormRequest:
    """Sobolev norm selector: derivative order m, integrability p (or inf)."""

    m: int
    p: float

    def __post_init__(self):
        if self.m < 0:
            raise UnsupportedNorm(f"m must be >= 0, got {self.m}")
        if np.isinf(self.p):
            if self.m > 1:
                raise UnsupportedNorm("p = inf supported only for m in {0, 1}")
        elif self.p < 2:
            raise UnsupportedNorm(f"p must be >= 2 or inf, got {self.p}")


@dataclass(frozen=True)
class BkmBound:
    """Result of the logarithmic velocity-gradient bound."""

    value: float
    degenerate_vorticity: bool = False


# ---------------------------------------------------------------------------
# Core operators


def leray_project(f: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: u_hat -= k (k.u_hat)/|k|^2."""
    g = f.grid
    kdotu = np.sum(g.k * f.coeffs, axis=0)
    proj = f.coeffs - g.k * (kdotu / g.k_sq_safe)[None, ...]
    return SpectralField(g, proj, divergence_free=True)


def dealias(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask[None, ...],
                         f.divergence_free)


def dealias_scalar(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, f.coeffs * f.grid.dealias_mask)


def flux_divergence(grid: Grid, a: np.ndarray,
                    b: np.ndarray | None = None) -> np.ndarray:
    """Dealiased half spectrum of (div T)_i = sum_j d_j T_ij.

    a and b are physical vector fields, shape (dim,) + grid.shape.  With b
    None, T = a (x) a is symmetric and only its dim (dim + 1) / 2 entries
    i <= j are transformed; otherwise T = a (x) b - b (x) a is antisymmetric
    and only its entries i < j are.  For divergence-free a and b,
    div(a (x) a) = a.grad a and div(a (x) b - b (x) a) = b.grad a - a.grad b.
    """
    dim = grid.dim
    sign = 1.0 if b is None else -1.0
    pairs = [(i, j) for i in range(dim)
             for j in range(i + (b is not None), dim)]
    products = np.empty((len(pairs),) + grid.shape)
    for out, (i, j) in zip(products, pairs):
        if b is None:
            np.multiply(a[i], a[j], out=out)
        else:
            np.subtract(a[i] * b[j], b[i] * a[j], out=out)
    t_hat = _forward(products, dim)
    ik = grid.ik
    div = np.zeros((dim,) + grid.spectral_shape, dtype=complex)
    for t, (i, j) in zip(t_hat, pairs):
        div[i] += ik[j] * t
        if i != j:
            div[j] += sign * ik[i] * t
    div *= grid.dealias_mask
    return div


def nonlinear_term(u: SpectralField) -> SpectralField:
    """P(u . grad u) = P div(u (x) u), pseudo-spectral with 2/3-rule
    dealiasing; u must be divergence-free."""
    g = u.grid
    u_phys = _inverse(u.coeffs * g.dealias_mask, g)
    return leray_project(SpectralField(g, flux_divergence(g, u_phys)))


def curl(u: SpectralField) -> ScalarField | SpectralField:
    """2D: scalar d1 u2 - d2 u1.  3D: vector curl, divergence-free."""
    g = u.grid
    k = g.k
    if g.dim == 2:
        w = 1j * k[0] * u.coeffs[1] - 1j * k[1] * u.coeffs[0]
        return ScalarField(g, w)
    w = np.stack([
        1j * (k[1] * u.coeffs[2] - k[2] * u.coeffs[1]),
        1j * (k[2] * u.coeffs[0] - k[0] * u.coeffs[2]),
        1j * (k[0] * u.coeffs[1] - k[1] * u.coeffs[0]),
    ])
    return SpectralField(g, w, divergence_free=True)


def biot_savart(w: ScalarField | SpectralField) -> SpectralField:
    """Recover divergence-free velocity from vorticity (zero-mean w)."""
    g = w.grid
    if isinstance(w, ScalarField):
        if g.dim != 2:
            raise ShapeMismatch("scalar vorticity is 2D only")
        psi = w.coeffs / g.k_sq_safe
        u = np.stack([1j * g.k[1] * psi, -1j * g.k[0] * psi])
        u[:, 0, 0] = 0.0
        return SpectralField(g, u, divergence_free=True)
    # 3D: u_hat = i k x w_hat / |k|^2 = curl(w)_hat / |k|^2
    u = curl(w).coeffs / g.k_sq_safe
    u[(slice(None),) + (0,) * g.dim] = 0.0
    return SpectralField(g, u, divergence_free=True)


# ---------------------------------------------------------------------------
# Norms


def _components(f: ScalarField | SpectralField) -> np.ndarray:
    """The coefficients with a leading component axis."""
    return f.coeffs[None] if isinstance(f, ScalarField) else f.coeffs


def _lp_of_magnitude(mag: np.ndarray, p: float, grid: Grid) -> float:
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag ** p) * grid.cell_volume) ** (1.0 / p))


def _derivative_multiindices(dim: int, order: int):
    """All multi-indices of exactly the given total order, as axis tuples."""
    return itertools.combinations_with_replacement(range(dim), order)


def _derivative_symbol(grid: Grid, axes: tuple[int, ...]) -> np.ndarray:
    """Fourier symbol of d^alpha, alpha listed as axes, as the grid sees it.

    A mode's grid values are the real part of its exponential, so d^alpha
    vanishes there when the orders along the mode's Nyquist axes
    (|k_j| = n/2) add up to an odd number.
    """
    order = np.bincount(axes, minlength=grid.dim)
    symbol = np.ones(grid.spectral_shape, dtype=complex)
    for j in np.flatnonzero(order):
        symbol = symbol * grid.ik[j] ** order[j]
    symbol[np.tensordot(order, grid.nyquist, axes=1) % 2 == 1] = 0.0
    return symbol


def _parseval_weight(grid: Grid, m: int) -> np.ndarray:
    """Per stored mode: sum over |alpha| <= m of |symbol of d^alpha|^2,
    times the mode's Hermitian multiplicity and the Parseval factor
    length^d / n^(2d), so that ||f||_{W^{m,2}}^2 = sum weight |f_hat|^2."""
    cache = grid._parseval_weights
    if m not in cache:
        total = np.zeros(grid.spectral_shape)
        for order in range(m + 1):
            for axes in _derivative_multiindices(grid.dim, order):
                total += np.abs(_derivative_symbol(grid, axes)) ** 2
        scale = grid.length ** grid.dim / grid.n ** (2 * grid.dim)
        cache[m] = total * grid.hermitian_weight * scale
    return cache[m]


def _magnitude(values: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean magnitude over the leading component axis."""
    return np.sqrt(np.sum(values ** 2, axis=0))


def lp_norm(f: ScalarField | SpectralField, p: float) -> float:
    """L^p norm of the pointwise magnitude, by collocation quadrature."""
    mag = _magnitude(_inverse(_components(f), f.grid))
    return _lp_of_magnitude(mag, p, f.grid)


def _parseval_sum(f: ScalarField | SpectralField, m: int) -> float:
    """||f||_{W^{m,2}}^2 from the stored coefficients."""
    sq = f.coeffs.real ** 2 + f.coeffs.imag ** 2
    return float(np.sum(sq * _parseval_weight(f.grid, m)))


def l2_norm(f: ScalarField | SpectralField) -> float:
    """Spectral (Parseval) L^2 norm."""
    return float(np.sqrt(_parseval_sum(f, 0)))


def l2_inner(u: SpectralField, v: SpectralField) -> float:
    prod = (np.conj(u.coeffs) * v.coeffs).real
    return float(np.sum(prod * _parseval_weight(u.grid, 0)))


def grad_sup_norm(f: ScalarField | SpectralField) -> float:
    """max over the grid of the Frobenius magnitude of the gradient."""
    g = f.grid
    grads = _inverse(g.grad_symbols[:, None] * _components(f)[None], g)
    return float(np.sqrt(np.max(np.sum(grads ** 2, axis=(0, 1)))))


def sobolev_norm(f: ScalarField | SpectralField, req: NormRequest) -> float:
    """W^{m,p} norm: (sum_{|alpha|<=m} ||d^alpha f||_p^p)^{1/p}.

    p = 2 is a Parseval sum.  For p = inf the W^{1,inf} norm is
    max|f| + max|grad f| on the collocation grid (m = 0 drops the gradient
    term).
    """
    g = f.grid
    if np.isinf(req.p):
        val = lp_norm(f, np.inf)
        if req.m >= 1:
            val += grad_sup_norm(f)
        return val
    if req.p == 2:
        return float(np.sqrt(_parseval_sum(f, req.m)))
    comps = _components(f)
    total = 0.0
    for order in range(req.m + 1):
        for axes in _derivative_multiindices(g.dim, order):
            values = _inverse(_derivative_symbol(g, axes) * comps, g)
            total += np.sum(_magnitude(values) ** req.p) * g.cell_volume
    return float(total ** (1.0 / req.p))


def w1inf_norm(f: ScalarField | SpectralField) -> float:
    return sobolev_norm(f, NormRequest(1, np.inf))


# ---------------------------------------------------------------------------
# Mollifier, cut-off, BKM monitor


def mollify(u: SpectralField | ScalarField, eps: float):
    """Heat-kernel smoothing exp(-eps |k|^2), then Leray projection."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = u.grid
    mult = np.exp(-eps * g.k_sq)
    if isinstance(u, ScalarField):
        return ScalarField(g, u.coeffs * mult)
    return leray_project(SpectralField(g, u.coeffs * mult[None, ...]))


def cutoff_theta(x: float, R: float) -> float:
    """Smooth non-increasing cut-off: 1 on (-inf, R], 0 on [2R, inf)."""
    if R <= 0:
        raise ValueError("R must be positive")

    def q(t: float) -> float:
        return float(np.exp(-1.0 / t)) if t > 0 else 0.0

    a = q((2.0 * R - x) / R)
    b = q((x - R) / R)
    if a == 0.0:
        return 0.0
    return a / (a + b)


def bkm_upper_bound(u: SpectralField, m: int, p: float, C2: float) -> BkmBound:
    """Logarithmic bound C2 ||u||_2 + C2 ||w||_inf (1 + log+ of the norm ratio)."""
    w = curl(u)
    w_inf = lp_norm(w, np.inf)
    u_l2 = l2_norm(u)
    if w_inf < 1e-14:
        return BkmBound(C2 * u_l2, degenerate_vorticity=True)
    u_mp = sobolev_norm(u, NormRequest(m, p))
    log_plus = max(0.0, np.log(u_mp / w_inf))
    return BkmBound(C2 * u_l2 + C2 * w_inf * (1.0 + log_plus))


# ---------------------------------------------------------------------------
# Field constructors


def taylor_green(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """2D: (sin x1 cos x2, -cos x1 sin x2).  3D: the classical TG vortex."""
    x = grid.coordinates
    if grid.dim == 2:
        vals = np.stack([np.sin(x[0]) * np.cos(x[1]),
                         -np.cos(x[0]) * np.sin(x[1])]) * amplitude
    else:
        vals = np.stack([
            np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2]),
            -np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2]),
            np.zeros(grid.shape),
        ]) * amplitude
    return SpectralField.from_physical(grid, vals, divergence_free=True)


def shear_field(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """(sin x2, 0[, 0]): a single-mode shear with vanishing self-advection."""
    x = grid.coordinates
    vals = np.zeros((grid.dim,) + grid.shape)
    vals[0] = amplitude * np.sin(x[1])
    return SpectralField.from_physical(grid, vals, divergence_free=True)


def abc_field(grid: Grid, a: float = 1.0, b: float = 1.0,
              c: float = 1.0) -> SpectralField:
    """3D Arnold-Beltrami-Childress field; an eigenfunction of curl."""
    if grid.dim != 3:
        raise ShapeMismatch("ABC field is 3D only")
    x = grid.coordinates
    vals = np.stack([
        a * np.sin(x[2]) + c * np.cos(x[1]),
        b * np.sin(x[0]) + a * np.cos(x[2]),
        c * np.sin(x[1]) + b * np.cos(x[0]),
    ])
    return SpectralField.from_physical(grid, vals, divergence_free=True)


def random_divergence_free(grid: Grid, rng: np.random.Generator,
                           decay: float = 2.0, kmax: int | None = None,
                           amplitude: float = 1.0) -> SpectralField:
    """Random smooth divergence-free field with |u_hat(k)| ~ |k|^(-decay)."""
    if kmax is None:
        kmax = max(2, int(grid.dealias_fraction * grid.n / 2) - 1)
    noise = rng.standard_normal((grid.dim,) + grid.shape)
    kmag = np.sqrt(np.sum(grid.k_index ** 2, axis=0))
    envelope = np.where((kmag > 0) & (kmag <= kmax), 1.0 / (1.0 + kmag) ** decay, 0.0)
    f = leray_project(SpectralField(grid, _forward(noise, grid.dim) * envelope))
    nrm = l2_norm(f)
    if nrm > 0:
        f = f * (amplitude / nrm)
    return f


FIELD_REGISTRY = {
    "taylor_green": taylor_green,
    "shear": shear_field,
    "abc": abc_field,
}


def make_initial_field(grid: Grid, name: str, amplitude: float = 1.0,
                       seed: int = 0) -> SpectralField:
    """Build a named initial condition; 'random' uses the given seed."""
    if name == "random":
        rng = np.random.default_rng(seed)
        return random_divergence_free(grid, rng, amplitude=amplitude)
    if name not in FIELD_REGISTRY:
        raise KeyError(f"unknown initial field '{name}'")
    return FIELD_REGISTRY[name](grid, amplitude)


# ---------------------------------------------------------------------------
# Snapshot persistence


SNAPSHOT_VERSION = 2  # 1: full fftn spectra, 2: rfftn half spectra


def _check_snapshot_version(version: int) -> None:
    if version not in (1, SNAPSHOT_VERSION):
        raise VersionError(f"field snapshot version {version} is not 1 or "
                           f"{SNAPSHOT_VERSION}")


def save_field(f: SpectralField, path: str) -> None:
    """Binary snapshot (npz); round-trips bit-exactly."""
    np.savez(path, version=SNAPSHOT_VERSION, dim=f.grid.dim, n=f.grid.n,
             length=f.grid.length, dealias_fraction=f.grid.dealias_fraction,
             coeffs=f.coeffs, divergence_free=f.divergence_free)


def load_field(path: str) -> SpectralField:
    """Read a save_field snapshot; a version-1 full spectrum is cut to its
    half spectrum, which holds every mode of a real field."""
    data = np.load(path)
    _check_snapshot_version(int(data["version"]))
    grid = Grid(int(data["dim"]), int(data["n"]), float(data["length"]),
                float(data["dealias_fraction"]))
    coeffs = data["coeffs"][..., :grid.n // 2 + 1]
    return SpectralField(grid, coeffs, bool(data["divergence_free"]))


def field_to_json(f: SpectralField) -> str:
    """JSON snapshot: one (k-vector, complex d-vector) record per stored
    mode; k_last >= 0, the conjugate partners are implied."""
    g = f.grid
    modes = []
    for idx in np.ndindex(*g.spectral_shape):
        vec = f.coeffs[(slice(None),) + idx]
        if np.all(vec == 0):
            continue
        kvec = [int(g.k_index[(d,) + idx]) for d in range(g.dim)]
        modes.append([kvec, [[c.real, c.imag] for c in vec]])
    return json.dumps({
        "version": SNAPSHOT_VERSION, "dim": g.dim, "n": g.n,
        "length": g.length, "dealias_fraction": g.dealias_fraction,
        "divergence_free": f.divergence_free, "modes": modes,
    })


def field_from_json(text: str) -> SpectralField:
    """Read a field_to_json snapshot; a version-1 record with k_last < 0
    is the conjugate partner of a stored mode and is skipped, except
    k_last = -n/2, the Nyquist plane."""
    rec = json.loads(text)
    _check_snapshot_version(rec["version"])
    grid = Grid(rec["dim"], rec["n"], rec["length"], rec["dealias_fraction"])
    half = grid.n // 2
    coeffs = np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex)
    index_of = {int(v): i for i, v in enumerate(
        np.fft.fftfreq(grid.n, d=1.0 / grid.n))}
    for kvec, comps in rec["modes"]:
        if -half < kvec[-1] < 0:
            continue
        idx = tuple(index_of[k] for k in kvec)
        for d in range(grid.dim):
            coeffs[(d,) + idx] = complex(comps[d][0], comps[d][1])
    return SpectralField(grid, coeffs, rec["divergence_free"])
