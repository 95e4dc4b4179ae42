"""Fourier-space fields on the periodic torus and the operators acting on them.

Fields are stored as real-FFT half spectra (``scipy.fft.rfftn`` layout): the
last axis holds indices 0..n/2 only, and each stored mode k stands for
itself and its conjugate partner -k, so physical-space values are real by
construction.  Wavenumbers are numpy's ``fftfreq`` values of the stored
indices on every axis.  Every field is made and read by the grid
workspace's passes (below): ``_forward``/``_inverse`` run them on the
trailing ``dim`` axes of a whole (components, n, ..., n) stack.
scipy's rfftn and irfftn are the tests' oracle for them.  The state
invariant: every field a run holds is dealias(leray_project(.)) of something
(Orszag's 2/3 rule).  The initial fields are built so, and every step keeps
it, so each inverse of a state may be pruned.

Batch axes: a field's coefficients may carry any leading axes in front of
(dim,) + spectral_shape, one entry per path, and every operator the
trajectory driver runs (dealias, leray_project, nonlinear_term, the sup
norms, the Parseval sums, l2_norm and sobolev_norm for p = 2 and p = inf)
acts on each path alone.  The component axis is -(dim + 1).  A reduction
runs over the trailing axes and returns one value per path: a float for an
unbatched field, else an array of the batch shape.  A path's values in a
batch are bit for bit its values alone: the transforms give each row the
same result batched or not (tests/test_spectral.py guards this), and every
reduction sums one path's contiguous block.

All differential operators are exact on retained modes; quadratic terms are
dealiased with the sharp 2/3-rule mask.  The advection term is evaluated in
divergence form, P div(u (x) u - u_d^2 I), d the last axis, from the
dim (dim + 1) / 2 - 1 nonzero entries of that flux (5 in 3D, 2 in 2D): the
projection removes the gradient of u_d^2, and the mask keeps it a gradient.
This is the package's one advection kernel.  Besides it the module holds
the Leray projection, curl (one component in 2D), the mollifier and initial
fields.

The workspace.  Each grid owns one ``_Workspace`` (``Grid._workspace``),
which holds every large array of the advection kernel, of the sampled
view, of _inverse and of the steppers, sized to the largest batch seen so
far; a smaller batch uses the start of it.  The kernel, the view and
_inverse never run at once, so they share one real and one complex pool.
What an operator returns is never a work array.  The workspace's
transforms run the 1-D passes that scipy's rfftn and irfftn run, in their
order (forward: the last axis, then -dim .. -2; inverse: -dim .. -2, then
the last axis): numpy's rfft/irfft with ``out=`` on the last axis,
scipy.fft's fft/ifft in place on the others, and irfftn's 1/n^dim after
the last pass, as pocketfft applies it.  _c2c imports scipy.fft, so it
loads at a process's first c2c pass and a command that transforms no field
never loads it.  Pruned transforms skip lines
that the 2/3 rule makes zero: the inverse of a dealiased field (a state)
skips the lines that hold only masked zeros, and the forward transform of
the flux products skips the lines whose outputs the mask discards (at
n = 32, 21 of 32 indices are kept on a full axis and 11 of 17 on the half
axis).  A skipped inverse line holds zeros, which its transform keeps, and
a skipped forward line feeds only modes the mask zeroes, so the grid
values are scipy's bit for bit, and so are the modes inside the mask.

The kept box.  The mask keeps a box of modes: on each full axis the runs
0..c and n-c..n-1, on the half axis 0..c (21 * 21 * 11 of 32 * 32 * 17
stored modes at 3D n = 32, 28%).  The workspace packs it into its own
arrays by basic-slice block copies (4 blocks in 3D, 2 in 2D).  The
advection kernel is box in, box out, and the steppers gather u's box once
per step, work on boxes and scatter once (see dynamics).  Each mode of the
box sees the same operations in the same order on the same values as on
the whole array, and dealias's multiply by the mask's True is kept as a
multiply by True, so every mode inside the mask is the whole-array result
bit for bit; every mode outside it is +0.0, where the mask's multiply by
False left +-0.0 or, on a non-finite value, NaN.

W^{m,2} norms (and L^2 norms and inner products) are Parseval sums over the
half spectrum with a read-only weight cached per (dim, n, length, m), so
the grids of successive runs share it; they use no transform.
Other (m, p) use collocation on the grid.  Both take a derivative of a mode
as its grid values see it (``_derivative_symbol``), so they agree on every
field, Nyquist modes included.

Sup norms accumulate squares in place and take the sqrt once, after the
max.  A sampled state's max|u|, max|grad u| and max|curl u| come from
``_sup_view``: one pruned inverse of u and one of its whole gradient
stack, the curl read as the antisymmetric part of the grid gradient.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ShapeMismatch, UnsupportedNorm

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
        if not 0 < self.length < np.inf:
            raise ValueError("length must be positive and finite")

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
    def dealias_mask_complex(self) -> np.ndarray:
        """The mask as a multiply casts it: the same bits, no cast."""
        return self.dealias_mask.astype(complex)

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
    def _workspace(self) -> "_Workspace":
        return _Workspace(self)

    def __getstate__(self):
        # work arrays are not state: a pickled grid (an ensemble's worker
        # gets one per chunk) makes its own workspace
        state = self.__dict__.copy()
        state.pop("_workspace", None)
        return state

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Physical coordinates, shape (dim, n, ..., n)."""
        x1 = np.arange(self.n) * self.dx
        axes = np.meshgrid(*([x1] * self.dim), indexing="ij")
        return np.array(axes)

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.dim


def _trailing(ndim: int) -> tuple[int, ...]:
    return tuple(range(-ndim, 0))


def _per_path(x):
    """A reduction's result: a float for an unbatched field, else one value
    per path."""
    return float(x) if np.ndim(x) == 0 else x


def _rows(c, ndim: int):
    """c, one scalar per path, shaped to scale the trailing ndim axes of
    each path's array; a plain scalar is returned as it is."""
    return c if np.ndim(c) == 0 else np.reshape(c, np.shape(c) + (1,) * ndim)


def _components(a: np.ndarray, dim: int) -> list[np.ndarray]:
    """Views of the components of a, whose component axis is -(dim + 1)
    (np.moveaxis to the front, without its per-call cost)."""
    tail = (slice(None),) * dim
    return [a[(Ellipsis, c) + tail] for c in range(a.shape[-(dim + 1)])]


def _forward(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Half spectra of real values over their trailing dim axes, by the
    workspace's unpruned passes, in a new array."""
    spectra = np.empty(values.shape[:-grid.dim] + grid.spectral_shape,
                       complex)
    grid._workspace.forward(values, spectra, pruned=False)
    return spectra


def _inverse(coeffs: np.ndarray, grid: Grid,
             pruned: bool = False) -> np.ndarray:
    """Real grid values of half spectra, shape (..., c) +
    grid.spectral_shape, by the workspace's passes on a copy in its complex
    pool, in a new array; pruned=True copies and inverts dealias(coeffs)."""
    axis = -(grid.dim + 1)
    ws = grid._workspace
    spectra, = ws.arrays(coeffs.shape[:axis], ("complex", coeffs.shape[axis]))
    if pruned:
        np.multiply(coeffs, grid.dealias_mask_complex, out=spectra)
    else:
        np.copyto(spectra, coeffs)
    values = np.empty(coeffs.shape[:-grid.dim] + grid.shape)
    ws.inverse(spectra, values, pruned)
    return values


# the (i, j) of the entries the advection kernel transforms of the flux
# u_i u_j - delta_ij u_d^2 (d the last axis): every i <= j but (d, d), whose
# entry is zero; the last pair is off-diagonal.  And the (a, b) of each curl
# component d_a u_b - d_b u_a
_FLUX_PAIRS = {dim: tuple((i, j) for i in range(dim) for j in range(i, dim)
                          if i < dim - 1)
               for dim in (2, 3)}
_CURL_PAIRS = {2: ((0, 1),), 3: ((1, 2), (2, 0), (0, 1))}


def _runs(keep: np.ndarray) -> list[slice]:
    """The runs of True in a 1-D boolean array, as slices."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], keep, [0]))))
    return [slice(a, b) for a, b in zip(edges[::2], edges[1::2])]


def _c2c(spectra: np.ndarray, axis: int, index: tuple,
         forward: bool) -> None:
    """One unscaled complex pass of scipy.fft along axis over the lines
    spectra[index], in place."""
    import scipy.fft  # loaded by the first pass: see the module docstring
    lines = spectra[index]
    fft = scipy.fft.fft if forward else scipy.fft.ifft
    done = fft(lines, axis=axis, norm="backward" if forward else "forward",
               overwrite_x=True)
    # overwrite_x allows, but does not promise, an in-place transform
    if not np.may_share_memory(done, lines):
        lines[...] = done


class _Workspace:
    """The work arrays of one grid: those of the advection kernel, of the
    sampled view, of the steppers and of the projection on the kept box,
    with the grid's pruned transforms and its box symbols.

    Five flat pools hold the arrays: grid values ("real"), half spectra
    ("complex"), boxes of the kernel and of leray_project ("box"), of
    _project_box ("proj") and of the steppers ("step": u's box, k1, one k
    at a time and the stage input, or nonlinear_term's box in and out).
    The kernel, the view and _inverse never run at once, so they share the
    first two, and nothing that a stepper calls carves from "step".  A pool
    is sized to the largest batch seen so far, and each call to arrays()
    carves its arrays from the start of the pools, so a batch whose paths
    retired touches less of them.  An array carved from a pool is valid
    until the next call that carves from that pool.

    The kept box is the modes the dealias mask keeps, packed: on a full
    axis the runs 0..c and n-c..n-1 side by side, on the half axis 0..c.
    Each block of it (one run per axis: 4 in 3D, 2 in 2D) is a basic slice
    of the half spectrum, so gather() and scatter() are block copies.  The
    workspace holds arrays only, never its grid, so a grid dies with its
    last reference.
    """

    def __init__(self, grid: Grid):
        dim, n = grid.dim, grid.n
        self.n = n
        self.scale = 1.0 / n ** dim  # irfftn's, applied after its last pass
        mask = grid.dealias_mask
        full = _runs(mask[(slice(None),) + (0,) * (dim - 1)])
        half = _runs(mask[(0,) * (dim - 1)])
        runs = [full] * (dim - 1) + [half]
        packed = [[slice(end - (r.stop - r.start), end) for r, end in
                   zip(axis_runs, itertools.accumulate(
                       r.stop - r.start for r in axis_runs))]
                  for axis_runs in runs]
        self._blocks = [((Ellipsis,) + src, (Ellipsis,) + dst)
                        for src, dst in zip(itertools.product(*runs),
                                            itertools.product(*packed))]
        self.box_shape = tuple(axis_runs[-1].stop for axis_runs in packed)
        pairs, curls = len(_FLUX_PAIRS[dim]), len(_CURL_PAIRS[dim])
        # per path: (dtype, grid shape, components), the components being
        # the most that the kernel (u, the flux entries and their spectra;
        # in the box the flux spectra) or the view (the gradient stack and
        # the curl) takes, or leray_project in the box; _inverse's copy of a
        # field takes less of the complex pool
        box = (complex, self.box_shape)
        self._layout = {
            "real": (float, grid.shape, max(dim + pairs, dim * dim + curls)),
            "complex": (complex, grid.spectral_shape,
                        max(dim + pairs, dim * dim)),
            "box": box + (max(pairs, dim),), "proj": box + (dim + 1,),
            "step": box + (4 * dim,),
        }
        self._pools = {name: np.empty(0, dtype)
                       for name, (dtype, _, _) in self._layout.items()}
        # the symbols the kernel and the projection read, on the box; k and
        # |k|^2 are stored as the complex values they are cast to when they
        # meet a complex field, which saves the cast and changes no bit
        self.k, self.ik, self.k_sq_safe = (
            self.box(a).astype(complex)
            for a in (grid.k, grid.ik, grid.k_sq_safe))
        # the lines each c2c pass runs: pass a (axes -dim .. -2, in
        # scipy's order) needs, on every other full axis j that is still
        # spectral (j > a inverse, j < a forward), only the dealias runs,
        # and on the half axis only the kept modes
        full_axes = range(-dim, -1)

        def lines(forward: bool) -> list[tuple[int, list[tuple]]]:
            return [(a, [(Ellipsis,) + idx for idx in itertools.product(
                *[full if j != a and (j > a) != forward else [slice(None)]
                  for j in full_axes], half)]) for a in full_axes]

        self._lines = {"forward": lines(True), "inverse": lines(False),
                       "all": [(a, [(Ellipsis,)]) for a in full_axes]}

    def arrays(self, lead: tuple[int, ...], *specs) -> list[np.ndarray]:
        """One work array per (pool, components) in specs, of shape
        lead + (components,) + the pool's grid shape, carved in order."""
        batch = math.prod(lead)
        start = dict.fromkeys(self._pools, 0)
        out = []
        for name, comps in specs:
            dtype, shape, per_path = self._layout[name]
            need = batch * per_path * math.prod(shape)
            if self._pools[name].size < need:
                self._pools[name] = np.empty(need, dtype)
            shape = lead + (comps,) + shape
            end = start[name] + math.prod(shape)
            out.append(self._pools[name][start[name]:end].reshape(shape))
            start[name] = end
        return out

    def box(self, spectra: np.ndarray) -> np.ndarray:
        """A new array holding the kept box of the half spectra."""
        return self.gather(spectra, np.empty(
            spectra.shape[:-len(self.box_shape)] + self.box_shape,
            spectra.dtype))

    def gather(self, spectra: np.ndarray, box: np.ndarray) -> np.ndarray:
        """Copy the modes of the half spectra that the dealias mask keeps
        into box, and return box."""
        for src, dst in self._blocks:
            box[dst] = spectra[src]
        return box

    def scatter(self, box: np.ndarray, spectra: np.ndarray) -> None:
        """Copy box to the modes of the half spectra that the dealias mask
        keeps; the other modes are left as they are."""
        for src, dst in self._blocks:
            spectra[src] = box[dst]

    def inverse(self, spectra: np.ndarray, values: np.ndarray,
                pruned: bool) -> None:
        """Write the grid values of the half spectra into values, by the
        1-D passes of scipy.fft.irfftn in its order; spectra is overwritten.

        pruned says that spectra vanish outside the dealias mask: a pass
        then skips the lines that hold only those zeros.
        """
        for axis, indices in self._lines["inverse" if pruned else "all"]:
            for index in indices:
                _c2c(spectra, axis, index, forward=False)
        np.fft.irfft(spectra, n=self.n, axis=-1, norm="forward", out=values)
        values *= self.scale

    def forward(self, values: np.ndarray, spectra: np.ndarray,
                pruned: bool) -> None:
        """Write the half spectra of the real values into spectra, by the
        1-D passes of scipy.fft.rfftn in its order.  pruned transforms only
        the modes inside the dealias mask: the others hold partial sums."""
        np.fft.rfft(values, axis=-1, out=spectra)
        for axis, indices in self._lines["forward" if pruned else "all"]:
            for index in indices:
                _c2c(spectra, axis, index, forward=True)


@dataclass
class SpectralField:
    """A field on the grid: its half-spectrum coefficients, shape
    (..., c) + grid.spectral_shape, with the component axis c at -(dim + 1):
    c = dim for a velocity, 1 for a scalar such as the 2D curl."""

    grid: Grid
    coeffs: np.ndarray
    # an array of per-path scalars times a field is the field's __rmul__
    __array_ufunc__ = None

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        """The field of grid values with dim or 1 components."""
        values = np.asarray(values, dtype=float)
        if (values.ndim <= grid.dim or values.shape[-grid.dim:] != grid.shape
                or values.shape[-(grid.dim + 1)] not in (1, grid.dim)):
            raise ShapeMismatch(
                f"expected shape (..., {grid.dim} or 1, "
                f"{', '.join(map(str, grid.shape))}), got {values.shape}")
        return cls(grid, _forward(values, grid))

    def to_physical(self) -> np.ndarray:
        return _inverse(self.coeffs, self.grid)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c) -> "SpectralField":
        """Scale by a scalar, or each path by its own entry of c."""
        scale = _rows(c, self.grid.dim + 1)
        return SpectralField(self.grid, self.coeffs * scale)

    __rmul__ = __mul__

    def __iadd__(self, other: "SpectralField") -> "SpectralField":
        self.coeffs += other.coeffs
        return self

    def __imul__(self, c) -> "SpectralField":
        """Scale in place, as __mul__ scales."""
        self.coeffs *= _rows(c, self.grid.dim + 1)
        return self


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


# ---------------------------------------------------------------------------
# Core operators


def leray_project(f: SpectralField, dealiased: bool = False) -> SpectralField:
    """Project onto divergence-free fields: u_hat -= k (k.u_hat)/|k|^2.

    dealiased=True projects dealias(f) on the kept box alone: only the
    modes the mask keeps are read, each gets the bits the general path
    gives dealias(f) there, and every mode outside the mask is +0.0.
    """
    g = f.grid
    axis = -(g.dim + 1)
    if not dealiased:
        kdotu = np.sum(g.k * f.coeffs, axis=axis)
        kdotu /= g.k_sq_safe
        # in place, so a batch holds one temporary of its size, not two
        proj = g.k * np.expand_dims(kdotu, axis)
        return SpectralField(g, np.subtract(f.coeffs, proj, out=proj))
    ws = g._workspace
    box, = ws.arrays(f.coeffs.shape[:axis], ("box", g.dim))
    return _field_of_box(g, _project_box(g, ws.gather(f.coeffs, box)))


def _project_box(g: Grid, box: np.ndarray) -> np.ndarray:
    """Leray-project box, the kept box of a field f, in place by the lines
    of the general path, and return it.  It first multiplies box by the
    mask's True, as dealias(f) does (it can turn a -0.0 part into +0.0)."""
    ws = g._workspace
    axis = -(g.dim + 1)
    box *= True
    proj, kdotu = ws.arrays(box.shape[:axis], ("proj", g.dim), ("proj", 1))
    np.sum(np.multiply(ws.k, box, out=proj), axis=axis, keepdims=True,
           out=kdotu)
    kdotu /= ws.k_sq_safe
    return np.subtract(box, np.multiply(ws.k, kdotu, out=proj), out=box)


def _field_of_box(g: Grid, box: np.ndarray) -> SpectralField:
    """The new field whose kept box is box and which is +0.0 outside it."""
    out = np.zeros(box.shape[:-g.dim] + g.spectral_shape, dtype=complex)
    g._workspace.scatter(box, out)
    return SpectralField(g, out)


def dealias(f: SpectralField) -> SpectralField:
    """f with every mode outside the 2/3-rule mask zeroed."""
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask_complex)


def nonlinear_term(u: SpectralField, u_phys: np.ndarray | None = None, *,
                   out: np.ndarray | None = None):
    """P(u . grad u) = P div(u (x) u), pseudo-spectral with 2/3-rule
    dealiasing; u must be divergence-free.  u_phys, when given, is
    dealias(u).to_physical(), which the term would otherwise compute.

    The projection removes any gradient, so P div(u (x) u) =
    P div(u (x) u - u_d^2 I), d the last axis (Basdevant, J. Comput. Phys.
    50, 1983), and the 2/3 rule keeps a gradient a gradient.  That flux T is
    symmetric and T_dd = 0, so only its dim (dim + 1) / 2 - 1 entries of
    _FLUX_PAIRS are transformed, and (div T)_i = sum_j i k_j T_ij; for
    divergence-free u, div(u (x) u) = u.grad u.  The sum and the projection
    run on the kept box alone (_nonlinear_box), and every mode outside the
    mask is +0.0.  out, the steppers' form, is a box array: u.coeffs is then
    u's kept box, and the term's box is written to out and returned.
    """
    g = u.grid
    if out is not None:
        return _nonlinear_box(g, u.coeffs, u_phys, out)
    ws = g._workspace
    box, term = ws.arrays(u.coeffs.shape[:-(g.dim + 1)], ("step", g.dim),
                          ("step", g.dim))
    if u_phys is None:
        ws.gather(u.coeffs, box)
    return _field_of_box(g, _nonlinear_box(g, box, u_phys, term))


def _nonlinear_box(g: Grid, box: np.ndarray, values: np.ndarray | None,
                   out: np.ndarray) -> np.ndarray:
    """nonlinear_term's core: P(u.grad u)'s kept box into out, returned,
    from u's grid values, or else from u's box, which is multiplied by True
    in place as dealias(u) is.  The other arrays are workspace arrays."""
    axis = -(g.dim + 1)
    pairs = _FLUX_PAIRS[g.dim]
    ws = g._workspace
    # the products come first, so a term given its values touches no more
    # of the real pool than the view does
    spectra, t_hat, products, u_phys, t_box = ws.arrays(
        out.shape[:axis], ("complex", g.dim), ("complex", len(pairs)),
        ("real", len(pairs)), ("real", g.dim), ("box", len(pairs)))
    if values is None:
        box *= True
        spectra[...] = 0.0
        ws.scatter(box, spectra)
        ws.inverse(spectra, u_phys, pruned=True)
        values = u_phys
    comps = _components(values, g.dim)
    flux = _components(products, g.dim)
    # u_d^2 waits in the slot of the last pair, which is off-diagonal and
    # written last
    np.multiply(comps[-1], comps[-1], out=flux[-1])
    for slot, (i, j) in zip(flux, pairs):
        np.multiply(comps[i], comps[j], out=slot)
        if i == j:
            slot -= flux[-1]
    ws.forward(products, t_hat, pruned=True)
    ws.gather(t_hat, t_box)
    out[...] = 0.0
    div_comps = _components(out, g.dim)
    # each i k_j T_ij is formed in T_ij's own slot; pair (0, 0) comes first,
    # so its slot is free to hold the first of an off-diagonal pair's two
    t_comps = _components(t_box, g.dim)
    for t, (i, j) in zip(t_comps, pairs):
        if i != j:
            div_comps[i] += np.multiply(ws.ik[j], t, out=t_comps[0])
        div_comps[j] += np.multiply(ws.ik[i], t, out=t)
    return _project_box(g, out)


def curl(u: SpectralField) -> SpectralField:
    """The vorticity: one component d1 u2 - d2 u1 in 2D, the vector curl in
    3D."""
    g = u.grid
    axis = -(g.dim + 1)
    comps = np.moveaxis(u.coeffs, axis, 0)
    return SpectralField(g, np.stack(
        [g.ik[a] * comps[b] - g.ik[b] * comps[a]
         for a, b in _CURL_PAIRS[g.dim]], axis=axis))


# ---------------------------------------------------------------------------
# Norms


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
    length^d / n^(2d), so that ||f||_{W^{m,2}}^2 = sum weight |f_hat|^2.

    Read-only, and shared by every grid of the same dim, n and length: each
    run builds its own grid, and the weight does not depend on the dealias
    fraction."""
    return _grid_parseval_weight(grid.dim, grid.n, grid.length, m)


@lru_cache(maxsize=16)
def _grid_parseval_weight(dim: int, n: int, length: float,
                          m: int) -> np.ndarray:
    # a grid of its own, dropped after the call: caching the caller's grid
    # would keep it and its workspace alive
    grid = Grid(dim, n, length)
    total = np.zeros(grid.spectral_shape)
    for order in range(m + 1):
        for axes in _derivative_multiindices(dim, order):
            total += np.abs(_derivative_symbol(grid, axes)) ** 2
    weight = total * grid.hermitian_weight * (length ** dim / n ** (2 * dim))
    weight.flags.writeable = False
    return weight


def _magnitude(values: np.ndarray, dim: int) -> np.ndarray:
    """Pointwise Euclidean magnitude over the component axis -(dim + 1)."""
    return np.sqrt(np.sum(values ** 2, axis=-(dim + 1)))


def _sup_magnitude(values: np.ndarray, dim: int):
    """Per path, max over the grid of the Euclidean magnitude of values over
    their component axis -(dim + 1): the squares added in place in np.sum's
    order, one sqrt after the max (monotone and correctly rounded, so bit
    for bit the max of the pointwise magnitudes)."""
    first, *rest = _components(values, dim)
    acc = first * first
    sq = None
    for c in rest:
        sq = np.multiply(c, c, out=sq)
        acc += sq
    return _per_path(np.sqrt(np.max(acc, axis=_trailing(dim))))


def lp_norm(f: SpectralField, p: float):
    """L^p norm of the pointwise magnitude, by collocation quadrature."""
    g = f.grid
    values = _inverse(f.coeffs, g)
    if np.isinf(p):
        return _sup_magnitude(values, g.dim)
    total = np.sum(_magnitude(values, g.dim) ** p, axis=_trailing(g.dim))
    return _per_path((total * g.cell_volume) ** (1.0 / p))


def _parseval_sum(f: SpectralField, m: int):
    """||f||_{W^{m,2}}^2 from the stored coefficients, per path."""
    sq = f.coeffs.real ** 2 + f.coeffs.imag ** 2
    return np.sum(sq * _parseval_weight(f.grid, m),
                  axis=_trailing(f.grid.dim + 1))


def l2_norm(f: SpectralField):
    """Spectral (Parseval) L^2 norm."""
    return _per_path(np.sqrt(_parseval_sum(f, 0)))


def l2_inner(u: SpectralField, v: SpectralField):
    """<u, v>_{L^2} per path of u; v is one field."""
    prod = (np.conj(u.coeffs) * v.coeffs).real
    return _per_path(np.sum(prod * _parseval_weight(u.grid, 0),
                            axis=_trailing(u.grid.dim + 1)))


def _sup_of_squares(work: np.ndarray, dim: int):
    """_sup_magnitude of a work array, squaring its components in place:
    the same squares, added in the same order."""
    first, *rest = _components(work, dim)
    acc = np.multiply(first, first, out=first)
    for c in rest:
        acc += np.multiply(c, c, out=c)
    return _per_path(np.sqrt(np.max(acc, axis=_trailing(dim))))


def _sup_view(u: SpectralField, pruned: bool = True, with_curl: bool = True):
    """u's grid values (a new array, which the trajectory driver keeps),
    and max|u|, max|grad u| (Frobenius) and max|curl u| over the grid, from
    one inverse of u and one of its gradient stack into a work array (row
    j * c + i holds d_j u_i); pruned: u vanishes outside the dealias mask,
    as every state does.  A curl component d_a u_b - d_b u_a subtracts two
    rows, and the squares add in (j, i) order, as np.sum adds the stack, so
    max|u| + max|grad u| is w1inf_norm(u) bit for bit.  The curl (None
    unless u is a velocity and with_curl is set) is curl(u)'s up to rounding
    unless u carries Nyquist modes, where curl's i k symbol and the grid
    derivative differ.
    """
    g = u.grid
    axis = -(g.dim + 1)
    lead, comps = u.coeffs.shape[:axis], u.coeffs.shape[axis]
    pairs = _CURL_PAIRS[g.dim] if with_curl and comps == g.dim else ()
    ws = g._workspace
    spectra, grads, rot = ws.arrays(
        lead, ("complex", g.dim * comps), ("real", g.dim * comps),
        ("real", len(pairs)))
    # per j: one multiply broadcast over (j, c) makes stack-size temporaries
    by_j = spectra.reshape(lead + (g.dim,) + u.coeffs.shape[axis:])
    for j, d_j in enumerate(_components(by_j, g.dim + 1)):
        np.multiply(g.grad_symbols[j], u.coeffs, out=d_j)
    ws.inverse(spectra, grads, pruned)
    rows = _components(grads, g.dim)
    for r, (a, b) in zip(_components(rot, g.dim), pairs):
        np.subtract(rows[a * comps + b], rows[b * comps + a], out=r)
    grad_max = _sup_of_squares(grads, g.dim)
    curl_max = _sup_of_squares(rot, g.dim) if pairs else None
    values = _inverse(u.coeffs, g, pruned=pruned)
    return values, _sup_magnitude(values, g.dim), grad_max, curl_max


def sobolev_norm(f: SpectralField, req: NormRequest):
    """W^{m,p} norm: (sum_{|alpha|<=m} ||d^alpha f||_p^p)^{1/p}.

    p = 2 is a Parseval sum.  For p = inf the W^{1,inf} norm is
    max|f| + max|grad f| on the collocation grid (m = 0 drops the gradient
    term).
    """
    g = f.grid
    if np.isinf(req.p):
        if req.m == 0:
            return lp_norm(f, np.inf)
        _, u_max, grad_max, _ = _sup_view(f, pruned=False, with_curl=False)
        return u_max + grad_max
    if req.p == 2:
        return _per_path(np.sqrt(_parseval_sum(f, req.m)))
    total = 0.0
    for order in range(req.m + 1):
        for axes in _derivative_multiindices(g.dim, order):
            values = _inverse(_derivative_symbol(g, axes) * f.coeffs, g)
            total += np.sum(_magnitude(values, g.dim) ** req.p,
                            axis=_trailing(g.dim)) * g.cell_volume
    return _per_path(total ** (1.0 / req.p))


def w1inf_norm(f: SpectralField):
    return sobolev_norm(f, NormRequest(1, np.inf))


# ---------------------------------------------------------------------------
# Mollifier


def mollify(u: SpectralField, eps: float) -> SpectralField:
    """Heat-kernel smoothing exp(-eps |k|^2), then Leray projection."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = u.grid
    return leray_project(SpectralField(g, u.coeffs * np.exp(-eps * g.k_sq)))


# ---------------------------------------------------------------------------
# Field constructors


def _initial_field(grid: Grid, values: np.ndarray) -> SpectralField:
    """The grid values as a state: dealiased and Leray-projected."""
    return leray_project(SpectralField.from_physical(grid, values),
                         dealiased=True)


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
    return _initial_field(grid, vals)


def shear_field(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """(sin x2, 0[, 0]): a single-mode shear with vanishing self-advection."""
    x = grid.coordinates
    vals = np.zeros((grid.dim,) + grid.shape)
    vals[0] = amplitude * np.sin(x[1])
    return _initial_field(grid, vals)


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
    return _initial_field(grid, vals)


def random_divergence_free(grid: Grid, rng: np.random.Generator,
                           decay: float = 2.0, kmax: int | None = None,
                           amplitude: float = 1.0) -> SpectralField:
    """Random smooth divergence-free field with |u_hat(k)| ~ |k|^(-decay)."""
    if kmax is None:
        kmax = max(2, int(grid.dealias_fraction * grid.n / 2) - 1)
    noise = rng.standard_normal((grid.dim,) + grid.shape)
    kmag = np.sqrt(np.sum(grid.k_index ** 2, axis=0))
    envelope = np.where((kmag > 0) & (kmag <= kmax), 1.0 / (1.0 + kmag) ** decay, 0.0)
    f = leray_project(SpectralField(grid, _forward(noise, grid) * envelope),
                      dealiased=True)
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
    """Build a named initial condition; 'random' uses the given seed.  A
    field whose L^2 norm overflows is a ValueError."""
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    if name not in FIELD_REGISTRY and name != "random":
        raise KeyError(f"unknown initial field '{name}'")
    u = (random_divergence_free(grid, np.random.default_rng(seed),
                                amplitude=amplitude) if name == "random"
         else FIELD_REGISTRY[name](grid, amplitude))
    with np.errstate(over="ignore", invalid="ignore"):
        norm = l2_norm(u)
    if not np.isfinite(norm):
        raise ValueError(f"the field's L^2 norm overflows at amplitude "
                         f"{amplitude}")
    return u
