"""Field operations: projection, nonlinear term, norms, mollifier."""

import gc
import itertools
import pathlib
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.fft

from stocheuler import spectral as sp
from stocheuler.errors import ShapeMismatch, UnsupportedNorm


def _random_field(grid, seed=0, amplitude=1.0):
    rng = np.random.default_rng(seed)
    return sp.random_divergence_free(grid, rng, amplitude=amplitude)


def _zero(grid):
    """The zero velocity field on grid."""
    return sp.SpectralField(
        grid, np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex))


def _max_divergence(f):
    """max_k |k . f_hat(k)|, the divergence-free defect in Fourier space."""
    div = np.sum(f.grid.k * f.coeffs, axis=-(f.grid.dim + 1))
    return float(np.max(np.abs(div)))


# ---------------------------------------------------------------------------
# Grid


def test_grid_validation():
    with pytest.raises(ValueError):
        sp.Grid(4, 16)
    with pytest.raises(ValueError):
        sp.Grid(2, 15)
    with pytest.raises(ValueError):
        sp.Grid(2, 4)
    with pytest.raises(ValueError):
        sp.Grid(2, 16, dealias_fraction=0.0)


def test_dealias_mask_cutoff():
    g = sp.Grid(2, 12)
    cutoff = g.dealias_fraction * g.n / 2.0
    inside = np.all(np.abs(g.k_index) <= cutoff + 1e-12, axis=0)
    assert np.array_equal(g.dealias_mask, inside)


# ---------------------------------------------------------------------------
# Leray projection


def test_projection_kills_pure_gradient():
    g = sp.Grid(2, 16)
    x = g.coordinates
    phi = np.cos(x[0])
    grad_phi = np.stack([-np.sin(x[0]), np.zeros(g.shape)])
    f = sp.SpectralField.from_physical(g, grad_phi)
    pf = sp.leray_project(f)
    assert sp.l2_norm(pf) < 1e-12


def test_projection_identity_on_divergence_free():
    g = sp.Grid(2, 32)
    u = _random_field(g, seed=1)
    pu = sp.leray_project(u)
    assert sp.l2_norm(pu - u) <= 1e-14 * max(sp.l2_norm(u), 1.0)


def test_projection_helmholtz_split():
    # f = grad(sin(x1 + x2)) + (sin x2, 0): projection recovers the
    # divergence-free part exactly (constructed split, 16^2 grid)
    g = sp.Grid(2, 16)
    x = g.coordinates
    grad_phi = np.stack([np.cos(x[0] + x[1]), np.cos(x[0] + x[1])])
    w = np.stack([np.sin(x[1]), np.zeros(g.shape)])
    f = sp.SpectralField.from_physical(g, grad_phi + w)
    pf = sp.leray_project(f)
    expected = sp.SpectralField.from_physical(g, w)
    assert np.max(np.abs(pf.coeffs - expected.coeffs)) < 1e-12 * g.n ** 2


def test_projection_idempotent_and_orthogonal():
    for dim, n in ((2, 16), (3, 8)):
        g = sp.Grid(dim, n)
        rng = np.random.default_rng(dim)
        vals = rng.standard_normal((dim,) + g.shape)
        f = sp.SpectralField.from_physical(g, vals)
        pf = sp.leray_project(f)
        ppf = sp.leray_project(pf)
        nf = sp.l2_norm(f)
        assert sp.l2_norm(ppf - pf) <= 1e-12 * nf
        # <Pf, f - Pf> = 0
        assert abs(sp.l2_inner(pf, f - pf)) <= 1e-12 * nf ** 2
        assert _max_divergence(pf) <= 1e-10 * nf


# ---------------------------------------------------------------------------
# Nonlinear term


def _full_spectrum(half, n):
    """The full fftn-layout spectrum of stored half spectra (last axis
    n//2 + 1 long), rebuilt by c(-k) = conj c(k) index arithmetic."""
    full = np.zeros(half.shape[:-1] + (n,), dtype=complex)
    full[..., :n // 2 + 1] = half
    for idx in np.ndindex(*full.shape[1:]):
        if idx[-1] > n // 2:
            partner = tuple((-i) % n for i in idx)
            full[(slice(None),) + idx] = np.conj(half[(slice(None),) + partner])
    return full


def _convolution_oracle(u):
    """Dense Fourier convolution of P(u . grad u) on a small grid.

    Accumulates u_hat(m) . (i q) u_hat(q) at k = m + q over every pair of
    retained modes; alias-free on the dealiased band by the 2/3 rule.
    """
    g = u.grid
    n, dim = g.n, g.dim
    freqs = np.fft.fftfreq(n, 1.0 / n).astype(int)
    index_of = {int(f): i for i, f in enumerate(freqs)}
    cutoff = g.dealias_fraction * n / 2.0
    ud = _full_spectrum(u.coeffs * g.dealias_mask[None, ...], n)
    out = np.zeros_like(ud)
    nz = [idx for idx in np.ndindex(*g.shape)
          if np.any(ud[(slice(None),) + idx])]
    for m_idx in nz:
        um = ud[(slice(None),) + m_idx]
        for q_idx in nz:
            uq = ud[(slice(None),) + q_idx]
            kq = np.array([freqs[q_idx[d]] for d in range(dim)], dtype=float)
            ks = [freqs[m_idx[d]] + freqs[q_idx[d]] for d in range(dim)]
            if any(abs(k) > cutoff for k in ks):
                continue
            k_out = tuple(index_of[k] for k in ks)
            # adv_i += sum_j u_j(m) * (i q_j) u_i(q), fftn normalization 1/n^d
            factor = np.sum(um * 1j * kq) / n ** dim
            for i in range(dim):
                out[(i,) + k_out] += factor * uq[i]
    return sp.leray_project(sp.SpectralField(g, out[..., :n // 2 + 1]))


@pytest.mark.parametrize("make", [
    lambda g: sp.taylor_green(g),
    lambda g: _random_field(g, seed=11),
])
def test_nonlinear_term_matches_dense_convolution(make):
    g = sp.Grid(2, 8)
    u = sp.dealias(make(g))
    got = sp.nonlinear_term(u)
    want = _convolution_oracle(u)
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-10


def test_nonlinear_term_dense_convolution_3d():
    g = sp.Grid(3, 8)
    u = sp.dealias(sp.abc_field(g))
    got = sp.nonlinear_term(u)
    want = _convolution_oracle(u)
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-10


def test_nonlinear_term_dense_convolution_3d_random():
    # ABC is Beltrami, so its projected advection term is rounding noise
    # and the oracle above compares zero with zero; a random field's term
    # is not small
    g = sp.Grid(3, 8)
    u = sp.dealias(_random_field(g, seed=11))
    got = sp.nonlinear_term(u)
    want = _convolution_oracle(u)
    assert np.max(np.abs(want.coeffs)) > 0.1
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-10
    assert abs(sp.l2_inner(got, u)) <= 1e-12 * sp.l2_norm(u) ** 3


def test_nonlinear_term_zero():
    g = sp.Grid(2, 16)
    out = sp.nonlinear_term(_zero(g))
    assert sp.l2_norm(out) == 0.0


def test_nonlinear_cancellation():
    for dim, n in ((2, 32), (3, 16)):
        g = sp.Grid(dim, n)
        u = sp.dealias(_random_field(g, seed=dim + 5))
        ip = sp.l2_inner(sp.nonlinear_term(u), u)
        assert abs(ip) <= 1e-12 * sp.l2_norm(u) ** 3


def test_nonlinear_term_preserves_mean_mode():
    g = sp.Grid(2, 32)
    u = _random_field(g, seed=8)
    out = sp.nonlinear_term(u)
    zero = (slice(None),) + (0,) * g.dim
    assert np.max(np.abs(out.coeffs[zero])) < 1e-10


# ---------------------------------------------------------------------------
# Curl / Biot-Savart


def test_curl_2d_shear():
    g = sp.Grid(2, 16)
    u = sp.shear_field(g)  # (sin x2, 0)
    w = sp.curl(u).to_physical()
    assert np.max(np.abs(w + np.cos(g.coordinates[1]))) < 1e-12


def test_curl_constant_field_is_zero():
    g = sp.Grid(2, 16)
    vals = np.ones((2,) + g.shape)
    u = sp.SpectralField.from_physical(g, vals)
    assert sp.lp_norm(sp.curl(u), np.inf) < 1e-12


def test_curl_3d_abc_is_eigenfunction():
    # curl of the ABC field equals the field itself
    g = sp.Grid(3, 8)
    u = sp.abc_field(g, 1.0, 1.0, 1.0)
    w = sp.curl(u)
    assert np.max(np.abs(w.to_physical() - u.to_physical())) < 1e-12


# ---------------------------------------------------------------------------
# Norms


def test_l2_closed_form():
    # u = (sin x1, 0): ||u||_2^2 = (2 pi)^2 / 2
    g = sp.Grid(2, 32)
    vals = np.stack([np.sin(g.coordinates[0]), np.zeros(g.shape)])
    u = sp.SpectralField.from_physical(g, vals)
    want = (2.0 * np.pi) ** 2 / 2.0
    assert abs(sp.l2_norm(u) ** 2 - want) < 1e-10 * want
    assert abs(sp.lp_norm(u, 2.0) ** 2 - want) < 1e-10 * want


def test_parseval():
    for dim, n in ((2, 16), (3, 8)):
        g = sp.Grid(dim, n)
        u = _random_field(g, seed=3 * dim)
        spec_norm = sp.l2_norm(u)
        quad_norm = sp.lp_norm(u, 2.0)
        assert abs(spec_norm - quad_norm) <= 1e-12 * spec_norm


@pytest.mark.parametrize("dim, n, a", [
    (2, 16, (3, -5)),   # negative last-axis wavenumber
    (2, 16, (2, 7)),    # last axis at n/2 - 1, next to the Nyquist plane
    (2, 16, (-4, 0)),   # on the k_last = 0 plane
    (3, 8, (1, 2, -3)),
    (3, 8, (-2, 1, 3)),
])
def test_sobolev_w_m2_single_mode_closed_form(dim, n, a):
    # ||sin(a.x)||_{W^{m,2}}^2 = sum_{|alpha|<=m} prod a_i^(2 alpha_i) |T^d|/2
    g = sp.Grid(dim, n)
    phase = np.tensordot(np.array(a, dtype=float), g.coordinates, axes=1)
    vals = np.zeros((dim,) + g.shape)
    vals[-1] = np.sin(phase)
    u = sp.SpectralField.from_physical(g, vals)
    for m in range(4):
        weight = sum(np.prod([a[i] ** 2 for i in axes])
                     for order in range(m + 1)
                     for axes in itertools.combinations_with_replacement(
                         range(dim), order))
        want = np.sqrt(weight * g.length ** dim / 2.0)
        got = sp.sobolev_norm(u, sp.NormRequest(m, 2))
        assert abs(got - want) <= 1e-12 * want


def _full_spectrum_w_mp(values, grid, m, p):
    """W^{m,p} norm of physical values by full-spectrum numpy derivatives."""
    axes = tuple(range(1, grid.dim + 1))
    freqs = np.fft.fftfreq(grid.n, 1.0 / grid.n) * 2.0 * np.pi / grid.length
    k = np.array(np.meshgrid(*[freqs] * grid.dim, indexing="ij"))
    hat = np.fft.fftn(values, axes=axes)
    total = 0.0
    for order in range(m + 1):
        for alpha in itertools.combinations_with_replacement(
                range(grid.dim), order):
            symbol = np.prod([1j * k[i] for i in alpha], axis=0)
            d = np.fft.ifftn(symbol * hat, axes=axes).real
            total += np.sum(np.sqrt(np.sum(d ** 2, axis=0)) ** p) \
                * grid.cell_volume
    return total ** (1.0 / p)


def test_sobolev_norms_match_full_spectrum_collocation():
    # white noise fills every mode, Nyquist planes included: Parseval
    # (p = 2) and collocation (p = 4) see the same derivatives as the
    # full-spectrum grid values
    for dim, n in ((2, 16), (3, 8)):
        g = sp.Grid(dim, n)
        vals = np.random.default_rng(40 + dim).standard_normal(
            (dim,) + g.shape)
        u = sp.SpectralField.from_physical(g, vals)
        for m in range(4):
            for p in (2.0, 4.0):
                want = _full_spectrum_w_mp(vals, g, m, p)
                got = sp.sobolev_norm(u, sp.NormRequest(m, p))
                assert abs(got - want) <= 1e-12 * want


def test_k_index_holds_exact_integers_for_every_even_n():
    # fftfreq(n, 1/n) scales by 1/(n (1/n)), which is not 1 at 91 even n up
    # to 2048: k_index held 3.000000000000001 and -49.000000000000014 at
    # n = 98, so Grid.nyquist found no Nyquist plane
    for n in range(8, 513, 2):
        line = np.r_[0:n // 2, -(n // 2):0]
        k = sp.Grid(2, n).k_index
        assert np.array_equal(k[0][:, 0], line), n
        assert np.array_equal(k[1][0], line[:n // 2 + 1]), n
        assert np.array_equal(k, np.round(k)), n


@pytest.mark.parametrize("n", [96, 98, 196])
def test_parseval_w12_matches_the_full_spectrum_oracle_for_any_even_n(n):
    # white noise fills the Nyquist planes, whose derivative the grid
    # values do not see: at n = 98 Parseval read 355.38 against 349.26
    g = sp.Grid(2, n)
    vals = np.random.default_rng(n).standard_normal((2,) + g.shape)
    got = sp.sobolev_norm(sp.SpectralField.from_physical(g, vals),
                          sp.NormRequest(1, 2))
    want = _full_spectrum_w_mp(vals, g, 1, 2.0)
    assert abs(got - want) <= 1e-12 * want


def test_sobolev_monotone_in_order():
    g = sp.Grid(2, 16)
    u = _random_field(g, seed=4)
    norms = [sp.sobolev_norm(u, sp.NormRequest(m, 2)) for m in range(4)]
    assert all(norms[i] <= norms[i + 1] for i in range(3))


def test_sobolev_zero_field():
    g = sp.Grid(2, 16)
    z = _zero(g)
    for m, p in ((0, 2), (2, 4), (1, np.inf)):
        assert sp.sobolev_norm(z, sp.NormRequest(m, p)) == 0.0


@pytest.mark.parametrize("name", ["random", "taylor_green"])
@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_parseval_norms_of_tiny_fields_scale_with_their_amplitude(dim, n,
                                                                  name):
    # the squares of a field at 1e-170 underflow to 0, and at 1e-150 some
    # are subnormal; such a path's norm is taken on the field scaled by its
    # max |c|.  A sum at or above the threshold keeps the plain sum's bits
    g = sp.Grid(dim, n)
    W32 = sp.NormRequest(3, 2)

    def norms(u):
        return sp.l2_norm(u), sp.sobolev_norm(u, W32)

    unit = norms(sp.make_initial_field(g, name, 1.0, seed=2))
    for amplitude in (1e-150, 1e-170, 1e-250):
        got = norms(sp.make_initial_field(g, name, amplitude, seed=2))
        for value, want in zip(got, unit):
            assert value == pytest.approx(amplitude * want, rel=2e-15), (
                amplitude)
    for amplitude in (1.0, 1e-100):
        u = sp.make_initial_field(g, name, amplitude, seed=2)
        for m, value in zip((0, 3), norms(u)):
            plain = np.sum((u.coeffs.real ** 2 + u.coeffs.imag ** 2)
                           * sp._parseval_weight(g, m))
            assert plain >= sp._TINY_SUM
            assert value == np.sqrt(plain)
    # per path in a batch: a unit path keeps its bits, a zero path reads 0
    u = sp.make_initial_field(g, name, 1.0, seed=2)
    batch = sp.SpectralField(g, np.stack([u.coeffs, 1e-170 * u.coeffs,
                                          0.0 * u.coeffs]))
    l2 = sp.l2_norm(batch)
    assert l2[0] == unit[0] and l2[2] == 0.0
    assert l2[1] == pytest.approx(1e-170 * unit[0], rel=2e-15)


def test_norm_request_validation():
    with pytest.raises(UnsupportedNorm):
        sp.NormRequest(2, np.inf)
    with pytest.raises(UnsupportedNorm):
        sp.NormRequest(1, 1.5)
    with pytest.raises(UnsupportedNorm):
        sp.NormRequest(-1, 2)


def test_w1inf_shear():
    # (sin x2, 0): max|u| = 1, max|grad u| = 1
    g = sp.Grid(2, 64)
    u = sp.shear_field(g)
    assert abs(sp.w1inf_norm(u) - 2.0) < 1e-10


def _differentiation_matrix(n):
    """Dense even-n Fourier differentiation matrix on [0, 2 pi):
    D_jl = (-1)^(j-l) cot((j-l) h / 2) / 2, zero diagonal (Trefethen,
    Spectral Methods in MATLAB, ch. 3)."""
    h = 2.0 * np.pi / n
    d = np.subtract.outer(np.arange(n), np.arange(n))
    off = d != 0
    D = np.zeros((n, n))
    D[off] = 0.5 * (-1.0) ** d[off] / np.tan(d[off] * h / 2.0)
    return D


def _dense_sups(values):
    """max|u|, max|grad u| (Frobenius) and max|curl u| of grid values, the
    gradient taken by the dense differentiation matrix on each axis."""
    dim, n = len(values), values.shape[-1]
    D = _differentiation_matrix(n)
    grads = np.stack([np.moveaxis(np.tensordot(D, values, axes=(1, j + 1)),
                                  0, j + 1) for j in range(dim)])
    pairs = [(0, 1)] if dim == 2 else [(1, 2), (2, 0), (0, 1)]
    vort = np.stack([grads[j, c] - grads[c, j] for j, c in pairs])
    return (np.max(np.sqrt(np.sum(values ** 2, axis=0))),
            np.max(np.sqrt(np.sum(grads ** 2, axis=(0, 1)))),
            np.max(np.sqrt(np.sum(vort ** 2, axis=0))))


@pytest.mark.parametrize("dim", [2, 3])
def test_sup_view_matches_dense_differentiation_matrix(dim):
    # white noise keeps its Nyquist modes, which lp_norm and the unpruned
    # view take as any field's; the pruned view takes a state, which is
    # dealiased.  No rfft on the oracle side
    n = 16
    g = sp.Grid(dim, n)
    values = np.random.default_rng(dim).standard_normal((dim,) + g.shape)
    u = sp.SpectralField.from_physical(g, values)
    want = _dense_sups(values)
    for name, a, b in (("u", sp.lp_norm(u, np.inf), want[0]),
                       ("grad u", sp._sup_view(u, pruned=False)[2], want[1])):
        assert abs(a - b) <= 1e-12 * b, name
    v = sp.dealias(u)
    view_values, *got = sp._sup_view(v)
    assert np.array_equal(view_values, v.to_physical())
    for name, a, b in zip(("u", "grad u", "curl u"), got,
                          _dense_sups(view_values)):
        assert abs(a - b) <= 1e-12 * b, name
    assert sp.lp_norm(v, np.inf) == got[0]
    assert sp._sup_view(v, pruned=False)[2] == got[1]


@pytest.mark.parametrize("dim", [2, 3])
def test_w1inf_norm_of_a_scalar_field(dim):
    # a one-component field has no curl; its W^{1,inf} norm is that of the
    # velocity with it as the first component and zeros elsewhere
    g = sp.Grid(dim, 8)
    values = np.random.default_rng(dim).standard_normal((1,) + g.shape)
    f = sp.SpectralField.from_physical(g, values)
    padded = sp.SpectralField.from_physical(
        g, np.concatenate([values, np.zeros((dim - 1,) + g.shape)]))
    assert sp._sup_view(f, pruned=False)[3] is None
    assert sp.w1inf_norm(f) == sp.w1inf_norm(padded)


@pytest.mark.parametrize("dim", [2, 3])
def test_w1inf_norm_forms_no_curl_rows(monkeypatch, dim):
    # the W^{1,inf} norm reads max|u| and max|grad u| of the view: it looks
    # up no curl pairs, and its bits are those of the view that forms them
    g = sp.Grid(dim, 16)
    u = sp.random_divergence_free(g, np.random.default_rng(dim))
    _, u_max, grad_max, curl_max = sp._sup_view(u, pruned=False)
    assert curl_max is not None
    read = []

    class Pairs(dict):
        def __getitem__(self, key):
            read.append(key)
            return super().__getitem__(key)

    monkeypatch.setattr(sp, "_CURL_PAIRS", Pairs(sp._CURL_PAIRS))
    assert sp.w1inf_norm(u) == u_max + grad_max
    assert sp.sobolev_norm(u, sp.NormRequest(1, np.inf)) == u_max + grad_max
    assert read == []


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_batched_transforms_equal_unbatched_rows(dim, n):
    # the batched trajectory driver is byte-identical to solo runs only
    # because the FFT gives each row of a batch the bits it gives that row
    # alone; a scipy whose transforms break this must fail here
    g = sp.Grid(dim, n)
    values = np.random.default_rng(n).standard_normal((5, dim) + g.shape)
    coeffs = sp._forward(values, g)
    back = sp._inverse(coeffs, g)
    for row in range(len(values)):
        alone = sp._forward(values[row], g)
        assert np.array_equal(coeffs[row], alone)
        assert np.array_equal(back[row], sp._inverse(alone, g))


@pytest.mark.parametrize("fraction", [0.5, 2.0 / 3.0, 1.0])
@pytest.mark.parametrize("dim, n", [(2, 16), (2, 24), (2, 48),
                                    (3, 16), (3, 24), (3, 48)])
def test_workspace_transforms_equal_scipy(dim, n, fraction):
    # the workspace runs scipy's own 1-D passes and skips only lines that
    # are zero on input or masked on output, so its inverse gives
    # scipy.fft.irfftn's bits on every grid value and its forward gives
    # rfftn's on every mode the dealias mask keeps, and on every mode,
    # Nyquist included, when it prunes nothing; scipy's pair is the oracle
    # of the package's one transform path, _forward and _inverse
    g = sp.Grid(dim, n, dealias_fraction=fraction)
    ws = g._workspace
    rng = np.random.default_rng(n)
    axes = tuple(range(-dim, 0))
    # the first batch sizes the pools for 5 paths; the later ones are
    # carved from those pools
    pools = None
    for lead in [(5,), (), (3,), (2,)]:
        values = rng.standard_normal(lead + (dim,) + g.shape)
        full = scipy.fft.rfftn(values, axes=axes)
        assert np.all(full[..., -1] != 0), lead  # Nyquist modes are tested
        spectra, out = ws.arrays(lead, ("complex", dim), ("real", dim))
        ws.forward(values, spectra, pruned=True)
        assert np.array_equal(spectra[..., g.dealias_mask],
                              full[..., g.dealias_mask]), lead
        ws.forward(values, spectra, pruned=False)
        assert np.array_equal(spectra, full), lead
        for coeffs, pruned in ((full * g.dealias_mask, True),
                               (full, False)):
            np.copyto(spectra, coeffs)
            ws.inverse(spectra, out, pruned)
            assert np.array_equal(
                out, scipy.fft.irfftn(coeffs, s=g.shape, axes=axes)), lead
        assert np.array_equal(sp._forward(values, g), full), lead
        assert np.array_equal(
            sp._inverse(full, g),
            scipy.fft.irfftn(full, s=g.shape, axes=axes)), lead
        pools = pools or dict(ws._pools)
    assert all(ws._pools[name] is pool for name, pool in pools.items())


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_carved_arrays_follow_the_pools_as_they_grow(dim, n):
    # one grid serves a batch of 1, then 4 (the pools grow), then 2: every
    # work array it hands out afterwards, for a batch served before the
    # growth too, views the current pools, none a dropped one, and the
    # operators give a fresh grid's bits each time
    g = sp.Grid(dim, n)
    ws = g._workspace
    pools = []
    for batch in (1, 4, 2):
        u = sp.SpectralField(g, np.stack(
            [_random_field(g, seed=s).coeffs for s in range(batch)]))
        fresh = sp.SpectralField(sp.Grid(dim, n), u.coeffs)
        got = [*sp._sup_view(u), sp.nonlinear_term(u).coeffs]
        want = [*sp._sup_view(fresh), sp.nonlinear_term(fresh).coeffs]
        for a, b in zip(got, want):
            assert np.array_equal(np.asarray(a).view(np.uint64),
                                  np.asarray(b).view(np.uint64)), batch
        for name in ws._pools:
            ws.arrays((batch,), (name, 1))
        pools += [pool for pool in ws._pools.values()
                  if not any(pool is p for p in pools)]
    dropped = [p for p in pools
               if not any(p is q for q in ws._pools.values())]
    assert dropped  # the batch of 4 grew the pools
    for lead in [(1,), (4,), (2,)]:
        for name, pool in ws._pools.items():
            work, = ws.arrays(lead, (name, 1))
            assert np.shares_memory(work, pool), (lead, name)
            assert not any(np.shares_memory(work, p) for p in dropped)


def _in_a_fresh_interpreter(code: str, *args: str, path=None) -> str:
    """The stdout of code run in a fresh interpreter, with path (by default
    the package's source root) first on sys.path and args in sys.argv[1:]."""
    root = path or pathlib.Path(sp.__file__).resolve().parents[1]
    probe = f"import sys; sys.path.insert(0, {str(root)!r}); " + code
    return subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True, check=True).stdout


# the package's passes against scipy.fft's in the same interpreter, and
# whether the package's pocketfft module is the one scipy.fft calls
_ONE_MODULE = """
import numpy as np
def package():
    from stocheuler import spectral as sp
    g = sp.Grid(3, 16)
    values = np.random.default_rng(1).standard_normal((3,) + g.shape)
    spectra = sp._forward(values, g)
    return sp, g, values, spectra, sp._inverse(spectra * g.dealias_mask, g,
                                               pruned=True)
def scipy_fft():
    import scipy.fft
    import scipy.fft._pocketfft.basic as basic
    return scipy.fft, basic.pfft
if sys.argv[1] == "package":
    sp, g, values, spectra, grid_values = package()
    fft, pfft = scipy_fft()
else:
    fft, pfft = scipy_fft()
    sp, g, values, spectra, grid_values = package()
name = "scipy.fft._pocketfft.pypocketfft"
assert sp._pocketfft() is pfft is sys.modules[name]
assert np.array_equal(spectra, fft.rfftn(values, axes=(-3, -2, -1)))
assert np.array_equal(grid_values, fft.irfftn(
    spectra * g.dealias_mask, s=g.shape, axes=(-3, -2, -1)))
assert np.array_equal(sp._forward(grid_values, g), fft.rfftn(
    grid_values, axes=(-3, -2, -1)))
print("ok")
"""


@pytest.mark.parametrize("first", ["package", "scipy.fft"])
def test_pocketfft_is_one_module_in_either_import_order(first):
    # the package loads the extension from its file, and a later import
    # scipy.fft gets that module object; a scipy.fft loaded first gives the
    # package its own: either way one module, and the transforms work after
    assert _in_a_fresh_interpreter(_ONE_MODULE, first) == "ok\n"


@pytest.mark.parametrize("lead, dim, n", [((25,), 2, 32), ((), 3, 16)])
def test_c2c_gives_scipy_fft_bits_on_every_line_set(lead, dim, n):
    # _c2c is scipy.fft.fft/ifft with norm "backward"/"forward" on the lines
    # spectra[index], minus scipy.fft's dispatch; it writes those lines alone
    g = sp.Grid(dim, n)
    rng = np.random.default_rng(dim * n)
    shape = lead + (dim,) + g.spectral_shape
    for lines in g._workspace._lines.values():
        for axis, indices in lines:
            for index, forward in itertools.product(indices, (True, False)):
                spectra = (rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
                want = spectra.copy()
                fft = scipy.fft.fft if forward else scipy.fft.ifft
                want[index] = fft(want[index], axis=axis, overwrite_x=True,
                                  norm="backward" if forward else "forward")
                sp._c2c(spectra, axis, index, forward)
                assert np.array_equal(spectra, want), (axis, index, forward)


def test_a_scipy_without_pocketfft_fails_at_the_first_transform(tmp_path):
    # a scipy package with no compiled pocketfft module: importing the
    # package and its CLI works, and the first transform is an ImportError
    # that names the path looked in, with no scipy module imported
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    src = pathlib.Path(sp.__file__).resolve().parents[1]
    out = _in_a_fresh_interpreter(
        "sys.path.insert(0, sys.argv[1]); "
        "import stocheuler.cli; from stocheuler import spectral as sp\n"
        "try:\n    sp.taylor_green(sp.Grid(2, 16))\n"
        "except ImportError as exc:\n    print(exc)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        str(src), path=tmp_path)
    message, loaded = out.splitlines()
    base = tmp_path / "scipy" / "fft" / "_pocketfft" / "pypocketfft"
    assert str(base) in message
    assert loaded == "[]"


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_workspace_results_survive_a_later_call(dim, n):
    # the kernel, the view and the RK4 stages run in the grid's shared work
    # arrays; what they return must not be one of them
    g = sp.Grid(dim, n)
    u, w = (sp.dealias(_random_field(g, seed)) for seed in (1, 2))
    term = sp.nonlinear_term(u)
    values, *sups = sp._sup_view(u)
    kept = term.coeffs.copy(), values.copy()
    sp.nonlinear_term(w)
    sp._sup_view(w)
    assert np.array_equal(term.coeffs, kept[0])
    assert np.array_equal(values, kept[1])
    assert sp._sup_view(u)[1:] == tuple(sups)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 16)])
def test_workspace_pools_fit_every_consumer(dim, n):
    # the kernel is the first to see each larger batch and sizes the pools
    # by the layout; the view and _inverse then carve theirs from the same
    # pools, which fails here if the layout is short of their arrays
    g = sp.Grid(dim, n)
    fields = [_random_field(g, seed).coeffs for seed in range(4)]
    for lead in [(), (1,), (2,), (4,)]:
        u = sp.SpectralField(g, np.stack(fields[:max(lead, default=1)])
                             .reshape(lead + fields[0].shape))
        term = sp.nonlinear_term(u)
        values = sp._sup_view(u)[0]
        assert np.array_equal(sp._inverse(u.coeffs, g), values)
        assert np.array_equal(sp.nonlinear_term(u).coeffs, term.coeffs)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 16)])
def test_nonlinear_term_transforms_one_entry_per_flux_pair(dim, n,
                                                           monkeypatch):
    # the reduced flux has dim (dim + 1) / 2 - 1 entries: 5 in 3D, 2 in 2D
    g = sp.Grid(dim, n)
    u = _random_field(g, seed=1)
    ws = g._workspace
    counts = []
    forward = ws.forward

    def counting(values, spectra, pruned):
        counts.append(values.shape[-(dim + 1)])
        forward(values, spectra, pruned)

    monkeypatch.setattr(ws, "forward", counting)
    sp.nonlinear_term(u)
    assert counts == [len(sp._FLUX_PAIRS[dim])] == [{2: 2, 3: 5}[dim]]


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("dim, n", [(2, 16), (3, 16)])
def test_nonlinear_term_box_form_is_the_box_of_the_field_form(dim, n, lead):
    # the steppers' form takes u's kept box and writes the term's box into
    # their own array: the bits of the field form's box, from u's box or
    # from u's grid values, and nothing of the field's size is returned
    g = sp.Grid(dim, n)
    ws = g._workspace
    fields = [sp.dealias(_random_field(g, seed)).coeffs for seed in range(3)]
    u = sp.SpectralField(g, np.stack(fields).reshape(
        lead + fields[0].shape) if lead else fields[0])
    term = sp.nonlinear_term(u)
    assert not np.any(term.coeffs[..., ~g.dealias_mask])
    want = ws.box(term.coeffs)
    for u_phys in (None, sp._inverse(u.coeffs, g, pruned=True)):
        out = np.empty_like(want)
        got = sp.nonlinear_term(sp.SpectralField(g, ws.box(u.coeffs)), u_phys,
                                out=out)
        assert got is out
        assert np.array_equal(_bits(out), _bits(want))


def _bits(a):
    """The IEEE bits of a complex array, one pair of words per entry."""
    return a.view(np.uint64)


def _full_array_nonlinear_term(u, reduced=True):
    """The advection kernel on whole half spectra: scipy's transforms, the
    sum i k_j T_ij in the kernel's order on every mode, the dealias mask
    and the general projection.  reduced=True transforms the kernel's flux
    u_i u_j - delta_ij u_d^2 (d the last axis) without its zero entry
    (d, d); reduced=False all dim (dim + 1) / 2 products u_i u_j, i <= j,
    which differ from it by a gradient that the projection removes."""
    g = u.grid
    d = g.dim - 1
    axis, axes = -(g.dim + 1), tuple(range(-g.dim, 0))
    pairs = [(i, j) for i in range(g.dim) for j in range(i, g.dim)
             if not (reduced and i == j == d)]
    values = np.moveaxis(scipy.fft.irfftn(u.coeffs * g.dealias_mask,
                                          s=g.shape, axes=axes), axis, 0)
    t_hat = scipy.fft.rfftn(np.stack([
        values[i] * values[j] - values[d] * values[d]
        if reduced and i == j else values[i] * values[j]
        for i, j in pairs]), axes=axes)
    div = np.zeros((g.dim,) + t_hat.shape[1:], dtype=complex)
    for t, (i, j) in zip(t_hat, pairs):
        if i != j:
            div[i] += g.ik[j] * t
        div[j] += g.ik[i] * t
    div *= g.dealias_mask
    return sp.leray_project(sp.SpectralField(g, np.moveaxis(div, 0, axis)))


def _box_oracle_field(dim, n, fraction, batch):
    """A projected random field with content outside the mask, as a
    transformed state has, and its grid."""
    g = sp.Grid(dim, n, dealias_fraction=fraction)
    rng = np.random.default_rng(n + dim)
    u = sp.leray_project(sp.SpectralField.from_physical(
        g, rng.standard_normal(batch + (dim,) + g.shape)))
    assert np.any(u.coeffs[..., ~g.dealias_mask]) or fraction == 1.0
    return g, u


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("fraction", [0.5, 2.0 / 3.0, 1.0])
@pytest.mark.parametrize("dim, n", [(2, 16), (2, 24), (2, 48),
                                    (3, 16), (3, 24), (3, 48)])
def test_nonlinear_term_box_equals_full_array_oracle(dim, n, fraction,
                                                     batch):
    # the kernel sums and projects on the kept box alone: inside the mask
    # every bit is the whole-array computation's, outside it every mode is
    # +0.0
    g, u = _box_oracle_field(dim, n, fraction, batch)
    got = sp.nonlinear_term(u).coeffs
    want = _full_array_nonlinear_term(u).coeffs
    inside = np.broadcast_to(g.dealias_mask, got.shape)
    assert np.array_equal(_bits(got[inside]), _bits(want[inside]))
    assert not np.any(_bits(got[~inside]))


# The reduced flux differs from u (x) u by the gradient of u_d^2, which the
# projection removes up to rounding: at most 1.5e-15 relative L-inf over
# these cases, against the 1e-13 allowed.
FULL_FLUX_RTOL = 1e-13


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("fraction", [0.5, 2.0 / 3.0, 1.0])
@pytest.mark.parametrize("dim, n", [(2, 16), (2, 24), (2, 48),
                                    (3, 16), (3, 24), (3, 48)])
def test_nonlinear_term_equals_six_product_form(dim, n, fraction, batch):
    g, u = _box_oracle_field(dim, n, fraction, batch)
    got = sp.nonlinear_term(u).coeffs
    want = _full_array_nonlinear_term(u, reduced=False).coeffs
    assert (np.max(np.abs(got - want))
            <= FULL_FLUX_RTOL * np.max(np.abs(want)))


@pytest.mark.parametrize("fraction", [0.5, 2.0 / 3.0, 1.0])
@pytest.mark.parametrize("dim, n", [(2, 16), (2, 24), (3, 16), (3, 24)])
def test_leray_dealiased_path_equals_general_path(dim, n, fraction):
    # dealiased=True projects dealias(f) on the kept box: the general
    # path's bits inside the mask, +0.0 outside it, on a batch and a path
    g = sp.Grid(dim, n, dealias_fraction=fraction)
    raw = sp.SpectralField.from_physical(g, np.random.default_rng(n).
                                         standard_normal((2, dim) + g.shape))
    # dealias's multiply by True turns a -0.0 part into +0.0 on some modes
    signed = np.empty_like(raw.coeffs)
    signed.real, signed.imag = -0.0, raw.coeffs.imag
    for f in (raw, sp.SpectralField(g, raw.coeffs[1]),
              sp.SpectralField(g, signed)):
        got = sp.leray_project(f, dealiased=True).coeffs
        want = sp.leray_project(sp.dealias(f)).coeffs
        inside = np.broadcast_to(g.dealias_mask, got.shape)
        assert np.array_equal(_bits(got[inside]), _bits(want[inside]))
        assert not np.any(_bits(got[~inside]))
        # on a dealiased field the two paths agree everywhere
        assert np.array_equal(
            sp.leray_project(sp.dealias(f), dealiased=True).coeffs, want)


# A warmed-up nonlinear_term allocates its result and nothing else of field
# size: 1.0 field at 3D n=16 with a batch of 3, where the whole-array kernel
# (its projection's k u_hat beside its result) peaked at 2.0.
NONLINEAR_TERM_ALLOCATION_FIELDS = 1.5


def test_nonlinear_term_allocates_one_field():
    g = sp.Grid(3, 16)
    u = sp.SpectralField(g, np.repeat(_random_field(g, seed=2).coeffs[None],
                                      3, axis=0))
    sp.nonlinear_term(u)  # sizes the pools
    tracemalloc.start()
    try:
        sp.nonlinear_term(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= NONLINEAR_TERM_ALLOCATION_FIELDS * u.coeffs.nbytes


# A warmed-up _sup_view allocates its returned values and small temporaries:
# 3.05 times the values at 2D n=32 and 1.68 at 3D n=16 with a batch of 3.
# A gradient stack outside the pool would add 2 (2D) or 3 (3D) more.
SUP_VIEW_ALLOCATION_VALUES = {2: 3.5, 3: 2.0}


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_sup_view_keeps_its_gradient_stack_in_the_pool(dim, n):
    g = sp.Grid(dim, n)
    u = sp.SpectralField(g, np.repeat(_random_field(g, seed=2).coeffs[None],
                                      3, axis=0))
    values = sp._sup_view(u)[0]  # sizes the pools
    tracemalloc.start()
    try:
        sp._sup_view(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SUP_VIEW_ALLOCATION_VALUES[dim] * values.nbytes


def test_no_reference_cycle_pins_a_grid():
    # a grid whose workspace or cache referred back to it would live until
    # a GC pass, and each run's grid would pile up with its work arrays
    gc.disable()
    try:
        g = sp.Grid(3, 16)
        u = _random_field(g, seed=1)
        sp.nonlinear_term(u)
        sp._sup_view(u)
        sp.leray_project(u, dealiased=True)
        sp.sobolev_norm(u, sp.NormRequest(3, 2))
        grid = weakref.ref(g)
        del g, u
        assert grid() is None
    finally:
        gc.enable()


def test_parseval_weight_is_shared_by_equal_grids_and_read_only():
    a, b = sp.Grid(3, 16), sp.Grid(3, 16, dealias_fraction=0.5)
    weight = sp._parseval_weight(a, 2)
    assert sp._parseval_weight(b, 2) is weight
    assert not weight.flags.writeable
    assert sp._parseval_weight(sp.Grid(3, 16, length=1.0), 2) is not weight


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_batched_operators_equal_their_rows(dim, n):
    # every operator the trajectory driver runs gives each path of a batch
    # the bits that path gets alone
    g = sp.Grid(dim, n)
    paths = [sp.dealias(_random_field(g, seed)) for seed in range(4)]
    batch = sp.SpectralField(g, np.stack([u.coeffs for u in paths]))
    per_path = {
        "l2": sp.l2_norm,
        "W32": lambda u: sp.sobolev_norm(u, sp.NormRequest(3, 2)),
        "W1inf": sp.w1inf_norm,
        "L4": lambda u: sp.lp_norm(u, 4.0),
        "sup view": lambda u: np.array(sp._sup_view(u)[1:]).T,
        "nonlinear": lambda u: sp.nonlinear_term(u).coeffs,
        "leray": lambda u: sp.leray_project(u).coeffs,
        "curl": lambda u: sp.curl(u).coeffs,
    }
    for name, op in per_path.items():
        got = op(batch)
        for row, u in enumerate(paths):
            assert np.array_equal(got[row], op(u)), name


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_sup_view_on_dealiased_fields(dim, n):
    # the pointwise magnitudes summed and rooted before the max, as np.sum
    # adds them: the in-place kernel must give the same bits
    g = sp.Grid(dim, n)
    for seed in range(3):
        u = sp.dealias(sp.leray_project(sp.SpectralField.from_physical(
            g, np.random.default_rng(seed).standard_normal(
                (dim,) + g.shape))))
        values, u_max, grad_max, curl_max = sp._sup_view(u)
        assert np.array_equal(values, u.to_physical())
        symbols = np.stack([sp._derivative_symbol(g, (j,))
                            for j in range(dim)])
        grads = sp._inverse(symbols[:, None] * u.coeffs[None], g)
        ref_u = np.max(np.sqrt(np.sum(u.to_physical() ** 2, axis=0)))
        ref_grad = np.sqrt(np.max(np.sum(grads ** 2, axis=(0, 1))))
        assert u_max + grad_max == ref_u + ref_grad
        assert u_max + grad_max == sp.w1inf_norm(u)
        curl_inf = sp.lp_norm(sp.curl(u), np.inf)
        assert abs(curl_max - curl_inf) <= 1e-14 * curl_inf


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("fraction", [0.5, 2.0 / 3.0, 1.0])
@pytest.mark.parametrize("name, dim", [
    ("taylor_green", 2), ("taylor_green", 3), ("shear", 2), ("shear", 3),
    ("abc", 3), ("random", 2), ("random", 3)])
def test_initial_fields_are_dealiased_states(name, dim, fraction, batch):
    # every field a run holds is dealias(leray_project(.)): an initial field
    # is +0.0 on every mode outside the mask, so its pruned inverse, its
    # unpruned one and the sampled view's values are one array, bit for bit
    g = sp.Grid(dim, 16, dealias_fraction=fraction)
    fields = [sp.make_initial_field(g, name, amplitude, seed)
              for amplitude, seed in ((0.5, 1), (2.0, 2))]
    u = (sp.SpectralField(g, np.stack([f.coeffs for f in fields]))
         if batch else fields[0])
    outside = u.coeffs[..., ~g.dealias_mask]
    assert not np.any(_bits(np.ascontiguousarray(outside)))
    div = np.sum(g.k * u.coeffs, axis=-(dim + 1))
    assert np.max(np.abs(div)) <= 1e-12 * np.max(np.abs(u.coeffs))
    values = u.to_physical()
    for other in (sp._inverse(u.coeffs, g, pruned=True), sp._sup_view(u)[0]):
        assert np.array_equal(other.view(np.uint64), values.view(np.uint64))


# ---------------------------------------------------------------------------
# Mollifier


def test_mollify_single_mode_scaling():
    g = sp.Grid(2, 16)
    u = sp.shear_field(g)  # single mode k = (0, 1)
    eps = 0.3
    mu = sp.mollify(u, eps)
    assert np.max(np.abs(mu.coeffs - np.exp(-eps) * u.coeffs)) < 1e-10 * g.n ** 2


def test_mollify_uniform_bound_and_convergence():
    g = sp.Grid(2, 32)
    u = _random_field(g, seed=6)
    req = sp.NormRequest(2, 2)
    base = sp.sobolev_norm(u, req)
    for eps in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        assert sp.sobolev_norm(sp.mollify(u, eps), req) <= base * (1 + 1e-12)
    residuals = [sp.sobolev_norm(sp.mollify(u, 2.0 ** -j) - u, req)
                 for j in range(21)]
    assert all(residuals[i + 1] <= residuals[i] * (1 + 1e-12)
               for i in range(20))
    assert residuals[-1] < 1e-3 * base


def test_mollify_derivative_gain():
    # eps * ||F_eps u||_m / ||u||_{m-1} bounded over the eps scan
    g = sp.Grid(2, 32)
    u = _random_field(g, seed=7)
    hi = sp.NormRequest(2, 2)
    lo = sp.NormRequest(1, 2)
    lower = sp.sobolev_norm(u, lo)
    gains = [eps * sp.sobolev_norm(sp.mollify(u, eps), hi) / lower
             for eps in (2.0 ** -j for j in range(1, 11))]
    assert max(gains) < 2.0


def test_mollify_rejects_nonpositive_eps():
    g = sp.Grid(2, 16)
    with pytest.raises(ValueError):
        sp.mollify(sp.shear_field(g), 0.0)


# ---------------------------------------------------------------------------
# Product (Moser-type) sanity


def test_product_norm_bounded_by_moser_combination():
    g = sp.Grid(2, 32)
    rng = np.random.default_rng(9)
    req = sp.NormRequest(2, 2)
    for _ in range(10):
        a = sp.dealias(sp.SpectralField.from_physical(
            g, sp.random_divergence_free(g, rng).to_physical()[:1]))
        b = sp.dealias(sp.SpectralField.from_physical(
            g, sp.random_divergence_free(g, rng).to_physical()[1:]))
        prod = sp.SpectralField.from_physical(
            g, a.to_physical() * b.to_physical())
        lhs = sp.sobolev_norm(prod, req)
        rhs = (sp.lp_norm(a, np.inf) * sp.sobolev_norm(b, req)
               + sp.lp_norm(b, np.inf) * sp.sobolev_norm(a, req))
        assert lhs <= 5.0 * rhs


# ---------------------------------------------------------------------------
# Constructors


def test_from_physical_shape_check():
    g = sp.Grid(2, 16)
    with pytest.raises(ShapeMismatch):
        sp.SpectralField.from_physical(g, np.zeros((3, 16, 16)))
    with pytest.raises(ShapeMismatch):
        sp.abc_field(g)


def test_initial_field_registry():
    g = sp.Grid(2, 16)
    for name in ("taylor_green", "shear", "random"):
        u = sp.make_initial_field(g, name, amplitude=1.0, seed=2)
        assert np.all(np.isfinite(u.coeffs.view(float)))
    with pytest.raises(KeyError):
        sp.make_initial_field(g, "nope")


def test_random_field_is_divergence_free_and_real():
    g = sp.Grid(3, 8)
    u = _random_field(g, seed=14)
    assert _max_divergence(u) < 1e-10
    # Hermitian symmetry: physical round-trip is lossless
    back = sp.SpectralField.from_physical(g, u.to_physical())
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-10
