"""Field operations: projection, nonlinear term, norms, mollifier."""

import itertools

import numpy as np
import pytest

from stocheuler import spectral as sp
from stocheuler.errors import ShapeMismatch, UnsupportedNorm


def _random_field(grid, seed=0, amplitude=1.0):
    rng = np.random.default_rng(seed)
    return sp.random_divergence_free(grid, rng, amplitude=amplitude)


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
        assert pf.max_divergence() <= 1e-10 * nf


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


def test_nonlinear_term_zero():
    g = sp.Grid(2, 16)
    out = sp.nonlinear_term(sp.SpectralField.zero(g))
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


def test_biot_savart_inverts_curl():
    g = sp.Grid(2, 32)
    u = _random_field(g, seed=23)
    rec = sp.biot_savart(sp.curl(u))
    assert sp.l2_norm(rec - u) < 1e-10 * sp.l2_norm(u)


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


def test_sobolev_monotone_in_order():
    g = sp.Grid(2, 16)
    u = _random_field(g, seed=4)
    norms = [sp.sobolev_norm(u, sp.NormRequest(m, 2)) for m in range(4)]
    assert all(norms[i] <= norms[i + 1] for i in range(3))


def test_sobolev_zero_field():
    g = sp.Grid(2, 16)
    z = sp.SpectralField.zero(g)
    for m, p in ((0, 2), (2, 4), (1, np.inf)):
        assert sp.sobolev_norm(z, sp.NormRequest(m, p)) == 0.0


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


@pytest.mark.parametrize("dim", [2, 3])
def test_sup_view_matches_dense_differentiation_matrix(dim):
    # white noise keeps its Nyquist modes; no rfft on the oracle side
    n = 16
    g = sp.Grid(dim, n)
    values = np.random.default_rng(dim).standard_normal((dim,) + g.shape)
    u = sp.SpectralField.from_physical(g, values)
    D = _differentiation_matrix(n)
    grads = np.stack([np.moveaxis(np.tensordot(D, values, axes=(1, j + 1)),
                                  0, j + 1) for j in range(dim)])
    pairs = [(0, 1)] if dim == 2 else [(1, 2), (2, 0), (0, 1)]
    vort = np.stack([grads[j, c] - grads[c, j] for j, c in pairs])
    want = (np.max(np.sqrt(np.sum(values ** 2, axis=0))),
            np.max(np.sqrt(np.sum(grads ** 2, axis=(0, 1)))),
            np.max(np.sqrt(np.sum(vort ** 2, axis=0))))
    got = sp._sup_view(u)
    for name, a, b in zip(("u", "grad u", "curl u"), got, want):
        assert abs(a - b) <= 1e-12 * b, name
    assert sp.lp_norm(u, np.inf) == got[0]
    assert sp.grad_sup_norm(u) == got[1]


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_sup_view_on_dealiased_fields(dim, n):
    # the pointwise magnitudes summed and rooted before the max, as np.sum
    # adds them: the in-place kernel must give the same bits
    g = sp.Grid(dim, n)
    for seed in range(3):
        u = sp.dealias(sp.leray_project(sp.SpectralField.from_physical(
            g, np.random.default_rng(seed).standard_normal(
                (dim,) + g.shape))))
        u_max, grad_max, curl_max = sp._sup_view(u)
        grads = sp._inverse(g.grad_symbols[:, None] * u.coeffs[None], g)
        ref_u = np.max(np.sqrt(np.sum(u.to_physical() ** 2, axis=0)))
        ref_grad = np.sqrt(np.max(np.sum(grads ** 2, axis=(0, 1))))
        assert u_max + grad_max == ref_u + ref_grad
        assert u_max + grad_max == sp.w1inf_norm(u)
        curl_inf = sp.lp_norm(sp.curl(u), np.inf)
        assert abs(curl_max - curl_inf) <= 1e-14 * curl_inf


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
        a = sp.dealias_scalar(sp.ScalarField.from_physical(
            g, sp.random_divergence_free(g, rng).to_physical()[0]))
        b = sp.dealias_scalar(sp.ScalarField.from_physical(
            g, sp.random_divergence_free(g, rng).to_physical()[1]))
        prod = sp.ScalarField.from_physical(
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
    assert u.max_divergence() < 1e-10
    # Hermitian symmetry: physical round-trip is lossless
    back = sp.SpectralField.from_physical(g, u.to_physical())
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-10
