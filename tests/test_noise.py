"""Wiener driver statistics and the sigma(u) operator families."""

import numpy as np
import pytest

from stocheuler import noise, spectral as sp
from stocheuler.errors import DegenerateInput, InvalidParams, ShapeMismatch


@pytest.fixture(scope="module")
def grid():
    return sp.Grid(2, 16)


@pytest.fixture(scope="module")
def u_field(grid):
    rng = np.random.default_rng(42)
    return sp.random_divergence_free(grid, rng)


def _zero(grid):
    """The zero velocity field on grid."""
    return sp.SpectralField(
        grid, np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex))


def _max_divergence(f):
    """max_k |k . f_hat(k)|, the divergence-free defect in Fourier space."""
    div = np.sum(f.grid.k * f.coeffs, axis=-(f.grid.dim + 1))
    return float(np.max(np.abs(div)))


# ---------------------------------------------------------------------------
# Driver


def test_increments_zero_for_zero_dt():
    drv = noise.BrownianDriver(1, 3)
    assert np.array_equal(drv.sample_increments(0, 0, 0.0), np.zeros(3))


def test_increments_reject_negative_dt():
    drv = noise.BrownianDriver(1, 1)
    with pytest.raises(ValueError):
        drv.sample_increments(0, 0, -1.0)


@pytest.mark.parametrize("seed, tid, step", [
    (0, 0, 0), (7, 3, 5), (2 ** 32 - 1, 12, 2 ** 31), (2 ** 32, 1, 1),
    (10 ** 15, 2 ** 40, 3)])
def test_increments_are_the_seed_sequence_stream(seed, tid, step):
    # step k's draws are row k % 1024 of the (1024, K) block that
    # SeedSequence([seed, tid, k // 1024]) keying SFC64 draws, whichever
    # form the driver hands the ids to SeedSequence in
    assert noise.block_steps(3) == 1024
    ss = np.random.SeedSequence([seed, tid, step // 1024])
    block = np.random.Generator(np.random.SFC64(ss)).standard_normal((1024, 3))
    want = np.sqrt(0.01) * block[step % 1024]
    got = noise.BrownianDriver(seed, 3).sample_increments(tid, step, 0.01)
    assert np.array_equal(got, want)


def test_single_steps_are_the_rows_of_a_multi_step_call(monkeypatch):
    # blocks of 7 steps: steps 4-15 span three of them
    monkeypatch.setattr(noise, "BLOCK_STEPS", 7)
    drv = noise.BrownianDriver(3, 2)
    rows = drv.sample_increments(5, 4, 0.01, 12)
    assert rows.shape == (12, 2)
    for k, row in enumerate(rows):
        assert np.array_equal(drv.sample_increments(5, 4 + k, 0.01), row)
    assert np.array_equal(drv.sample_increments(5, 7, 0.01, 7), rows[3:10])
    assert drv.sample_increments(5, 4, 0.01, 0).shape == (0, 2)


def test_block_length_depends_on_the_mode_count_alone():
    # at most 1024 steps and 64 KB of draws per block
    assert [noise.block_steps(k) for k in (0, 1, 8, 9, 1000, 10 ** 6)] \
        == [1024, 1024, 1024, 910, 8, 1]


def test_increment_replay_is_bit_identical():
    a = noise.BrownianDriver(7, 4)
    b = noise.BrownianDriver(7, 4)
    for step in range(5):
        x = a.sample_increments(3, step, 0.01)
        y = b.sample_increments(3, step, 0.01)
        assert np.array_equal(x, y)
    # different trajectory or seed gives a different stream
    assert not np.array_equal(a.sample_increments(3, 0, 0.01),
                              a.sample_increments(4, 0, 0.01))
    assert not np.array_equal(a.sample_increments(3, 0, 0.01),
                              noise.BrownianDriver(8, 4)
                              .sample_increments(3, 0, 0.01))


def test_increment_mean_clt_bound():
    # 10^6 draws: sample mean within 4 * sqrt(dt / N) of zero
    dt = 0.01
    drv = noise.BrownianDriver(5, 1000)
    x = drv.sample_increments(0, 0, dt, 1000)  # the rows of steps 0-999
    total = x.sum()
    n_draws = x.size
    assert n_draws == 10 ** 6
    assert abs(total / n_draws) <= 4.0 * np.sqrt(dt / n_draws)


def test_quadratic_variation_within_one_percent():
    # sum of dW^2 over 10^5 steps tracks T = sum dt
    dt = 1e-3
    n_steps = 10 ** 5
    drv = noise.BrownianDriver(11, 1)
    qv = float(np.sum(drv.sample_increments(0, 0, dt, n_steps) ** 2))
    T = n_steps * dt
    assert abs(qv - T) <= 0.01 * T


# ---------------------------------------------------------------------------
# NoiseModel construction


def test_model_validation():
    with pytest.raises(ValueError):
        noise.NoiseModel("bogus")
    with pytest.raises(ValueError):
        noise.NoiseModel(noise.NEMYTSKII, g_tag="bogus")
    assert noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=2.0).n_modes == 1
    assert noise.zero_noise().n_modes == 0


def test_zero_noise_is_the_none_kind():
    model = noise.zero_noise()
    assert model.kind == noise.NONE == "none"
    assert (model.alpha, model.n_modes) == (0.0, 0)


@pytest.mark.parametrize("alpha", [0.0, 1e-200, -3.0, 1e150])
def test_linear_multiplicative_alpha_whose_square_is_finite_is_accepted(
        alpha):
    # the noise of a run may vanish: alpha = 0 and an alpha whose square
    # underflows to 0 are runs without noise
    assert noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE,
                            alpha=alpha).alpha == alpha


@pytest.mark.parametrize("alpha, shown", [
    (1e200, "1e+200"), (-1e200, "-1e+200"), (np.inf, "inf"),
    (np.nan, "nan")])
def test_linear_multiplicative_alpha_whose_square_overflows_is_refused(
        alpha, shown):
    # a Python-built model with alpha = 1e200 failed every path of its run
    # with an OverflowError; the model refuses it where it is built
    with pytest.raises(InvalidParams) as info:
        noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=alpha)
    assert str(info.value) == f"alpha^2 must be finite, got alpha={shown}"


@pytest.mark.parametrize("kind", [noise.NONE, noise.ADDITIVE,
                                  noise.NEMYTSKII, noise.FUNCTIONAL])
@pytest.mark.parametrize("alpha", [3.0, 1.0, np.nan])
def test_alpha_of_another_noise_kind_is_refused(kind, alpha):
    # alpha is linear-multiplicative noise's alone: no other kind reads it
    with pytest.raises(InvalidParams, match=f"noise kind '{kind}' has no "
                                            f"alpha"):
        noise.NoiseModel(kind, alpha=alpha)
    assert noise.NoiseModel(kind).alpha == 0.0


def test_none_kind_takes_no_sigma_fields():
    u = sp.taylor_green(sp.Grid(2, 8))
    with pytest.raises(InvalidParams, match="has no sigma_fields"):
        noise.NoiseModel(noise.NONE, sigma_fields=(u,))


@pytest.mark.parametrize("kind, fields, message", [
    (noise.LINEAR_MULTIPLICATIVE, "sigma_fields",
     "noise kind 'linear_multiplicative' has no sigma_fields"),
    (noise.LINEAR_MULTIPLICATIVE, "profiles",
     "noise kind 'linear_multiplicative' has no profiles"),
    (noise.ADDITIVE, "profiles", "noise kind 'additive' has no profiles"),
    (noise.NEMYTSKII, "profiles", "noise kind 'nemytskii' has no profiles"),
    *((kind, "g_tag", f"noise kind '{kind}' has no g_tag")
      for kind in (noise.NONE, noise.ADDITIVE, noise.LINEAR_MULTIPLICATIVE,
                   noise.FUNCTIONAL)),
])
def test_a_kind_refuses_the_fields_it_never_reads(kind, fields, message):
    # they were dropped silently: a model that is given them would not be
    # the model that runs
    u = sp.taylor_green(sp.Grid(2, 8))
    given = ({} if kind in (noise.NONE, noise.LINEAR_MULTIPLICATIVE)
             else {"sigma_fields": (u,)})
    if kind == noise.FUNCTIONAL:
        given["profiles"] = (u,)
    given[fields] = "cube" if fields == "g_tag" else (u,)
    with pytest.raises(InvalidParams) as info:
        noise.NoiseModel(kind, **given)
    assert str(info.value) == message


@pytest.mark.parametrize("profiles", [0, 1, 3])
def test_functional_noise_needs_one_profile_per_sigma_field(profiles):
    # the modes past the shorter list were dropped silently
    sigmas = noise.spectrum_sigma_fields(sp.Grid(2, 8), 3, 2.0, seed=1)
    with pytest.raises(InvalidParams) as info:
        noise.NoiseModel(noise.FUNCTIONAL, sigma_fields=sigmas[:2],
                         profiles=sigmas[:profiles])
    assert str(info.value) == (f"functional noise needs one profile per "
                               f"sigma field, got {profiles} for 2")
    assert noise.NoiseModel(noise.FUNCTIONAL, sigma_fields=sigmas[:2],
                            profiles=sigmas[1:]).n_modes == 2


# ---------------------------------------------------------------------------
# apply_noise


def test_linear_multiplicative_is_exact_scaling(u_field):
    model = noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=2.0)
    out = noise.apply_noise(model, u_field, np.array([0.1]))
    assert np.array_equal(out.coeffs, 0.2 * u_field.coeffs)


def test_linear_multiplicative_commutes_with_scaling(u_field):
    model = noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=1.5)
    dW = np.array([0.3])
    a = noise.apply_noise(model, 2.5 * u_field, dW)
    b = 2.5 * noise.apply_noise(model, u_field, dW)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14


@pytest.mark.parametrize("decay", [-2000.0, -np.inf])
def test_spectrum_sigma_fields_reject_an_overflowing_amplitude(grid, decay):
    # (k + 1) ** 2000 of a float raised OverflowError, and 2 ** inf is inf
    with pytest.raises(ValueError, match="overflows"):
        noise.spectrum_sigma_fields(grid, 3, decay, seed=1)
    assert len(noise.spectrum_sigma_fields(grid, 3, np.inf, seed=1)) == 3


def test_additive_is_u_independent(grid, u_field):
    sigmas = noise.spectrum_sigma_fields(grid, 3, 2.0, seed=1)
    model = noise.NoiseModel(noise.ADDITIVE, sigma_fields=sigmas)
    dW = np.array([0.1, -0.2, 0.05])
    a = noise.apply_noise(model, u_field, dW)
    b = noise.apply_noise(model, _zero(grid), dW)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14
    # and equals the plain linear combination (sigmas already div-free)
    want = sum(w * s.coeffs for w, s in zip(dW, sigmas))
    assert np.max(np.abs(a.coeffs - want)) < 1e-10


def test_shape_mismatch(grid, u_field):
    sigmas = noise.spectrum_sigma_fields(grid, 2, 2.0, seed=1)
    model = noise.NoiseModel(noise.ADDITIVE, sigma_fields=sigmas)
    with pytest.raises(ShapeMismatch):
        noise.apply_noise(model, u_field, np.array([0.1, 0.2, 0.3]))


def test_nemytskii_identity_reduces_to_linear_multiplicative(grid, u_field):
    # g = identity with a constant unit profile: P(1 * u) dW = u dW
    ones = sp.SpectralField.from_physical(grid, np.ones((2,) + grid.shape))
    model = noise.NoiseModel(noise.NEMYTSKII, sigma_fields=[ones],
                             g_tag="identity")
    lin = noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=1.0)
    dW = np.array([0.37])
    u = sp.dealias(u_field)
    a = noise.apply_noise(model, u, dW)
    b = noise.apply_noise(lin, u, dW)
    assert sp.l2_norm(a - b) < 1e-12


def test_functional_noise_matches_inner_product_formula(grid, u_field):
    sigmas = noise.spectrum_sigma_fields(grid, 2, 2.0, seed=3)
    profiles = noise.spectrum_sigma_fields(grid, 2, 2.0, seed=4)
    model = noise.NoiseModel(noise.FUNCTIONAL, sigma_fields=sigmas,
                             profiles=profiles)
    dW = np.array([0.2, -0.1])
    out = noise.apply_noise(model, u_field, dW)
    want = sum(w * sp.l2_inner(u_field, prof) * sig.coeffs
               for w, sig, prof in zip(dW, sigmas, profiles))
    assert np.max(np.abs(out.coeffs - want)) < 1e-10


def test_noise_output_divergence_free(grid, u_field):
    sigmas = noise.spectrum_sigma_fields(grid, 2, 2.0, seed=5)
    models = [
        noise.NoiseModel(noise.ADDITIVE, sigma_fields=sigmas),
        noise.NoiseModel(noise.NEMYTSKII, sigma_fields=sigmas,
                         g_tag="square"),
        noise.NoiseModel(noise.FUNCTIONAL, sigma_fields=sigmas,
                         profiles=sigmas),
    ]
    dW = np.array([0.1, 0.2])
    for model in models:
        out = noise.apply_noise(model, u_field, dW)
        assert _max_divergence(out) < 1e-10


def test_zero_mode_noise_returns_zero(u_field):
    out = noise.apply_noise(noise.zero_noise(), u_field, np.array([]))
    assert sp.l2_norm(out) == 0.0


# ---------------------------------------------------------------------------
# Lipschitz probe


def test_lipschitz_linear_multiplicative_ratio_is_alpha(grid):
    rng = np.random.default_rng(0)
    model = noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=-3.0)
    for _ in range(5):
        u = sp.random_divergence_free(grid, rng)
        v = sp.random_divergence_free(grid, rng)
        r = noise.lipschitz_probe(model, u, v, 1, 2.0)
        assert abs(r - 3.0) < 1e-10


def test_lipschitz_additive_ratio_is_zero(grid):
    rng = np.random.default_rng(1)
    sigmas = noise.spectrum_sigma_fields(grid, 2, 2.0, seed=6)
    model = noise.NoiseModel(noise.ADDITIVE, sigma_fields=sigmas)
    u = sp.random_divergence_free(grid, rng)
    v = sp.random_divergence_free(grid, rng)
    assert noise.lipschitz_probe(model, u, v, 1, 2.0) == 0.0


def test_lipschitz_degenerate_pair(grid, u_field):
    model = noise.NoiseModel(noise.LINEAR_MULTIPLICATIVE, alpha=1.0)
    with pytest.raises(DegenerateInput):
        noise.lipschitz_probe(model, u_field, u_field, 1, 2.0)


def test_lipschitz_nemytskii_square_grows_affinely(grid):
    # g(u) = u^2: the ratio over pairs bounded by ||u||,||v|| <= B grows at
    # most affinely in B across the sweep
    ones = sp.SpectralField.from_physical(grid, np.ones((2,) + grid.shape))
    model = noise.NoiseModel(noise.NEMYTSKII, sigma_fields=[ones],
                             g_tag="square")
    rng = np.random.default_rng(2)
    max_ratio = {}
    for B in (0.5, 1.0, 2.0, 4.0):
        ratios = []
        for _ in range(25):
            u = sp.random_divergence_free(grid, rng)
            v = sp.random_divergence_free(grid, rng)
            u = u * (B / max(sp.lp_norm(u, np.inf), 1e-12) * rng.uniform(0.2, 1.0))
            v = v * (B / max(sp.lp_norm(v, np.inf), 1e-12) * rng.uniform(0.2, 1.0))
            ratios.append(noise.lipschitz_probe(model, u, v, 1, 2.0))
        max_ratio[B] = max(ratios)
    slope = np.polyfit(list(max_ratio), list(max_ratio.values()), 1)
    # affine fit reproduces the sweep within a factor-2 envelope
    for B, r in max_ratio.items():
        assert r <= 2.0 * (slope[0] * B + abs(slope[1])) + 1e-9
    # and the ratio really does grow with B (locally-Lipschitz, not global)
    assert max_ratio[4.0] > max_ratio[0.5]


# ---------------------------------------------------------------------------
# Spectrum builder


def test_spectrum_sigma_fields_decay_and_determinism(grid):
    a = noise.spectrum_sigma_fields(grid, 4, 2.0, seed=9)
    b = noise.spectrum_sigma_fields(grid, 4, 2.0, seed=9)
    norms = [sp.l2_norm(f) for f in a]
    for x, y in zip(a, b):
        assert np.array_equal(x.coeffs, y.coeffs)
    for k in range(3):
        assert norms[k + 1] <= norms[k] + 1e-12
    for f in a:
        assert _max_divergence(f) < 1e-10
