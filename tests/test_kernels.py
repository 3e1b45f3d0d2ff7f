"""Transition kernels: moments, densities, probes, mass estimates."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from ginisim.kernels import (
    DETERMINISTIC,
    GAMMA,
    LOGNORMAL,
    KernelSpec,
    NoDensityError,
    conditional_mean,
    high_probability_mass,
    log_density,
    _gamma_quantile,
    _lognormal_scale,
    log_derivative_probe,
    transition_from_uniforms,
    unit_mean_noise,
)
from ginisim.streams import TAG_PROBE, indexed_uniforms


LOGN = KernelSpec(family=LOGNORMAL, alpha=1.02, beta=0.0, gamma_disp=0.2)
GAMM = KernelSpec(family=GAMMA, alpha=1.02, beta=0.0, gamma_disp=0.2)
DET = KernelSpec(family=DETERMINISTIC, alpha=1.05, beta=0.5, gamma_disp=0.0)


def _u(n, seed=0):
    return indexed_uniforms(seed, TAG_PROBE, 0, n)


def test_conditional_moments_hand_values():
    k = KernelSpec(family=LOGNORMAL, alpha=1.02, beta=0.5, gamma_disp=0.2)
    assert conditional_mean(k, 10.0) == pytest.approx(10.7, abs=1e-15)
    assert (k.gamma_disp * 10.0) ** 2 == pytest.approx(4.0, abs=1e-12)
    assert conditional_mean(DET, 0.0) == 0.5
    ident = KernelSpec(family=DETERMINISTIC, alpha=1.0, beta=0.0, gamma_disp=0.0)
    assert conditional_mean(ident, 3.25) == 3.25
    assert (ident.gamma_disp * 3.25) ** 2 == 0.0


def test_kernel_validation_messages():
    with pytest.raises(ValueError, match="unknown kernel family"):
        KernelSpec(family="cauchy", alpha=1.0, beta=0.0, gamma_disp=0.1)
    with pytest.raises(ValueError, match="alpha must be >= 1"):
        KernelSpec(family=LOGNORMAL, alpha=0.9, beta=0.0, gamma_disp=0.1)
    with pytest.raises(ValueError, match="beta must be >= 0"):
        KernelSpec(family=LOGNORMAL, alpha=1.0, beta=-0.1, gamma_disp=0.1)
    with pytest.raises(ValueError, match="gamma_disp must be >= 0"):
        KernelSpec(family=LOGNORMAL, alpha=1.0, beta=0.0, gamma_disp=-0.1)
    for field in ("alpha", "beta", "gamma_disp"):
        for bad in (math.nan, math.inf):
            params = {"alpha": 1.02, "beta": 0.5, "gamma_disp": 0.2, field: bad}
            with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
                KernelSpec(family=LOGNORMAL, **params)
    with pytest.raises(ValueError, match="requires gamma_disp = 0"):
        KernelSpec(family=DETERMINISTIC, alpha=1.0, beta=0.0, gamma_disp=0.1)
    with pytest.raises(ValueError, match="requires gamma_disp > 0"):
        KernelSpec(family=LOGNORMAL, alpha=1.0, beta=0.0, gamma_disp=0.0)


def test_moment_matching_identities():
    m, s = LOGN.lognormal_params()
    assert math.exp(m + 0.5 * s * s) == pytest.approx(1.02, rel=1e-14)
    assert 1.02**2 * math.expm1(s * s) == pytest.approx(0.2**2, rel=1e-12)
    k, theta = GAMM.gamma_params()
    assert k * theta == pytest.approx(1.02, rel=1e-14)
    assert k * theta**2 == pytest.approx(0.2**2, rel=1e-14)


@pytest.mark.parametrize("alpha, gamma_disp", [(1.02, 0.2), (1.0, 1.296136594301331)])
def test_the_density_and_the_sampler_share_one_lognormal_law(alpha, gamma_disp):
    # at r = 1.296136594301331, ln(1 + r^2) in libm and in numpy's array
    # loop differ by one ulp, so an s of its own would differ from the sampler's
    k = KernelSpec(family=LOGNORMAL, alpha=alpha, beta=0.0, gamma_disp=gamma_disp)
    s, shift = _lognormal_scale(gamma_disp / alpha)
    law = (math.log(alpha) + float(shift), float(s))
    assert [x.hex() for x in k.lognormal_params()] == [x.hex() for x in law]


def test_deterministic_sample_is_exact():
    assert transition_from_uniforms(DET, 10.0, _u(1)).tolist() == [11.0]


def test_zero_wealth_maps_to_salary_for_every_family():
    for k in (DET, LOGN, GAMM):
        k = KernelSpec(family=k.family, alpha=k.alpha, beta=0.5,
                       gamma_disp=k.gamma_disp)
        draws = transition_from_uniforms(k, 0.0, _u(100, seed=3))
        np.testing.assert_array_equal(draws, np.full(100, 0.5))


@pytest.mark.parametrize("kernel", [LOGN, GAMM], ids=["lognormal", "gamma"])
def test_sampled_moments_match_conditionals_within_5_se(kernel):
    n = 10**6
    x = 100.0
    k = KernelSpec(family=kernel.family, alpha=1.0, beta=0.0, gamma_disp=0.2)
    draws = transition_from_uniforms(k, x, _u(n, seed=17))
    assert draws.min() > 0.0  # support invariant
    target_mean = float(conditional_mean(k, x))
    target_var = (k.gamma_disp * x) ** 2
    sd = draws.std(ddof=1)
    assert abs(draws.mean() - target_mean) < 5.0 * sd / math.sqrt(n)
    # SE of the sample variance from the sample's own fourth moment
    centered = draws - draws.mean()
    kurt = np.mean(centered**4) / np.var(draws) ** 2
    se_var = np.var(draws) * math.sqrt((kurt - 1.0) / n)
    assert abs(np.var(draws) - target_var) < 5.0 * se_var


def test_density_normalizes_on_random_parameters():
    rng = np.random.default_rng(12)
    for trial in range(100):
        family = LOGNORMAL if trial % 2 == 0 else GAMMA
        alpha = float(rng.uniform(1.0, 2.0))
        gamma_disp = float(alpha * rng.uniform(0.05, 1.0))
        beta = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
        x = float(rng.uniform(0.1, 100.0))
        k = KernelSpec(family=family, alpha=alpha, beta=beta, gamma_disp=gamma_disp)
        q = alpha * unit_mean_noise(family, gamma_disp / alpha,
                                    np.array([1e-14, 1.0 - 1e-14]))
        # integrate in t = log(x' - beta); truncated tails hold < 2e-13 mass
        norm, _ = integrate.quad(
            lambda t: np.exp(log_density(k, x, beta + math.exp(t))) * math.exp(t),
            math.log(x * q[0]), math.log(x * q[1]),
            epsabs=1e-11, epsrel=1e-11, limit=300,
        )
        assert abs(norm - 1.0) < 1e-9, (family, alpha, gamma_disp, beta, x)


@pytest.mark.parametrize("kernel", [
    KernelSpec(family=LOGNORMAL, alpha=1.3, beta=0.7, gamma_disp=0.5),
    KernelSpec(family=GAMMA, alpha=1.3, beta=0.7, gamma_disp=0.5),
], ids=["lognormal", "gamma"])
def test_density_mean_matches_conditional_mean(kernel):
    x = 3.0
    q = kernel.alpha * unit_mean_noise(kernel.family,
                                       kernel.gamma_disp / kernel.alpha,
                                       np.array([1e-14, 1.0 - 1e-14]))
    mean, _ = integrate.quad(
        lambda t: (kernel.beta + math.exp(t))
        * np.exp(log_density(kernel, x, kernel.beta + math.exp(t))) * math.exp(t),
        math.log(x * q[0]), math.log(x * q[1]),
        epsabs=1e-12, epsrel=1e-11, limit=300,
    )
    assert mean == pytest.approx(float(conditional_mean(kernel, x)), rel=1e-7)


def test_density_zero_at_and_below_support_edge():
    k = KernelSpec(family=LOGNORMAL, alpha=1.02, beta=1.0, gamma_disp=0.2)
    f = np.exp(log_density(k, 5.0, np.array([1.0, 0.5, 1.5])))
    assert f[0] == 0.0
    assert f[1] == 0.0
    assert f[2] > 0.0


def test_log_density_degenerate_at_zero_wealth():
    with pytest.raises(ValueError, match="point mass at beta"):
        log_density(LOGN, 0.0, np.array([1.0]))
    with pytest.raises(ValueError, match="point mass at beta"):
        log_density(LOGN, np.array([1.0, 0.0]), np.array([1.0]))


@pytest.mark.parametrize("base", [LOGN, GAMM])
def test_log_density_broadcasts_over_x(base):
    # one row per source wealth, each the scalar call's bits, -inf below beta
    kernel = KernelSpec(base.family, alpha=1.5, beta=0.5, gamma_disp=0.3)
    xs = np.array([0.2, 1.0, 7.5])
    xp = np.array([0.1, 0.5, 0.9, 2.0, 11.0])
    grid = log_density(kernel, xs[:, None], xp[None, :])
    assert grid.shape == (3, 5)
    for row, x in zip(grid, xs.tolist()):
        assert row.tobytes() == log_density(kernel, x, xp).tobytes()
    assert np.all(grid[:, :2] == -math.inf)


def test_density_requires_noise():
    with pytest.raises(NoDensityError):
        log_density(DET, 1.0, np.array([1.05]))
    with pytest.raises(NoDensityError):
        log_derivative_probe(DET, 1.0, np.array([1.05]), which="output")


def test_output_probe_value_at_the_lognormal_mode():
    # at x' = x*e^m the Gaussian term vanishes: d log f / d log x' = -1
    m, _ = LOGN.lognormal_params()
    probe = log_derivative_probe(LOGN, 2.0, np.array([2.0 * math.exp(m)]), which="output")
    assert probe[0] == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("kernel", [LOGN, GAMM], ids=["lognormal", "gamma"])
def test_probe_input_output_symmetry_without_salary(kernel):
    # with beta = 0 the density is a function of x'/x alone, up to 1/x:
    # the two log-derivatives sum to -1 at every point
    xp = np.array([0.5, 1.0, 2.0, 7.0])
    out_p = log_derivative_probe(kernel, 1.5, xp, which="output")
    in_p = log_derivative_probe(kernel, 1.5, xp, which="input")
    np.testing.assert_allclose(out_p + in_p, -1.0, rtol=0.0, atol=1e-3)


def test_probe_stencil_outside_support_is_nan():
    # the lower stencil point of the first x' falls below the support edge at beta
    k = KernelSpec(family=LOGNORMAL, alpha=1.02, beta=1.0, gamma_disp=0.2)
    probe = log_derivative_probe(k, 1.0, np.array([1.0 + 1e-9, 2.0]), which="output")
    assert np.isnan(probe[0]) and np.isfinite(probe[1])


def test_high_probability_mass_limits():
    est = high_probability_mass(LOGN, 1.0, math.inf, _u(2000))
    assert est.mass == 1.0
    assert est.mass_beyond == 0.0
    est = high_probability_mass(LOGN, 1.0, 0.0, _u(2000))
    assert est.mass == 0.0
    assert est.mass + est.mass_beyond + est.excluded == pytest.approx(1.0)


def test_high_probability_mass_gaussian_tail_example():
    # s = 0.1: |d log f/d log x'| = |-1 - z/s^2| <= 50 puts z/s in
    # [-5.1, 4.9], nearly all the Gaussian mass
    gamma_disp = math.sqrt(math.expm1(0.01))
    k = KernelSpec(family=LOGNORMAL, alpha=1.0, beta=0.0, gamma_disp=gamma_disp)
    m, s = k.lognormal_params()
    assert s == pytest.approx(0.1, rel=1e-12)
    est = high_probability_mass(k, 1.0, 50.0, _u(20000), which="output")
    assert est.mass >= 0.99


def test_high_probability_mass_monotone_in_bound():
    masses = [
        high_probability_mass(LOGN, 1.0, b, _u(4000, seed=5)).mass
        for b in (0.5, 1.0, 2.0, 5.0, 20.0, 100.0)
    ]
    assert all(a <= b for a, b in zip(masses, masses[1:]))


def test_high_probability_mass_sample_floor():
    with pytest.raises(ValueError, match="10\\^3 samples"):
        high_probability_mass(LOGN, 1.0, 1.0, _u(999))


def test_unit_mean_noise_is_mean_one():
    u = (np.arange(200_000) + 0.5) / 200_000
    for family in (LOGNORMAL, GAMMA):
        w = unit_mean_noise(family, 0.3, u)
        assert np.all(w > 0.0)
        assert w.mean() == pytest.approx(1.0, abs=1e-3)
        assert w.std() == pytest.approx(0.3, abs=2e-3)
    with pytest.raises(NoDensityError):
        unit_mean_noise(DETERMINISTIC, 0.0, u)


def test_transition_from_uniforms_is_deterministic_in_u():
    u = np.array([0.1, 0.5, 0.9])
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(
        transition_from_uniforms(LOGN, x, u),
        transition_from_uniforms(LOGN, x, u),
    )
    with pytest.raises(ValueError, match="nonnegative"):
        transition_from_uniforms(LOGN, np.array([-1.0]), np.array([0.5]))


def test_noise_and_transition_leave_their_inputs_unchanged():
    # the noise and the transition are computed in place on fresh buffers;
    # the caller's uniforms and wealth must come back byte for byte
    u = indexed_uniforms(3, TAG_PROBE, 0, 2000)
    x = np.linspace(0.0, 50.0, 2000)
    u0, x0 = u.tobytes(), x.tobytes()
    for kernel in (LOGN, GAMM, KernelSpec(family=LOGNORMAL, alpha=1.3, beta=0.7, gamma_disp=0.5)):
        unit_mean_noise(kernel.family, 0.3, u)
        transition_from_uniforms(kernel, x, u)
        transition_from_uniforms(kernel, 4.0, u)
        transition_from_uniforms(kernel, x[:1], u[:1])
        high_probability_mass(kernel, 4.0, 1.0, u)
        assert u.tobytes() == u0 and x.tobytes() == x0, kernel.family


def test_in_place_transition_matches_the_allocating_form():
    u = indexed_uniforms(5, TAG_PROBE, 1, 1000)
    x = np.linspace(0.5, 20.0, 1000)
    for kernel in (LOGN, GAMM, KernelSpec(family=GAMMA, alpha=1.3, beta=0.7, gamma_disp=0.5)):
        r = kernel.gamma_disp / kernel.alpha
        w = unit_mean_noise(kernel.family, r, u)
        expected = x * (kernel.alpha * w) + kernel.beta
        assert transition_from_uniforms(kernel, x, u).tobytes() == expected.tobytes()
        # a scalar uniform broadcast against the wealth vector
        one = transition_from_uniforms(kernel, x, u[7])
        np.testing.assert_array_equal(one, x * (kernel.alpha * w[7]) + kernel.beta)
    s2 = np.log1p(np.float64(0.3) ** 2)
    w = unit_mean_noise(LOGNORMAL, 0.3, u)
    assert w.tobytes() == np.exp(-0.5 * s2 + np.sqrt(s2) * sp.ndtri(u)).tobytes()


@pytest.mark.parametrize("rel_sd", [0.3, 0.2 / 1.02, 1e-9, 5.0])
def test_cached_scalar_lognormal_scale_equals_the_array_paths(rel_sd):
    u = indexed_uniforms(6, TAG_PROBE, 0, 5000)
    cached = unit_mean_noise(LOGNORMAL, rel_sd, u).tobytes()
    assert unit_mean_noise(LOGNORMAL, rel_sd, u).tobytes() == cached  # from the cache
    assert unit_mean_noise(LOGNORMAL, np.float64(rel_sd), u).tobytes() == cached
    assert unit_mean_noise(LOGNORMAL, np.array(rel_sd), u).tobytes() == cached
    with pytest.raises(ValueError, match="one scalar rel_sd"):
        unit_mean_noise(LOGNORMAL, np.array([rel_sd]), u)


# The gamma noise's quantile against scipy's gammaincinv: 1e6 keyed
# uniforms plus the lattice's end cells and the median.
_LATTICE_ENDS = np.array([2.0**-53, 0.5, 1.0 - 2.0**-53])


@pytest.fixture(scope="module")
def gate_uniforms():
    u = np.concatenate([indexed_uniforms(9, TAG_PROBE, 0, 10**6), _LATTICE_ENDS])
    u.flags.writeable = False
    return u


@pytest.mark.parametrize("rel_sd", [0.01, 0.05, 0.196, 0.5, 1.0, 1.5, 2.0])
def test_gamma_quantile_within_1e_13_of_gammaincinv(gate_uniforms, rel_sd):
    shape = rel_sd**-2
    x = _gamma_quantile(shape, gate_uniforms)
    ref = sp.gammaincinv(shape, gate_uniforms)
    assert ref.min() > 0.0 and np.isfinite(ref).all()
    rel = np.abs(x - ref) / ref
    assert rel.max() <= 1e-13, (rel_sd, float(rel.max()), float(gate_uniforms[rel.argmax()]))


@pytest.mark.parametrize("shape", [1e5, 1e6, 8447622.0])
def test_gamma_quantile_at_large_shapes_against_mpmath(shape):
    # scipy's gammainc drifts at these shapes, so gammaincinv cannot judge;
    # the reference is Newton on mpmath's P (its 1F1 series, u <= 1/2) or
    # Q (above) at 40 digits
    import mpmath as mp

    with mp.workdps(40):
        a = mp.mpf(shape)
        log_gamma_a = mp.loggamma(a)
        for u in (1e-6, 0.3, 0.9):
            x = _gamma_quantile(shape, np.array([u]))[0]
            root = mp.mpf(x)
            for _ in range(4):
                if u <= 0.5:
                    gap = (mp.exp(a * mp.log(root) - root - mp.loggamma(a + 1))
                           * mp.hyp1f1(1, a + 1, root, maxterms=10**6) - u)
                else:
                    gap = (1 - mp.mpf(u)) - mp.gammainc(a, root, mp.inf, regularized=True)
                root -= gap / mp.exp((a - 1) * mp.log(root) - root - log_gamma_a)
            rel = float(abs(mp.mpf(x) - root) / root)
            assert rel <= 1e-13, (shape, u, rel)


@pytest.mark.parametrize("rel_sd", [0.005, 3.0])
def test_gamma_quantile_outside_the_gate_is_finite_and_monotone(gate_uniforms, rel_sd):
    u = np.sort(gate_uniforms)
    x = _gamma_quantile(rel_sd**-2, u)
    assert np.isfinite(x).all() and x.min() >= 0.0
    assert (np.diff(x) >= 0.0).all()


def test_gamma_quantile_of_a_0d_uniform_equals_its_array_value():
    u = np.concatenate([indexed_uniforms(4, TAG_PROBE, 0, 64), _LATTICE_ENDS])
    for shape in (0.25, 1.0, 26.03, 1e4):
        x = _gamma_quantile(shape, u)
        for i in (0, 17, 63, 64, 65, 66):
            one = _gamma_quantile(shape, u[i])
            assert isinstance(one, float) and one == x[i], (shape, i)
            assert _gamma_quantile(shape, np.array(u[i])) == x[i]


def test_gamma_noise_takes_a_scalar_rel_sd():
    with pytest.raises(ValueError, match="one scalar rel_sd"):
        unit_mean_noise(GAMMA, np.array([0.2, 0.3]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("family", [LOGNORMAL, GAMMA])
@pytest.mark.parametrize("rel_sd", [math.nan, -0.3, 0.0, math.inf])
def test_noise_rejects_a_rel_sd_that_is_not_finite_and_positive(family, rel_sd):
    with pytest.raises(ValueError, match="one scalar rel_sd, finite and positive"):
        unit_mean_noise(family, rel_sd, np.array([0.25, 0.5, 0.75]))
