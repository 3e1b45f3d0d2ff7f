"""Verification checks: pair integrals, stripe functional, density checks."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import integrate
from scipy import special as sp
from scipy.special import ndtri

from ginisim import streams, verification
from ginisim.bounds import BoundParams
from ginisim.config import load_config
from ginisim.dynamics import PopulationState, initial_lognormal, initial_point
from ginisim.kernels import (DETERMINISTIC, GAMMA, LOGNORMAL, KernelSpec, NoDensityError,
                             log_density, transition_from_uniforms)
from ginisim.metrics import tail_probability
from ginisim.verification import (
    CoarseGridError,
    DensityOnRay,
    NonNormalizedError,
    _mixture_log_density,
    calibrate_log_derivative_bound,
    diagonal_bound_check,
    ensemble_gap_bound_check,
    extremal_closed_form,
    extremal_minimality_check,
    format_report,
    pair_split_integral,
    pushforward_log_derivative_check,
    random_trial_densities,
    rippled_extremal,
    stripe_pair_functional,
    stripe_window,
    truncated_pareto,
    verify_integrals,
)

ROOT = Path(__file__).resolve().parent.parent
LN = KernelSpec(LOGNORMAL, alpha=1.02, beta=0.0, gamma_disp=0.2)
SQRT_PI = math.sqrt(math.pi)


def trial_lines(section: dict) -> dict:
    """label -> (y, ratio, status) of each trial line of a minimality section."""
    out = {}
    for key, line in section.items():
        if key.startswith("trial["):
            y, ratio, status = line.split()
            out[key[len("trial["):-1]] = (float(y[len("y="):]), float(ratio[len("ratio="):]),
                                          status)
    return out


def pair_split_monte_carlo(kernel, x, y, n_pairs, master_seed):
    """Monte Carlo oracle for the pair integral: (estimate, standard error)."""
    xs = transition_from_uniforms(
        kernel, x, streams.indexed_uniforms(master_seed, streams.TAG_PROBE, 0, n_pairs))
    ys = transition_from_uniforms(
        kernel, y, streams.indexed_uniforms(master_seed, streams.TAG_PROBE, 1, n_pairs))
    gap = np.maximum(ys - xs, 0.0)
    return float(gap.mean()), float(gap.std(ddof=1) / math.sqrt(n_pairs))


def test_pair_integral_rejects_bad_inputs():
    det = KernelSpec(DETERMINISTIC, alpha=1.02, beta=0.5, gamma_disp=0.0)
    with pytest.raises(NoDensityError, match="F undefined"):
        pair_split_integral(det, 1.0, 2.0)
    with pytest.raises(ValueError, match="requires x, y > 0"):
        pair_split_integral(LN, 0.0, 1.0)


def test_pair_integral_rejects_any_non_positive_element():
    for x, y in [([1.0, 2.0, 0.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [-1.0, 2.0, 3.0]),
                 ([1.0, math.nan], 2.0), (1.0, [[1.0, 2.0], [3.0, 0.0]])]:
        with pytest.raises(ValueError, match="requires x, y > 0"):
            pair_split_integral(LN, x, y)


@pytest.mark.parametrize("family", [LOGNORMAL, GAMMA])
def test_pair_integral_array_call_equals_scalar_calls(family):
    kernel = KernelSpec(family, alpha=1.02, beta=0.3, gamma_disp=0.2)
    rng = np.random.default_rng(3)
    xs, ys = np.exp(rng.normal(0.0, 3.0, (2, 257)))
    got = pair_split_integral(kernel, xs, ys)
    assert got.shape == xs.shape
    scalar = np.array([pair_split_integral(kernel, x, y) for x, y in zip(xs.tolist(), ys.tolist())])
    assert got.tobytes() == scalar.tobytes()
    assert isinstance(pair_split_integral(kernel, np.float64(1.5), 0.7), float)


def test_pair_integral_ratio_overflow_is_the_upper_limit():
    # y/x overflows to inf: Phi(d1) = Phi(d1 - sigma) = 1, so F = alpha*(y - x)
    assert pair_split_integral(LN, 1e-200, 1e200) == 1.02 * (1e200 - 1e-200)


def test_pair_integral_ratio_underflow_is_zero():
    # y/x underflows to 0 and its log to -inf: Y' never exceeds X'
    assert pair_split_integral(LN, 1e200, 1e-200) == 0.0


def test_pair_integral_against_monte_carlo():
    kernel = KernelSpec(LOGNORMAL, alpha=1.02, beta=0.3, gamma_disp=0.25)
    for x, y in [(2.0, 2.0), (1.5, 0.7)]:
        exact = pair_split_integral(kernel, x, y)
        est, se = pair_split_monte_carlo(kernel, x, y, 40000, master_seed=5)
        assert abs(exact - est) < 5.0 * se


def test_pair_symmetry_is_absolute_difference():
    # F(x,y) + F(y,x) = E|X' - Y'|
    kernel = KernelSpec(GAMMA, alpha=1.1, beta=0.2, gamma_disp=0.4)
    x, y = 1.5, 0.7
    total = pair_split_integral(kernel, x, y) + pair_split_integral(kernel, y, x)
    xs = transition_from_uniforms(
        kernel, x, streams.indexed_uniforms(9, streams.TAG_PROBE, 0, 40000))
    ys = transition_from_uniforms(
        kernel, y, streams.indexed_uniforms(9, streams.TAG_PROBE, 1, 40000))
    gap = np.abs(xs - ys)
    assert abs(total - gap.mean()) < 5.0 * gap.std(ddof=1) / math.sqrt(gap.size)


def test_pair_diagonal_gaussian_limit():
    # small dispersion: F(x,x) -> x * Gamma / sqrt(pi), any family
    for family, gamma in [(LOGNORMAL, 0.02), (GAMMA, 0.05)]:
        kernel = KernelSpec(family, alpha=1.05, beta=0.0, gamma_disp=gamma)
        x = 3.0
        assert pair_split_integral(kernel, x, x) == pytest.approx(
            x * gamma / SQRT_PI, rel=0.02)


def test_pair_transfer_invariance_and_homogeneity():
    # the additive transfer shifts both draws, so it cancels in the gap
    shifted = KernelSpec(LOGNORMAL, alpha=1.02, beta=0.7, gamma_disp=0.2)
    assert pair_split_integral(shifted, 1.3, 0.9) == pytest.approx(
        pair_split_integral(LN, 1.3, 0.9), rel=1e-8)
    # and with no transfer the integral is degree-1 homogeneous
    assert pair_split_integral(LN, 3.9, 2.7) == pytest.approx(
        3.0 * pair_split_integral(LN, 1.3, 0.9), rel=1e-6)


def _ndtr(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _reference_pair_integral(kernel, x, y):
    """The pair integral by adaptive quadrature over the first factor's noise.

    The inner integral is the noise law's upper partial moments; the outer
    domain in t = ln u cuts about 1e-14 of the noise law's mass off each end.
    """
    if kernel.family == LOGNORMAL:
        m, s = kernel.lognormal_params()
        alpha = kernel.alpha

        def partial_mean(c):
            return alpha * _ndtr((m + s * s - math.log(c)) / s)

        def upper_tail(c):
            return _ndtr((m - math.log(c)) / s)

        t_lo, t_hi = m - 8.0 * s, m + 8.0 * s

        def weighted_noise(t):
            z = (t - m) / s
            return math.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))

    else:
        k, theta = kernel.gamma_params()
        log_norm = sp.gammaln(k) + k * math.log(theta)

        def partial_mean(c):
            return k * theta * sp.gammaincc(k + 1.0, c / theta)

        def upper_tail(c):
            return sp.gammaincc(k, c / theta)

        t_lo = math.log(sp.gammaincinv(k, 1e-14) * theta)
        t_hi = math.log(sp.gammainccinv(k, 1e-14) * theta)

        def weighted_noise(t):
            return math.exp(k * t - math.exp(t) / theta - log_norm)

    def integrand(t):
        u = math.exp(t)
        c = x * u / y
        return weighted_noise(t) * (y * partial_mean(c) - x * u * upper_tail(c))

    scale = kernel.alpha * max(x, y)
    value, _ = integrate.quad(
        integrand, t_lo, t_hi, epsabs=1e-12 * scale, epsrel=1e-10, limit=300)
    return float(value)


@pytest.mark.parametrize("family,rel_disp", [
    (LOGNORMAL, 0.05), (LOGNORMAL, 0.2), (LOGNORMAL, 1.0),
    (GAMMA, 0.05), (GAMMA, 0.2), (GAMMA, 1.0),
])
def test_pair_integral_closed_form_matches_quadrature(family, rel_disp):
    alpha = 1.02
    kernel = KernelSpec(family, alpha=alpha, beta=0.3, gamma_disp=rel_disp * alpha)
    pairs = [(1.0, 1.0), (37.5, 37.5), (1.5, 0.7), (0.7, 1.5),
             (1e3, 1.0), (1.0, 1e3), (2e-2, 2e1), (4e4, 40.0), (1e6, 1.0), (1.0, 1e6)]
    for x, y in pairs:
        got = pair_split_integral(kernel, x, y)
        assert abs(got - _reference_pair_integral(kernel, x, y)) <= 1e-12 * alpha * max(x, y), (x, y)


# wide-ratio gamma pairs of an ensemble snapshot on which the adaptive
# quadrature missed its error target, so the ensemble gap dropped them
WIDE_GAMMA_PAIRS = [(0.0006120554383263752, 6.363867343722544),
                    (0.03767784180371892, 79.11365155524304)]


def test_pair_integral_finite_on_wide_ratio_gamma_pairs():
    kernel = KernelSpec(GAMMA, alpha=1.02, beta=0.0, gamma_disp=0.2 * 1.02)
    for x, y in WIDE_GAMMA_PAIRS:
        got = pair_split_integral(kernel, x, y)
        assert math.isfinite(got)
        # Y' < X' is out of reach at this ratio: F = E[Y' - X'] = alpha * (y - x)
        assert got == pytest.approx(1.02 * (y - x), rel=1e-12)


def test_diagonal_bound_check_slack_scaling():
    report = diagonal_bound_check(LN, [1.0, 10.0, 100.0], gamma_claimed=0.0734)
    assert report["pass"]
    # with beta = 0 everything is degree-1 homogeneous in x
    assert report["slack_x[x=100]"] == pytest.approx(100.0 * report["slack_x[x=1]"], rel=1e-3)
    assert report["f_diag[x=10]"] == pytest.approx(10.0 * report["f_diag[x=1]"], rel=1e-6)
    assert report["f_diag[x=1]"] == pytest.approx(0.2 / SQRT_PI, rel=0.03)
    # an overclaimed constant must fail
    assert not diagonal_bound_check(LN, [1.0, 10.0], gamma_claimed=0.5)["pass"]


def test_calibration_structure():
    kernel = KernelSpec(LOGNORMAL, alpha=1.02, beta=0.5, gamma_disp=0.3)
    cal = calibrate_log_derivative_bound(kernel, x=1.0, master_seed=0)
    assert 0.0 < cal["delta_logx"] < math.inf
    assert 0.0 < cal["delta_logxp"] < math.inf
    assert cal["gamma_inv"] == pytest.approx(
        1.0 / max(cal["delta_logx"], cal["delta_logxp"]))
    # the mass of each bound, measured on fresh draws, is part of the report
    config = load_config({
        "kernel": {"family": LOGNORMAL, "alpha": 1.02, "beta": 0.5, "gamma_disp": 0.3},
        "population": {"n_agents": 500, "steps": 5},
        "integrals": {"snapshot_step": 5, "n_pairs": 100, "n_trials": 1,
                      "a_values": [1.0], "delta_values": [0.01], "x_diagonal": [1.0]},
    })
    report = dict(verify_integrals(config))["calibration"]
    assert list(report.items())[:len(cal)] == list(cal.items())
    assert list(report)[len(cal):] == ["mass_within_logx", "mass_within_logxp"]
    assert report["mass_within_logx"] == pytest.approx(0.99, abs=0.015)
    assert report["mass_within_logxp"] == pytest.approx(0.99, abs=0.015)
    # relative noise 2e-61: every draw is alpha * x, where the probes vanish
    spike = KernelSpec(LOGNORMAL, alpha=1e60, beta=0.0, gamma_disp=0.2)
    with pytest.raises(ValueError, match="noise is below float resolution"):
        calibrate_log_derivative_bound(spike, x=1.0, master_seed=0)


# --- the quadrature oracle of the stripe functional ------------------------
#
# Adaptive quadrature of the same integrals, on densities written out as
# plain functions of y: the window mass, the outer integral with a forced
# subdivision at the kink where the lower clip stops acting, and the norm.


def _oracle_density(pdf, a, clip_lower):
    """pdf on (0, inf), cut to zero below a when ``clip_lower``."""
    return (lambda y: pdf(y) if y >= a else 0.0) if clip_lower else pdf


def _oracle_window(pdf, a, x, delta, clip_lower=True):
    lo, hi = x * math.exp(-delta), x * math.exp(delta)
    if clip_lower:
        lo = max(lo, a)
    if hi <= lo:
        return 0.0
    value, _ = integrate.quad(_oracle_density(pdf, a, clip_lower), lo, hi,
                              epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def _oracle_functional(pdf, a, upper, delta, clip_lower=True):
    def integrand(t):
        x = math.exp(t)
        return x * x * pdf(x) * _oracle_window(pdf, a, x, delta, clip_lower)

    t_lo, t_hi = math.log(a), math.log(upper)
    # the window's lower clip disengages at x = a * e^delta; that kink sits
    # in a boundary layer of width delta the adaptive rule can miss entirely
    # for small delta, so force a subdivision point there
    kink = t_lo + delta
    points = [kink] if clip_lower and kink < t_hi else None
    value, err = integrate.quad(integrand, t_lo, t_hi, epsabs=0.0, epsrel=1e-11,
                                limit=400, points=points)
    assert err <= 1e-10 * abs(value)
    return value


def _oracle_norm(pdf, a, upper):
    value, _ = integrate.quad(lambda t: math.exp(t) * pdf(math.exp(t)),
                              math.log(a), math.log(upper), epsabs=0.0, epsrel=1e-12, limit=400)
    return value


def _pareto_pdf(a, c):
    return lambda y: c * a**c / y ** (1.0 + c)


def _ripple_pdf(a, m, omega):
    norm = 1.0 + m * omega / (1.0 + omega * omega)
    return lambda y: (a / (y * y)) * (1.0 + m * math.sin(omega * math.log(y / a))) / norm


ORACLE_FAMILIES = ([("pareto", c) for c in (0.5, 0.55, 1.0, 1.5, 3.0)]
                   + [("ripple", m, omega) for m in (0.0, 0.1, 0.5) for omega in (0.5, 1.7, 3.0)])


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=lambda f: "_".join(map(str, f)))
def test_closed_forms_match_the_quadrature_oracle(family):
    for a in (0.5, 1.0, 10.0):
        if family[0] == "pareto":
            p, pdf = truncated_pareto(a, family[1]), _pareto_pdf(a, family[1])
        else:
            p, pdf = rippled_extremal(a, *family[1:]), _ripple_pdf(a, *family[1:])
        for y in (0.3 * a, a, 1.7 * a, 40.0 * a):
            assert p.pdf(y) == pytest.approx(pdf(y) if y >= a else 0.0, rel=1e-12)
        assert p.validate() == pytest.approx(_oracle_norm(pdf, a, p.upper), rel=1e-9)
        for delta in (0.001, 0.01, 0.05):
            for x in a * np.exp([-0.5 * delta, 0.5 * delta, 2.0 * delta, 1.0, 12.0]):
                assert stripe_window(p, x, delta) == pytest.approx(
                    _oracle_window(pdf, a, x, delta), rel=1e-9), (a, delta, x)
            for clip_lower in (True, False):
                assert stripe_pair_functional(p, delta, clip_lower) == pytest.approx(
                    _oracle_functional(pdf, a, p.upper, delta, clip_lower),
                    rel=1e-9), (a, delta, clip_lower)


def test_density_on_ray_validation():
    with pytest.raises(ValueError, match="upper truncation"):
        DensityOnRay(1.0, [(1.0, -1.0)], upper=0.5)
    with pytest.raises(ValueError, match="positive"):
        DensityOnRay.extremal(0.0)
    with pytest.raises(ValueError, match="nonzero"):
        DensityOnRay(1.0, [(1.0, 0.0)], upper=2.0)

    h = DensityOnRay.extremal(1.0)
    assert h.pdf(0.5) == 0.0          # below the cutoff
    assert h.pdf(2.0) == pytest.approx(0.25, rel=1e-15)
    assert h.validate() == pytest.approx(1.0, abs=1e-8)
    heavy = DensityOnRay(1.0, [(2.0, -1.0)], upper=1e10)  # the extremal family at weight 2
    with pytest.raises(NonNormalizedError, match="integrates to"):
        heavy.validate()


def test_extremal_closed_forms():
    for a in (0.5, 1.0, 10.0):
        for delta in (0.001, 0.01, 0.05):
            h = DensityOnRay.extremal(a)
            unclipped = stripe_pair_functional(h, delta, clip_lower=False)
            assert unclipped == pytest.approx(extremal_closed_form(a, delta),
                                              rel=1e-9)
            clipped = stripe_pair_functional(h, delta, clip_lower=True)
            assert clipped == pytest.approx(
                a * (delta + 1.0 - math.exp(-delta)), rel=1e-8)


def test_stripe_functional_edges():
    h = DensityOnRay.extremal(1.0)
    assert stripe_pair_functional(h, 0.0) == 0.0
    with pytest.raises(ValueError, match=r"delta must be in \[0, 0.2\)"):
        stripe_pair_functional(h, 0.25)
    # a support narrower than the window: the clipped piece ends at upper
    steep = truncated_pareto(1.0, 3000.0)
    assert math.log(steep.upper) < 0.01
    assert stripe_pair_functional(steep, 0.01) == pytest.approx(
        _oracle_functional(_pareto_pdf(1.0, 3000.0), 1.0, steep.upper, 0.01), rel=1e-9)


def test_stripe_quadratic_convergence():
    # unclipped value / (2 a delta) - 1 = sinh(delta)/delta - 1 ~ delta^2/6
    h = DensityOnRay.extremal(1.0)

    def excess(delta):
        val = stripe_pair_functional(h, delta, clip_lower=False)
        return val / (2.0 * delta) - 1.0

    assert excess(0.1) / excess(0.01) == pytest.approx(100.0, rel=0.05)


def test_stripe_narrow_bump_equals_mean():
    # the oracle on a bump far above the cutoff whose window always holds
    # all its mass: the functional collapses to E[X]
    def bump(y):
        return max(20.0 - 400.0 * abs(y - 3.0), 0.0)

    assert _oracle_functional(bump, 2.95, 3.05, 0.05) == pytest.approx(3.0, rel=1e-3)


def test_minimality_report_basics():
    report = extremal_minimality_check(2.0, 0.03, [])
    assert report["n_trials"] == 0 and trial_lines(report) == {}
    assert report["pass"] and report["n_excluded"] == 0
    assert report["y_extremal_closed_form"] == extremal_closed_form(2.0, 0.03)
    assert report["y_extremal_clipped"] == pytest.approx(
        2.0 * (0.03 + 1.0 - math.exp(-0.03)), rel=1e-6)
    with pytest.raises(ValueError, match="delta <= 0.05"):
        extremal_minimality_check(1.0, 0.06, [])


def test_minimality_explicit_pareto_trials():
    trials = [truncated_pareto(1.0, c) for c in (0.5, 1.0, 2.0)]
    report = extremal_minimality_check(1.0, 0.01, trials)
    assert report["n_excluded"] == 0 and report["pass"]
    lines = trial_lines(report)
    assert list(lines) == ["pareto_c=0.5", "pareto_c=1", "pareto_c=2"]
    # c = 1 is the extremal shape up to the upper truncation
    assert lines["pareto_c=1"][0] == pytest.approx(report["y_extremal_clipped"], rel=1e-6)
    assert all(ratio >= 0.95 and status == "ok" for _, ratio, status in lines.values())


def test_minimality_rejects_an_unnormalized_trial():
    twice = DensityOnRay(1.0, [(2.0, -1.0)], upper=1e10, label="twice")
    with pytest.raises(NonNormalizedError, match="twice: integrates to"):
        extremal_minimality_check(1.0, 0.01, [twice])


def test_minimality_cap_exclusion():
    steep = truncated_pareto(1.0, 200.0)  # log-derivative 201 >> 1/delta
    report = extremal_minimality_check(1.0, 0.01, [steep])
    assert report["n_trials"] == report["n_excluded"] == 1
    y, ratio, status = trial_lines(report)["pareto_c=200"]
    assert status == "excluded" and math.isnan(y) and math.isnan(ratio)
    assert report["pass"]  # excluded trials do not fail the check


def test_minimality_auto_trials():
    report = extremal_minimality_check(1.0, 0.01, random_trial_densities(1.0, 6, 0))
    labels = list(trial_lines(report))
    assert report["n_trials"] == len(labels) == 6 and report["n_excluded"] == 0
    assert report["pass"]
    assert labels[0].startswith("pareto_c=")
    assert labels[1].startswith("ripple_")


def test_ensemble_gap_hypothesis_failures():
    det = KernelSpec(DETERMINISTIC, alpha=1.02, beta=0.5, gamma_disp=0.0)
    pop = PopulationState(np.ones(32), t=0)
    with pytest.raises(NoDensityError, match="deterministic kernel has no density"):
        ensemble_gap_bound_check(pop, det, BoundParams(), master_seed=0)


def test_ensemble_gap_epsilon_is_delta_over_gamma():
    pop = initial_lognormal(300, 1.0, 1.0, 11)
    for gamma, eps in [(0.0734, 0.05 / 0.0734), (0.04, 0.999)]:  # 1.25 is capped
        params = BoundParams(kappa=0.25, delta_stripe=0.05, gamma_inv_logderiv=gamma)
        report = ensemble_gap_bound_check(pop, LN, params, master_seed=0, n_pairs=32)
        assert report["epsilon"] == min(0.05 / gamma, 0.999) == eps
        mu, p_tail = float(pop.wealth.mean()), tail_probability(pop.wealth, 0.25)
        assert report["rhs_bound"] == 0.05 * 0.25 * mu * gamma * (1.0 - eps) * p_tail**2


def test_ensemble_gap_satisfied_on_spread_population():
    pop = initial_lognormal(300, 1.0, 1.0, 11)
    params = BoundParams(kappa=0.25, delta_stripe=0.05, gamma_inv_logderiv=0.0734)
    report = ensemble_gap_bound_check(pop, LN, params, master_seed=0, n_pairs=300)
    assert report["snapshot_step"] == 0 and report["n_excluded"] == 0
    assert report["rhs_bound"] > 0.0 and report["lhs_mean"] > report["rhs_bound"]
    assert report["pass"] and report["margin_se"] > 3.0


def test_ensemble_gap_too_many_excluded():
    wealth = np.zeros(200)
    wealth[-1] = 1.0
    pop = PopulationState(wealth, t=0)
    report = ensemble_gap_bound_check(pop, LN, BoundParams(), master_seed=0, n_pairs=64)
    # too many excluded pairs: the hypotheses are not met, the statistics are nan
    assert report["n_excluded"] > 64 // 2 and not report["pass"]
    assert all(math.isnan(report[key]) for key in ("lhs_mean", "standard_error", "margin_se"))


def test_ensemble_gap_excludes_only_zero_wealth_pairs():
    kernel = KernelSpec(GAMMA, alpha=1.02, beta=0.0, gamma_disp=0.2 * 1.02)
    wealth = np.array([w for pair in WIDE_GAMMA_PAIRS for w in pair] + [0.0, 1.0])
    pop = PopulationState(wealth, t=0)
    n_pairs = 64
    report = ensemble_gap_bound_check(pop, kernel, BoundParams(), master_seed=3, n_pairs=n_pairs)
    ii, jj = (np.minimum((streams.indexed_uniforms(3, streams.TAG_PAIRS, seq, n_pairs)
                          * wealth.size).astype(np.int64), wealth.size - 1) for seq in (0, 1))
    zero_pairs = np.count_nonzero((wealth[ii] == 0.0) | (wealth[jj] == 0.0))
    assert 0 < zero_pairs < n_pairs // 2
    assert report["n_excluded"] == zero_pairs
    assert math.isfinite(report["lhs_mean"]) and math.isfinite(report["standard_error"])


def test_diagnostic_streams_are_disjoint(monkeypatch):
    # every (master_seed, tag, sequence, first block) key one verify-integrals
    # run draws is drawn once, under the config's own seed
    config = load_config({
        "kernel": {"family": "lognormal", "alpha": 1.02, "gamma_disp": 0.2},
        "population": {"n_agents": 500, "steps": 5},
        "master_seed": 7,
        "integrals": {"snapshot_step": 5, "n_pairs": 100, "n_trials": 2,
                      "a_values": [1.0], "delta_values": [0.01], "x_diagonal": [1.0]},
    })
    keys = []
    draw = streams.indexed_uniforms

    def recording(master_seed, tag, sequence, n, first_block=0):
        keys.append((master_seed, tag, sequence, first_block))
        return draw(master_seed, tag, sequence, n, first_block)

    monkeypatch.setattr(streams, "indexed_uniforms", recording)
    verify_integrals(config)
    assert {tag for _, tag, _, _ in keys} >= {
        streams.TAG_STEP, streams.TAG_CALIBRATION, streams.TAG_PAIRS, streams.TAG_TRIALS}
    assert len(set(keys)) == len(keys)
    assert {seed for seed, *_ in keys} == {7}


def _lognormal_shape(kernel):
    return math.sqrt(math.log1p((kernel.gamma_disp / kernel.alpha) ** 2))


def test_pushforward_single_source_matches_analytic():
    # every agent at 1.0: the pushforward is the kernel density itself and
    # the core max is 1 + z/s at the upper quantile edge
    pop = initial_point(50)
    s = _lognormal_shape(LN)
    z = float(ndtri(0.995))
    pred = 1.0 + z / s
    grid = np.geomspace(0.4, 2.2, 2001)
    report = pushforward_log_derivative_check(pop, LN, grid, bound=pred + 0.05)
    assert report["pass"]
    assert report["max_abs_logderiv_core"] == pytest.approx(pred, abs=0.05)
    assert report["claimed_bound"] == pytest.approx(pred + 0.05)


def test_pushforward_two_component_excludes_valley():
    # two well-separated spikes: the density valley between them has a huge
    # log-derivative but lies outside every agent's core window
    pop = PopulationState(np.array([1.0] * 30 + [8.0] * 30), t=0)
    s = _lognormal_shape(LN)
    pred = 1.0 + float(ndtri(0.995)) / s
    grid = np.geomspace(0.4, 16.0, 3001)
    report = pushforward_log_derivative_check(pop, LN, grid, bound=pred + 0.05)
    assert report["pass"]
    assert report["max_abs_logderiv_core"] <= pred * 1.01


def test_pushforward_gamma_family_and_zero_agents():
    kernel = KernelSpec(GAMMA, alpha=1.5, beta=0.5, gamma_disp=0.3)
    wealth = np.concatenate([initial_lognormal(60, 1.0, 0.5, 3).wealth, [0.0]])
    pop = PopulationState(wealth, t=0)
    grid = np.geomspace(0.6, 12.0, 2001)
    report = pushforward_log_derivative_check(pop, kernel, grid, bound=60.0 + 0.05)
    assert report["pass"]
    assert math.isfinite(report["max_abs_logderiv_core"])
    # the zero-wealth agent is left out: the section is that of the others
    positive = PopulationState(wealth[:-1], t=0)
    assert report == pushforward_log_derivative_check(positive, kernel, grid,
                                                      bound=60.0 + 0.05)


def _mixture_one_block(kernel, sources, grid):
    """The mixture's expression over the whole agents x grid matrix at once."""
    lp = log_density(kernel, sources[:, None], grid[None, :])
    return sp.logsumexp(lp, axis=0) - math.log(sources.size)


MIXTURE_KERNELS = (LN, KernelSpec(GAMMA, alpha=1.5, beta=0.5, gamma_disp=0.3))


@pytest.mark.parametrize("kernel", MIXTURE_KERNELS, ids=lambda kernel: kernel.family)
@pytest.mark.parametrize("m_agents", [1, 2, 60, 449, 2048])
@pytest.mark.parametrize("n_grid", [16, 17, 220, 2001])
def test_mixture_blocks_equal_one_block_bit_for_bit(kernel, m_agents, n_grid):
    # M = 2048, G = 220 is where a fixed 73-column stride would leave a
    # 1-column block, whose agent sum numpy adds pairwise
    sources = np.random.default_rng(11).lognormal(0.0, 0.5, m_agents)
    grid = np.geomspace(kernel.beta + 0.3, kernel.beta + 6.0, n_grid)
    blocked = _mixture_log_density(kernel, sources, grid)
    assert blocked.tobytes() == _mixture_one_block(kernel, sources, grid).tobytes()


@pytest.mark.parametrize("kernel", MIXTURE_KERNELS, ids=lambda kernel: kernel.family)
def test_mixture_peak_memory_is_bounded_by_its_blocks(kernel):
    # the verify-integrals shape: one block of 2048 x 220 peaked at 24.5 MiB
    sources = np.random.default_rng(11).lognormal(0.0, 0.5, 2048)
    grid = np.geomspace(kernel.beta + 0.3, kernel.beta + 6.0, 220)
    tracemalloc.start()
    try:
        _mixture_log_density(kernel, sources, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_pushforward_error_paths():
    pop = initial_point(20)
    det = KernelSpec(DETERMINISTIC, alpha=1.02, beta=0.0, gamma_disp=0.0)
    good = np.geomspace(0.5, 2.0, 64)
    with pytest.raises(NoDensityError):
        pushforward_log_derivative_check(pop, det, good, 10.0)
    with pytest.raises(ValueError, match="at least 16 points"):
        pushforward_log_derivative_check(pop, LN, good[:15], 10.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        pushforward_log_derivative_check(pop, LN, good[::-1], 10.0)
    shifted = KernelSpec(LOGNORMAL, alpha=1.02, beta=0.6, gamma_disp=0.2)
    with pytest.raises(ValueError, match="support edge at beta"):
        pushforward_log_derivative_check(pop, shifted, good, 10.0)
    far = np.geomspace(100.0, 200.0, 64)
    with pytest.raises(ValueError, match="fewer than 8 points"):
        pushforward_log_derivative_check(pop, LN, far, 10.0)


def test_format_report():
    text = format_report([("alpha", {"x": 1.5, "n": 3, "s": "ok"})])
    assert text == "[alpha]\nx: 1.5\nn: 3\ns: ok\n"


@pytest.mark.parametrize("family", [LOGNORMAL, GAMMA])
def test_verify_integrals_report_is_pinned(family):
    # the shipped integrals config and its gamma variant; the golden files
    # are the `ginisim verify-integrals` stdout, which prints one more newline
    data = yaml.safe_load((ROOT / "configs" / "integrals.yaml").read_text(encoding="utf-8"))
    data["kernel"]["family"] = family
    text = format_report(verify_integrals(load_config(data))) + "\n"
    golden = ROOT / "tests" / "golden" / f"verify_integrals_{family}.txt"
    assert text == golden.read_text(encoding="utf-8")


def test_verify_integrals_halves_the_spacing_of_a_grid_too_coarse(monkeypatch):
    # at seed 215 the gamma snapshot's 220-point grid fails the stride-2
    # check, and 439 points pass it; at the golden's seed 42, 220 points do
    data = yaml.safe_load((ROOT / "configs" / "integrals.yaml").read_text(encoding="utf-8"))
    data["kernel"]["family"], data["master_seed"] = GAMMA, 215
    check, tried = verification.pushforward_log_derivative_check, []

    def recorded(pop, kernel, grid, bound):
        try:
            section = check(pop, kernel, grid, bound)
        except CoarseGridError as exc:
            tried.append((grid.size, str(exc)))
            raise
        tried.append((grid.size, "trusted"))
        return section

    monkeypatch.setattr(verification, "pushforward_log_derivative_check", recorded)
    sections = dict(verify_integrals(load_config(data)))
    assert tried == [(220, "grid too coarse: stride-2 derivative disagrees by 11.06%; "
                           "double the grid resolution"), (439, "trusted")]
    assert sections["pushforward"]["pass"] and sections["overall"]["pass"]
