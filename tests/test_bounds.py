"""Closed-form inequality layer: hand values, identities, report rows."""

import math

import numpy as np
import pytest

from ginisim import metrics
from ginisim.bounds import (
    BoundParams,
    cv_growth_lower_bound,
    cv_halting_condition,
    general_cv_condition,
    gini_growth_lower_bound,
    gini_halting_tail_bound,
    min_salary_small_dispersion,
    redistribution_variability_lower_bound,
    saturation_lower_bound,
    step_bound_report,
)
from reference import AdaptationMoments, adaptation_substitution


def test_bound_params_validation():
    BoundParams()  # defaults are legal
    with pytest.raises(ValueError, match="kappa"):
        BoundParams(kappa=0.5)
    with pytest.raises(ValueError, match="kappa"):
        BoundParams(kappa=0.0)
    with pytest.raises(ValueError, match="delta_stripe"):
        BoundParams(delta_stripe=1.0)
    # an infinite Gamma would make the Gini growth allowance infinite and
    # the gate pass vacuously
    for gamma in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma_inv_logderiv must be positive and finite"):
            BoundParams(gamma_inv_logderiv=gamma)


def test_cv_growth_lower_bound_hand_value():
    # ((1 + 0.01)*1 + 0.01) / (1 + 0.1)^2 = 1.02 / 1.21
    val = cv_growth_lower_bound(1.0, 1.0, 1.0, 10.0, 0.1)
    assert val == pytest.approx(1.02 / 1.21, rel=1e-14)


def test_cv_growth_lower_bound_special_forms():
    # beta = 0: pure recursion (1 + r^2) CV^2 + r^2
    assert cv_growth_lower_bound(2.0, 1.0, 0.0, 5.0, 0.3) == pytest.approx(
        1.09 * 4.0 + 0.09, rel=1e-14)
    # no dispersion, no transfer: CV^2 is exactly reproduced
    assert cv_growth_lower_bound(1.7, 1.3, 0.0, 5.0, 0.0) == pytest.approx(
        1.7**2, rel=1e-15)


def test_cv_growth_lower_bound_accepts_arrays():
    cv = np.array([0.5, 1.0, 2.0])
    mu = np.array([1.0, 2.0, 4.0])
    out = cv_growth_lower_bound(cv, 1.02, 0.5, mu, 0.2)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(cv_growth_lower_bound(1.0, 1.02, 0.5, 2.0, 0.2))


def test_cv_halting_threshold_crossing():
    # at very large CV the requirement approaches r^2; the critical
    # transfer solves (1+b)^2 = 1 + r^2
    r2 = 0.02
    crit = math.sqrt(1.0 + r2) - 1.0
    gamma = math.sqrt(r2)
    assert cv_halting_condition(1e12, 1.0, crit + 1e-9, 1.0, gamma).satisfied
    assert not cv_halting_condition(1e12, 1.0, crit - 1e-9, 1.0, gamma).satisfied


def test_cv_halting_degenerate_cases():
    chk = cv_halting_condition(0.0, 1.0, 5.0, 1.0, 0.2)
    assert chk.rhs == math.inf and not chk.satisfied
    chk = cv_halting_condition(0.0, 1.0, 0.0, 1.0, 0.0)
    assert chk.rhs == 0.0 and chk.satisfied and chk.slack == 0.0
    with pytest.raises(ValueError):
        cv_halting_condition(1.0, 1.0, 0.0, 0.0, 0.2)


def test_cv_halting_monotonicity_grid():
    betas = np.linspace(0.0, 3.0, 13)
    slacks = [cv_halting_condition(1.5, 1.02, b, 2.0, 0.2).slack for b in betas]
    assert all(a < b for a, b in zip(slacks, slacks[1:]))
    gammas = np.linspace(0.01, 1.0, 13)
    slacks = [cv_halting_condition(1.5, 1.02, 0.5, 2.0, g).slack for g in gammas]
    assert all(a > b for a, b in zip(slacks, slacks[1:]))


def test_min_salary_hand_values():
    ms = min_salary_small_dispersion(1.0, 1.0, 1.0, 1.0)
    assert ms.threshold == pytest.approx(1.0) and ms.in_reduction_regime

    ms = min_salary_small_dispersion(2.0, 1.0, 1.0, 0.0)
    assert ms.threshold == 0.0 and ms.in_reduction_regime
    ms = min_salary_small_dispersion(0.0, 1.0, 1.0, 0.5)
    assert ms.threshold == math.inf and not ms.in_reduction_regime
    # CV -> inf limit: gamma^2 mu / (2 alpha)
    ms = min_salary_small_dispersion(1e9, 1.0, 1.0, 1.0)
    assert ms.threshold == pytest.approx(0.5, rel=1e-9)
    assert not min_salary_small_dispersion(0.5, 1.0, 1.0, 0.1).in_reduction_regime
    with pytest.raises(ValueError):
        min_salary_small_dispersion(1.0, 1.0, 0.0, 0.1)


PARAMS_G5 = BoundParams(kappa=0.25, delta_stripe=0.05, gamma_inv_logderiv=5.0)


def test_redistribution_variability_hand_value():
    # 0.05 * 0.25 * 10 * 5 * 0.4^2 = 0.1
    assert redistribution_variability_lower_bound(PARAMS_G5, 10.0, 0.4) == \
        pytest.approx(0.1, rel=1e-14)
    assert redistribution_variability_lower_bound(PARAMS_G5, 10.0, 0.0) == 0.0


def test_gini_growth_lower_bound_hand_value():
    val = gini_growth_lower_bound(0.5, 1.0, 10.0, 11.0, PARAMS_G5, 0.4)
    assert val == pytest.approx((-0.5 + 0.1) / 11.0, rel=1e-14)


def test_gini_growth_lower_bound_special_forms():
    # no transfer: the bound is positive whenever the tail survives
    assert gini_growth_lower_bound(0.9, 0.0, 10.0, 10.2, PARAMS_G5, 0.3) > 0.0
    # empty tail: pure -beta*G/mu_next erosion
    val = gini_growth_lower_bound(0.5, 2.0, 10.0, 12.0, PARAMS_G5, 0.0)
    assert val == pytest.approx(-1.0 / 12.0, rel=1e-14)
    with pytest.raises(ValueError):
        gini_growth_lower_bound(0.5, 1.0, 10.0, 0.0, PARAMS_G5, 0.1)


def test_gini_halting_tail_bound():
    # sqrt(0.5*0.2 / (0.05*0.25*5*10)) = sqrt(0.16) = 0.4
    assert gini_halting_tail_bound(0.5, 0.2, 10.0, PARAMS_G5) == \
        pytest.approx(0.4, rel=1e-14)
    assert gini_halting_tail_bound(0.5, 0.0, 10.0, PARAMS_G5) == 0.0
    assert gini_halting_tail_bound(0.9, 100.0, 10.0, PARAMS_G5) == 1.0


def test_saturation_lower_bound():
    assert saturation_lower_bound(0.8, 0.25) == pytest.approx(0.4, rel=1e-15)
    assert saturation_lower_bound(0.0, 0.25) == 0.0
    assert saturation_lower_bound(1.0, 0.499999) == pytest.approx(2e-6, rel=1e-6)
    with pytest.raises(ValueError):
        saturation_lower_bound(0.5, 0.5)
    with pytest.raises(ValueError):
        saturation_lower_bound(1.0001, 0.25)


def test_general_cv_condition_signs():
    # zero redistribution with dispersion: growth is forced
    chk = general_cv_condition(1.02, 2.0, 1.0, 0.0, 0.0, 0.2)
    assert not chk.satisfied and chk.lhs > 0.0
    # no dispersion, no redistribution: exactly marginal
    chk = general_cv_condition(1.02, 2.0, 1.0, 0.0, 0.0, 0.0)
    assert chk.satisfied and chk.slack == 0.0
    with pytest.raises(ValueError):
        general_cv_condition(1.0, 0.0, 1.0, 0.0, 0.0, 0.1)


def test_adaptation_substitution_hand_values():
    mom = adaptation_substitution(1.2, 0.5, 10.0, 1.0)
    assert mom == AdaptationMoments(1.25, 0.25, -5.0)
    mom = adaptation_substitution(1.02, 0.0, 3.0, 2.0)
    assert mom.growth_factor == 1.02
    assert mom.var_redist == 0.0 and mom.cov_wealth_redist == 0.0


def test_general_condition_recovers_halting_condition():
    # slack identity: general slack = halting slack * (alpha*mu*CV)^2
    rng = np.random.default_rng(21)
    for _ in range(1000):
        alpha = float(rng.uniform(1.0, 2.0))
        beta = float(rng.uniform(0.0, 2.0))
        mu = float(rng.uniform(0.1, 10.0))
        cv = float(rng.uniform(0.1, 5.0))
        gamma = float(rng.uniform(0.0, 1.0))
        mom = adaptation_substitution(alpha, beta, mu, cv)
        general = general_cv_condition(mom.growth_factor, mu, cv,
                                       mom.var_redist, mom.cov_wealth_redist,
                                       gamma)
        halting = cv_halting_condition(cv, alpha, beta, mu, gamma)
        factor = (alpha * mu * cv) ** 2
        scale = (gamma**2 * mu**2 * (cv**2 + 1.0) + mom.var_redist
                 + 2.0 * mom.growth_factor * abs(mom.cov_wealth_redist))
        assert abs(general.slack - halting.slack * factor) <= 1e-10 * max(scale, 1e-30)
        assert general.satisfied == halting.satisfied


def test_adaptation_pair_variability_identity():
    # redistribution beta*(1 - x/mu): mean absolute pair difference is
    # exactly 2*beta*G under the with-replacement pair convention
    x = np.array([1.0, 2.0, 3.0, 4.0])
    beta, mu = 2.0, x.mean()
    zeta = beta * (1.0 - x / mu)
    pair_mean = np.abs(zeta[:, None] - zeta[None, :]).mean()
    assert pair_mean == pytest.approx(2.0 * beta * metrics.gini(x), rel=1e-14)


def test_step_bound_report_rows_and_nan_head():
    params = BoundParams(kappa=0.25)
    kappas = (0.1, 0.25, 0.6)
    prev = metrics.snapshot(np.array([1.0, 2.0, 3.0, 4.0]), 0, kappas)
    snap = metrics.snapshot(np.array([1.1, 2.2, 3.1, 4.4]), 1, kappas)

    head = step_bound_report(None, prev, math.nan, math.nan, 1.02, 0.0, 0.2, params)
    names = [r.name for r in head]
    # saturation rows only for kappa < 1/2
    assert names == ["cv_growth", "gini_growth", "cv_halting", "min_salary",
                     "gini_tail", "saturation_0.1", "saturation_0.25"]
    assert math.isnan(head[0].lhs) and head[0].satisfied is None
    assert math.isnan(head[1].slack)

    rows = step_bound_report(prev, snap, 1.02, 0.0, 1.02, 0.0, 0.2, params)
    by_name = {r.name: r for r in rows}
    assert by_name["cv_growth"].lhs == pytest.approx(snap.cv**2)
    assert by_name["gini_growth"].lhs == pytest.approx(snap.gini - prev.gini)
    for r in rows:
        if r.satisfied is not None:
            assert r.satisfied == (r.slack >= 0.0)
    # gini_tail is a "<=" row: slack = rhs - lhs
    gt = by_name["gini_tail"]
    assert gt.slack == pytest.approx(gt.rhs - gt.lhs)
    # saturation rows check gini against the tail-complement bound
    sat = by_name["saturation_0.25"]
    assert sat.lhs == pytest.approx(snap.gini)
    assert sat.rhs == pytest.approx(
        saturation_lower_bound(1.0 - snap.tail_probs[0.25], 0.25))
