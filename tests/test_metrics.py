"""Inequality statistics against hand values and the O(N^2) oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ginisim import metrics
from ginisim.bounds import cv_growth_lower_bound
from ginisim.metrics import (
    coefficient_of_variation,
    gini,
    snapshot,
    tail_probability,
)
from reference import gini_pairwise_oracle


def test_gini_hand_values():
    assert gini([1, 1, 1, 1]) == 0.0
    assert gini([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-15)
    assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-15)


def test_oracle_hand_values():
    assert gini_pairwise_oracle([0, 1]) == pytest.approx(0.5, abs=1e-15)
    assert gini_pairwise_oracle([1, 3]) == pytest.approx(0.25, abs=1e-15)
    assert gini_pairwise_oracle([2, 2, 2]) == 0.0


def test_gini_matches_pairwise_oracle_on_random_vectors():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = rng.integers(2, 65)
        x = rng.uniform(0.0, 10.0, size=n)
        assert abs(gini(x) - gini_pairwise_oracle(x)) < 1e-12


def test_gini_maximum_at_finite_n():
    # one agent holding everything: (N-1)/N under the with-replacement
    # pair convention, not 1
    x = np.zeros(10)
    x[3] = 5.0
    assert gini(x) == pytest.approx(0.9, abs=1e-15)


def test_cv_hand_values():
    assert coefficient_of_variation([1, 3]) == pytest.approx(0.5, abs=1e-15)
    assert coefficient_of_variation([0, 0, 0, 1]) == pytest.approx(
        np.sqrt(3.0), rel=1e-15)
    assert coefficient_of_variation([2, 2, 2]) == 0.0


def test_tail_probability_hand_values():
    assert tail_probability([1, 2, 3, 4], 1.0) == 0.5
    assert tail_probability([1, 2, 3, 4], 1e9) == 0.0
    assert tail_probability([1, 1, 1, 1], 0.5) == 1.0


def test_tail_threshold_is_strict():
    # ties at kappa*mu do not count as exceeding
    x = np.array([1.0, 1.0, 2.0])  # mu = 4/3, kappa=1.5 -> threshold 2.0
    assert tail_probability(x, 1.5) == 0.0


def test_tail_probability_requires_positive_kappa():
    with pytest.raises(ValueError):
        tail_probability([1.0, 2.0], 0.0)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_scale_invariance(c):
    x = np.array([0.3, 1.7, 2.0, 5.5, 0.0, 9.1])
    assert gini(c * x) == pytest.approx(gini(x), abs=1e-12)
    assert coefficient_of_variation(c * x) == pytest.approx(
        coefficient_of_variation(x), abs=1e-12)


def test_scale_invariance_exact_for_binary_scale():
    x = np.array([0.3, 1.7, 2.0, 5.5, 9.1])
    assert gini(2.0 * x) == gini(x)
    assert gini(0.25 * x) == gini(x)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_translation_strictly_decreases_gini(c):
    x = np.array([0.5, 1.0, 4.0, 7.5])
    assert gini(x + c) < gini(x)


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=64))
@settings(max_examples=300, deadline=None)
def test_gini_range_property(values):
    x = np.asarray(values)
    if x.sum() == 0.0:
        return  # all-zero wealth has no mean to normalize by
    g = gini(x)
    n = x.size
    assert -1e-15 <= g <= (n - 1) / n + 1e-15


def test_metrics_exact_at_both_ends_of_the_float_range():
    # each of these under- or overflows without the power-of-two rescale
    assert gini([0.0, 5e-324]) == 0.5
    assert coefficient_of_variation([1e-320, 3e-320]) == 0.5
    assert gini([0.0, 1e308, 1e308]) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert coefficient_of_variation([0.0, 1e308, 1e308]) == pytest.approx(
        math.sqrt(2.0) / 2.0, rel=1e-15)
    assert coefficient_of_variation([1e300] * 3 + [0.0]) == pytest.approx(
        math.sqrt(3.0) / 3.0, rel=1e-15)
    # mu and sigma are scaled back to wealth units
    snap = snapshot([1e-320, 3e-320], t=0, kappas=(1.0,))
    assert (snap.mu, snap.sigma, snap.cv, snap.gini) == (2e-320, 1e-320, 0.5, 0.25)
    assert snap.tail_probs == {1.0: 0.5}


@given(st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)),
                min_size=2, max_size=64),
       st.sampled_from([1000, -1000]))
# pow(mu, 3) is not exactly scale-equivariant: this vector caught it
@example([0.0] * 8 + [1.0, 1.304815970477648, 1.9712767897290178,
                      787192.0226493092, 999999.99], 1000)
@settings(max_examples=200, deadline=None)
def test_invariance_under_extreme_binary_scaling(values, shift):
    x = np.asarray(values)
    assume(x.sum() > 0.0)
    y = np.ldexp(x, shift)  # exact: every scaled value stays a normal float
    assert gini(y) == gini(x)
    assert coefficient_of_variation(y) == coefficient_of_variation(x)
    for kappa in (0.5, 1.0, 2.0):
        assert tail_probability(y, kappa) == tail_probability(x, kappa)
    assert np.array_equal(metrics.gini_influence(y), metrics.gini_influence(x))
    assert np.array_equal(metrics.cv_squared_influence(y),
                          metrics.cv_squared_influence(x))


def _gini_influence_out_of_place(wealth):
    """`gini_influence` with a fresh array for every operation, in the same order."""
    x, _ = metrics._checked(wealth)
    n = x.size
    mu = x.mean()
    order = np.argsort(x)
    xs = x[order]
    prefix = np.cumsum(xs)
    idx = np.arange(n, dtype=np.float64)
    u = np.empty(n)
    u[order] = xs * (2.0 * idx + 2.0 - n) - 2.0 * prefix + prefix[-1]
    mean_abs = u.mean() / n
    g = mean_abs / (2.0 * mu)
    return (u / n - mean_abs) / mu - (g / mu) * (x - mu)


@given(st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)),
                min_size=2, max_size=64),
       st.sampled_from([0, 1000, -1000]))
@settings(max_examples=200, deadline=None)
def test_gini_influence_in_place_equals_out_of_place_bit_for_bit(values, shift):
    x = np.ldexp(np.asarray(values), shift)
    assume(x.sum() > 0.0)
    assert metrics.gini_influence(x).tobytes() == _gini_influence_out_of_place(x).tobytes()


@pytest.mark.parametrize("sigma", [0.2, 2.0, 8.0])
def test_gini_influence_in_place_bit_for_bit_at_flagship_size(sigma):
    # log-wealth sd 0.2 sqrt(t) at t = 1, 100 and 1600; a tenth of the agents tied
    x = np.random.default_rng(7).lognormal(0.0, sigma, size=100_000)
    x[::10] = x[5]
    assert metrics.gini_influence(x).tobytes() == _gini_influence_out_of_place(x).tobytes()


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=64))
@example([1, 1, 2, 4])  # mu = 2: thresholds 1, 2 and 4 sit on agents
@settings(max_examples=200, deadline=None)
def test_snapshot_equals_standalone_metrics_bit_for_bit(values):
    x = np.asarray(values, dtype=np.float64)
    assume(x.sum() > 0.0)
    mu = x.mean()
    # kappas whose threshold kappa*mu lands exactly on an agent's wealth,
    # where strict exceedance and searchsorted(side="right") must agree
    kappas = sorted({v / mu for v in map(float, values) if v > 0.0 and v / mu * mu == v}
                    | {0.5, 1.0, 2.0})
    snap = snapshot(x, t=3, kappas=kappas)
    assert snap.gini == gini(x)
    assert snap.cv == coefficient_of_variation(x)
    assert snap.tail_probs == {k: tail_probability(x, k) for k in kappas}


@pytest.mark.parametrize("shift", [0, 1000, -1000])
@pytest.mark.parametrize("sigma", [0.2, 1.0])
def test_snapshot_moments_equal_numpy_mean_and_std_bit_for_bit(sigma, shift):
    x = np.random.default_rng(18).lognormal(0.0, sigma, size=100_003)
    scaled = np.ldexp(x, shift)  # exact: every value stays normal
    snap = snapshot(scaled, 0)
    assert snap.mu == np.ldexp(x.mean(), shift)
    assert snap.sigma == np.ldexp(x.std(), shift)
    assert snap.cv == x.std() / x.mean()
    assert coefficient_of_variation(scaled) == x.std() / x.mean()


def test_checked_input_validation():
    with pytest.raises(ValueError, match="at least 2"):
        gini([1.0])
    with pytest.raises(ValueError):
        gini([1.0, -2.0])
    with pytest.raises(ValueError):
        gini([1.0, np.nan])
    with pytest.raises(ValueError):
        coefficient_of_variation(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_zero_mean_wealth_has_no_statistics():
    for measure in (gini, coefficient_of_variation, lambda x: tail_probability(x, 0.25),
                    lambda x: snapshot(x, 0), gini_pairwise_oracle):
        with pytest.raises(ValueError, match="undefined: mean wealth is zero"):
            measure([0.0, 0.0])


def test_snapshot_fields_and_conventions():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    snap = snapshot(x, t=7, kappas=(0.1, 0.25, 1.0))
    assert snap.t == 7
    assert snap.n == 4
    assert snap.mu == pytest.approx(2.5)
    # population (divisor N) standard deviation
    assert snap.sigma == pytest.approx(np.std(x), rel=1e-15)
    assert snap.cv == pytest.approx(np.std(x) / 2.5, rel=1e-15)
    assert snap.gini == pytest.approx(0.25, abs=1e-15)
    assert snap.tail_probs[1.0] == 0.5
    # tail probability nonincreasing in kappa
    ks = sorted(snap.tail_probs)
    ps = [snap.tail_probs[k] for k in ks]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_influence_functions_are_centered():
    rng = np.random.default_rng(3)
    x = rng.lognormal(0.0, 1.0, size=500)
    assert abs(metrics.cv_squared_influence(x).mean()) < 1e-10
    assert abs(metrics.gini_influence(x).mean()) < 1e-10


def test_delta_se_matches_monte_carlo_sd_of_the_gap():
    # 400 independent (prev, next) population pairs: the spread of
    # D = CV^2(next) - bound(prev) across them is what the SE estimates
    rng = np.random.default_rng(5)
    reps, n = 400, 4000
    prev = rng.lognormal(0.0, 0.5, size=(reps, n))
    nxt = prev * rng.lognormal(-0.02, 0.2, size=(reps, n))
    mu_p = prev.mean(axis=1)
    cv2_n = (nxt.std(axis=1) / nxt.mean(axis=1)) ** 2
    d = cv2_n - cv_growth_lower_bound(prev.std(axis=1) / mu_p, 1.0, 0.5, mu_p, 0.2)
    se = np.median([metrics.cv_recursion_delta_se(p, q, 1.0, 0.5, 0.2)
                    for p, q in zip(prev, nxt)])
    assert 0.8 <= se / d.std(ddof=1) <= 1.2


@pytest.mark.parametrize("shift", [345, -345, 400, -400, 440, -440, 600, -600])
def test_paired_se_invariant_under_extreme_binary_scaling(shift):
    # squares of the scaled wealth, or the cube of its mean, over- or
    # underflow without the shared rescale
    rng = np.random.default_rng(5)
    prev = rng.lognormal(0.0, 0.5, size=400)
    nxt = prev * rng.lognormal(-0.02, 0.2, size=400)
    big_prev, big_nxt = np.ldexp(prev, shift), np.ldexp(nxt, shift)
    assert (metrics.cv_recursion_delta_se(big_prev, big_nxt, 1.0, math.ldexp(0.5, shift), 0.2)
            == metrics.cv_recursion_delta_se(prev, nxt, 1.0, 0.5, 0.2))


def test_cv_squared_influence_exact_for_concentrated_wealth_near_the_band():
    # one agent holds 99.6% of the wealth, so mu ~ max/2^12: with the
    # largest value near 2^-330 the cube of mu leaves the normal range
    # unless the band allows for the mean sitting below the maximum
    x = np.ones(4000)
    x[0] = 2.0**20
    scaled = np.ldexp(x, -351)
    assert np.array_equal(metrics.cv_squared_influence(scaled),
                          metrics.cv_squared_influence(x))


def test_paired_se_requires_equal_sizes():
    with pytest.raises(ValueError, match="equal size"):
        metrics.cv_recursion_delta_se(np.ones(10), np.ones(11), 1.0, 0.0, 0.1)
