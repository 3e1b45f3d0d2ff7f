"""Ensemble evolution: exactness, reproducibility, mode equivalences."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ginisim import metrics
from ginisim.config import load_config
from ginisim.dynamics import (
    GrowthPolicy,
    PopulationState,
    initial_lognormal,
    initial_point,
    initial_uniform,
    make_initial,
    run,
    simulate,
    step,
    trajectory,
)
from ginisim.kernels import DETERMINISTIC, GAMMA, LOGNORMAL, KernelSpec
from ginisim.streams import BLOCK

LOGN = KernelSpec(family=LOGNORMAL, alpha=1.02, beta=0.0, gamma_disp=0.2)


def det_kernel(alpha=1.0, beta=0.0):
    return KernelSpec(family=DETERMINISTIC, alpha=alpha, beta=beta, gamma_disp=0.0)


def test_population_state_immutable():
    pop = PopulationState([1.0, 2.0], 0)
    with pytest.raises(AttributeError, match="immutable"):
        pop.t = 3
    with pytest.raises(ValueError):
        pop.wealth[0] = 5.0  # numpy read-only flag


def test_population_state_validation():
    with pytest.raises(ValueError, match="at least 2"):
        PopulationState([1.0], 0)
    with pytest.raises(ValueError, match="non-finite"):
        PopulationState([1.0, np.inf], 0)
    with pytest.raises(ValueError, match="negative"):
        PopulationState([1.0, -0.5], 0)
    with pytest.raises(ValueError, match="nonnegative"):
        PopulationState([1.0, 2.0], -1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^population contains non-finite wealth$"):
            PopulationState([1.0, 2.0, bad], 0)
    with pytest.raises(ValueError, match="^population contains non-finite wealth$"):
        PopulationState([-1.0, np.nan], 0)  # non-finite is reported first
    with pytest.raises(ValueError, match="^population contains negative wealth$"):
        PopulationState([1.0, 2.0, -1e-300], 0)


def test_population_state_never_aliases_a_writable_buffer():
    w = np.array([1.0, 2.0, 3.0])
    pop = PopulationState(w, 0)
    w[0] = 9.0
    assert pop.wealth[0] == 1.0 and w.flags.writeable
    # a frozen array that owns its buffer is taken as it is
    assert PopulationState(pop.wealth, 1).wealth is pop.wealth
    view = w[1:]
    view.flags.writeable = False
    assert not np.shares_memory(PopulationState(view, 0).wealth, w)


# sha256 of the wealth after 5 steps at N = 10^4 from a point start, seed 42,
# under the flagship kernel; recorded from the allocating step path.
GOLDEN_WEALTH = {
    None: "540dbdfb4b8e756874cc3f41388be382936d455f510cb39145744d79f6e688d9",
    0.05: "1b1a94bfc67c45eeb188c530090cdbbe1bd8e0b9fef0849b8b374611eec30d5c",
}


@pytest.mark.parametrize("c", [None, 0.05], ids=["linear", "proportional"])
def test_step_golden_bytes(c):
    policy = GrowthPolicy.linear() if c is None else GrowthPolicy.proportional(c)
    *_, last = simulate(initial_point(10_000, 1.0), LOGN, policy, 5, 42)
    assert last.t == 5
    assert hashlib.sha256(last.wealth.tobytes()).hexdigest() == GOLDEN_WEALTH[c]


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from([LOGNORMAL, GAMMA]),
       alpha=st.floats(1.0, 2.0),
       beta=st.floats(0.0, 2.0),
       r=st.floats(0.01, 1.5),
       c=st.none() | st.floats(0.0, 0.5),
       seed=st.integers(0, 2**64 - 1),
       n=st.sampled_from([2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1]),
       start=st.sampled_from(["uniform", "lognormal"]),
       steps=st.integers(1, 4))
def test_step_equals_the_plain_reference(family, alpha, beta, r, c, seed, n, start, steps):
    kernel = KernelSpec(family=family, alpha=alpha, beta=beta, gamma_disp=r * alpha)
    policy = GrowthPolicy.linear() if c is None else GrowthPolicy.proportional(c)
    params = {"low": 0.5, "high": 2.0} if start == "uniform" else {"mean": 1.5, "cv": 0.8}
    states = simulate(make_initial(n, start, seed, **params), kernel, policy, steps, seed)
    wealth = reference.initial(start, n, seed)
    assert next(states).wealth.tobytes() == wealth.tobytes(), "initial state"
    for t, pop in enumerate(states):
        wealth = reference.step(wealth, t, kernel, c, seed)
        assert pop.wealth.tobytes() == wealth.tobytes(), f"step {t}"


def test_deterministic_step_hand_values():
    pop = PopulationState([1.0, 2.0, 3.0], 0)
    out = step(pop, det_kernel(alpha=2.0), GrowthPolicy.linear(), master_seed=0)
    np.testing.assert_array_equal(out.wealth, [2.0, 4.0, 6.0])
    assert out.t == 1

    broke = PopulationState([0.0, 0.0], 0)
    out = step(broke, det_kernel(alpha=1.0, beta=1.0), GrowthPolicy.linear(), 0)
    np.testing.assert_array_equal(out.wealth, [1.0, 1.0])


def test_one_step_mean_tracks_mean_evolution():
    n = 100_000
    pop = initial_point(n, 1.0)
    out = step(pop, LOGN, GrowthPolicy.linear(), master_seed=5)
    se = LOGN.gamma_disp * 1.0 / math.sqrt(n)  # SD of x*L is Gamma*x here
    assert abs(out.wealth.mean() - (1.02 * 1.0 + 0.0)) < 5.0 * se


def test_one_step_mean_from_spread_population():
    rng_pop = initial_uniform(50_000, 0.5, 3.5, master_seed=2)
    mu = rng_pop.wealth.mean()
    out = step(rng_pop, LOGN, GrowthPolicy.linear(), master_seed=9)
    se = LOGN.gamma_disp * math.sqrt(np.mean(rng_pop.wealth**2) / rng_pop.n)
    assert abs(out.wealth.mean() - (1.02 * mu + 0.0)) < 5.0 * se


def test_simulate_zero_steps_yields_initial_only():
    pop = initial_point(4, 2.0)
    states = list(simulate(pop, LOGN, GrowthPolicy.linear(), 0, master_seed=0))
    assert len(states) == 1
    assert states[0] is pop
    with pytest.raises(ValueError):
        list(simulate(pop, LOGN, GrowthPolicy.linear(), -1, 0))


def test_identity_kernel_is_a_fixed_point():
    pop = PopulationState([0.5, 1.0, 2.0], 0)
    states = list(simulate(pop, det_kernel(), GrowthPolicy.linear(), 100, 0))
    assert len(states) == 101
    for s in states:
        np.testing.assert_array_equal(s.wealth, pop.wealth)


def test_deterministic_growth_keeps_cv_constant():
    # multiplicative-only deterministic growth rescales everything
    from ginisim.metrics import coefficient_of_variation

    pop = PopulationState([1.0, 2.0, 7.0], 0)
    cv0 = coefficient_of_variation(pop.wealth)
    for s in simulate(pop, det_kernel(alpha=1.07), GrowthPolicy.linear(), 50, 0):
        assert coefficient_of_variation(s.wealth) == pytest.approx(cv0, rel=1e-12)


def test_wealth_stays_nonnegative():
    cfgs = [
        (LOGN, GrowthPolicy.linear()),
        (KernelSpec(family="gamma", alpha=1.05, beta=0.3, gamma_disp=0.8),
         GrowthPolicy.linear()),
        (LOGN, GrowthPolicy.proportional(0.05)),
    ]
    for kernel, policy in cfgs:
        for s in simulate(initial_point(500, 1.0), kernel, policy, 50, 3):
            assert s.wealth.min() >= 0.0


def test_proportional_mode_feeds_back_on_empirical_mean():
    pol = GrowthPolicy.proportional(0.1)
    alpha, beta = pol.linear_coefficients(20.0, LOGN)
    assert alpha == 1.02
    assert beta == 2.0
    with pytest.raises(ValueError):
        GrowthPolicy.proportional(-0.01)


def test_proportional_policy_needs_a_finite_fraction():
    # a caller that builds the policy without the config loader gets the same rule
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="salary fraction must be finite and >= 0"):
            GrowthPolicy.proportional(c)


def test_initial_conditions():
    pt = initial_point(5, 2.5)
    np.testing.assert_array_equal(pt.wealth, np.full(5, 2.5))
    assert pt.t == 0

    uni = initial_uniform(10_000, 1.0, 3.0, master_seed=4)
    assert uni.wealth.min() >= 1.0 and uni.wealth.max() <= 3.0
    assert abs(uni.wealth.mean() - 2.0) < 5.0 * (2.0 / math.sqrt(12e4))
    np.testing.assert_array_equal(
        uni.wealth, initial_uniform(10_000, 1.0, 3.0, master_seed=4).wealth)

    n = 200_000
    logn = initial_lognormal(n, mean=2.0, cv=0.7, master_seed=6)
    assert abs(logn.wealth.mean() - 2.0) < 5.0 * 2.0 * 0.7 / math.sqrt(n)
    sample_cv = logn.wealth.std() / logn.wealth.mean()
    assert sample_cv == pytest.approx(0.7, rel=0.02)


def test_initial_condition_validation():
    with pytest.raises(ValueError):
        initial_point(5, -1.0)
    with pytest.raises(ValueError):
        initial_uniform(5, 2.0, 1.0, 0)
    with pytest.raises(ValueError):
        initial_lognormal(5, 0.0, 1.0, 0)
    with pytest.raises(ValueError, match="unknown initial condition"):
        make_initial(5, "cauchy", 0)
    with pytest.raises(ValueError, match="at least 2"):
        make_initial(1, "point", 0)


def test_run_emits_initial_row_and_forces_report_kappa():
    cfg = load_config({
        "kernel": {"family": "lognormal", "alpha": 1.02, "beta": 0.0,
                   "gamma_disp": 0.2},
        "population": {"n_agents": 100, "steps": 7},
        "master_seed": 3,
        "bounds": {"kappa_grid": [0.1], "kappa": 0.3},
    })
    rows = list(run(cfg))
    assert len(rows) == 8
    pop0, snap0, recs0, ab0 = rows[0]
    assert pop0.t == 0 and snap0.t == 0
    assert set(snap0.tail_probs) == {0.1, 0.3}
    assert ab0 == (1.02, 0.0)
    by_name = {r.name: r for r in recs0}
    assert math.isnan(by_name["cv_growth"].lhs)  # no previous step yet
    pop1, snap1, recs1, _ = rows[1]
    assert not math.isnan({r.name: r for r in recs1}["cv_growth"].lhs)
    assert snap1.t == 1


def test_run_rows_are_the_trajectory_rows():
    cfg = load_config({
        "kernel": {"family": "lognormal", "alpha": 1.02, "beta": 0.0,
                   "gamma_disp": 0.2},
        "population": {"n_agents": 300, "steps": 6},
        "policy": {"mode": "proportional", "salary_fraction": 0.05},
        "master_seed": 5,
    })
    cfg = cfg.with_overrides(seed=9)
    rows = list(run(cfg))
    plain = list(trajectory(cfg, kappas=cfg.kappas))
    assert len(rows) == len(plain) == cfg.steps + 1
    for (pop, snap, _, (alpha, beta)), (pop_t, snap_t) in zip(rows, plain):
        np.testing.assert_array_equal(pop.wealth, pop_t.wealth)
        assert snap == snap_t
        # proportional mode: beta_t = c * mu_t of the row's own snapshot
        assert (alpha, beta) == (1.02, 0.05 * snap.mu)


def test_trajectory_validates_each_state_once(monkeypatch):
    # PopulationState validates every state; measuring it must not again
    cfg = load_config({
        "kernel": {"family": "lognormal", "alpha": 1.02, "beta": 0.0,
                   "gamma_disp": 0.2},
        "population": {"n_agents": 300, "steps": 5},
        "master_seed": 4,
    })
    checked = metrics._checked
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return checked(*args, **kwargs)

    monkeypatch.setattr(metrics, "_checked", counting)
    rows = list(trajectory(cfg, kappas=(0.5, 2.0)))
    assert len(rows) == 6 and not calls
    for pop, snap in rows:  # and it measures what snapshot measures
        assert snap == metrics.snapshot(pop.wealth, pop.t, (0.5, 2.0))
