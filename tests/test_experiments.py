"""Trajectory classification and the stabilizing-fraction search."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from ginisim.config import ConfigError, RunConfig, SearchSpec, parse_config
from ginisim.dynamics import run
from ginisim.experiments import (
    DIVERGING,
    INCONCLUSIVE,
    STABILIZED,
    AmbiguousProbeError,
    BracketError,
    MonotonicityError,
    ProbeRecord,
    _check_probe_monotonicity,
    bisect_threshold,
    classify_trajectory,
    find_min_stabilizing_salary_fraction,
    gini_cv_series,
)
from ginisim.kernels import DETERMINISTIC, LOGNORMAL, KernelSpec


def test_classify_verdicts():
    flat_low = np.full(100, 0.5)
    assert classify_trajectory(flat_low, window=25) == STABILIZED

    rising_high = np.linspace(0.2, 0.97, 200)
    assert classify_trajectory(rising_high, window=50) == DIVERGING

    plateau = np.concatenate([np.linspace(0.2, 0.85, 100), np.full(100, 0.85)])
    assert classify_trajectory(plateau, window=40) == STABILIZED

    # settled but already concentrated: neither verdict applies
    flat_high = np.full(100, 0.99)
    assert classify_trajectory(flat_high, window=25) == INCONCLUSIVE

    # rising but still dilute at the end
    rising_low = np.linspace(0.1, 0.5, 100)
    assert classify_trajectory(rising_low, window=25) == INCONCLUSIVE


def test_classify_validation():
    with pytest.raises(ValueError, match="too short for two windows"):
        classify_trajectory(np.full(10, 0.5), window=6)
    with pytest.raises(ValueError, match="window must be at least 1"):
        classify_trajectory(np.full(10, 0.5), window=0)


def test_bisect_threshold_step_function():
    def classify(c):
        return STABILIZED if c >= 0.037 else DIVERGING

    c_star, probes = bisect_threshold(classify, 0.0, 0.1, tol=1e-3)
    assert abs(c_star - 0.037) <= 1e-3
    assert len(probes) == 7
    for c, verdict in probes:
        assert verdict == classify(c)
    with pytest.raises(ValueError, match="tol must be positive"):
        bisect_threshold(classify, 0.0, 0.1, tol=0.0)


def test_bisect_ambiguous_probe():
    with pytest.raises(AmbiguousProbeError, match="inconclusive"):
        bisect_threshold(lambda c: INCONCLUSIVE, 0.0, 0.1, tol=1e-2)


def test_probe_monotonicity_check():
    ok = [
        ProbeRecord(0.01, DIVERGING, 0.99, 50.0),
        ProbeRecord(0.02, STABILIZED, 0.4, 1.2),
        ProbeRecord(0.03, STABILIZED, 0.3, 1.0),
    ]
    _check_probe_monotonicity(ok)

    bad = [
        ProbeRecord(0.01, DIVERGING, 0.99, 50.0),
        ProbeRecord(0.02, STABILIZED, 0.4, 1.2),
        ProbeRecord(0.03, DIVERGING, 0.98, 40.0),
    ]
    with pytest.raises(MonotonicityError, match="not well defined"):
        _check_probe_monotonicity(bad)


NOISY = RunConfig(
    kernel=KernelSpec(LOGNORMAL, alpha=1.02, beta=0.0, gamma_disp=0.25),
    n_agents=200,
    steps=80,
    master_seed=3,
)


def test_gini_cv_series_matches_instrumented_run():
    snaps = [snap for _, snap, _, _ in run(NOISY)]
    gs, cvs = gini_cv_series(NOISY)
    assert gs.shape == cvs.shape == (NOISY.steps + 1,)
    assert gs[0] == 0.0  # point initial condition
    # one loop and one snapshot behind both: equal bit for bit
    np.testing.assert_array_equal(gs, [s.gini for s in snaps])
    np.testing.assert_array_equal(cvs, [s.cv for s in snaps])


def test_search_rejects_stabilized_lower_bracket():
    # no dispersion: a point-mass population keeps gini at 0 for any c
    quiet = RunConfig(
        kernel=KernelSpec(DETERMINISTIC, alpha=1.02, beta=0.0, gamma_disp=0.0),
        n_agents=50,
        steps=40,
        master_seed=1,
        search=SearchSpec(c_lo=0.001, c_hi=0.1, tol=0.05, horizon=40),
    )
    with pytest.raises(BracketError, match="lower bracket.*need 'diverging'"):
        find_min_stabilizing_salary_fraction(quiet)


def test_search_rejects_diverging_upper_bracket():
    noisy = dataclasses.replace(
        NOISY, search=SearchSpec(c_lo=1e-6, c_hi=2e-6, tol=1e-6, horizon=80))
    with pytest.raises(BracketError, match="upper bracket.*need 'stabilized'"):
        find_min_stabilizing_salary_fraction(noisy)


def test_search_needs_a_search_section_and_zero_kernel_beta():
    with pytest.raises(ConfigError, match="^search: section required"):
        find_min_stabilizing_salary_fraction(NOISY)
    salaried = dataclasses.replace(
        NOISY, kernel=dataclasses.replace(NOISY.kernel, beta=0.5),
        search=SearchSpec(c_lo=0.001, c_hi=0.1, tol=0.05, horizon=40))
    with pytest.raises(ConfigError, match="^kernel.beta: must be 0"):
        find_min_stabilizing_salary_fraction(salaried)


def test_search_on_shipped_config():
    cfg = parse_config(
        str(Path(__file__).resolve().parent.parent / "configs"
            / "threshold_search.yaml"))
    spec = cfg.search
    result = find_min_stabilizing_salary_fraction(cfg)
    assert spec.c_lo < result.c_star < spec.c_hi
    assert result.probes[0].c == spec.c_lo
    assert result.probes[0].verdict == DIVERGING
    assert result.probes[1].c == spec.c_hi
    assert result.probes[1].verdict == STABILIZED
    assert result.plateau_cv > 0.0
    assert result.ratio_to_scale == pytest.approx(
        result.c_star / result.reference_scale)
