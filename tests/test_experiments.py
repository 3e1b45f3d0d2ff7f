"""Trajectory classification and the stabilizing-fraction search."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ginisim.config import InitialSpec, RunConfig, parse_config
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
    run_scenario,
)
from ginisim.kernels import DETERMINISTIC, LOGNORMAL, KernelSpec


def _traj(values):
    return [SimpleNamespace(gini=g) for g in values]


def test_classify_verdicts():
    flat_low = np.full(100, 0.5)
    assert classify_trajectory(_traj(flat_low), window=25) == STABILIZED

    rising_high = np.linspace(0.2, 0.97, 200)
    assert classify_trajectory(_traj(rising_high), window=50) == DIVERGING

    plateau = np.concatenate([np.linspace(0.2, 0.85, 100), np.full(100, 0.85)])
    assert classify_trajectory(_traj(plateau), window=40) == STABILIZED

    # settled but already concentrated: neither verdict applies
    flat_high = np.full(100, 0.99)
    assert classify_trajectory(_traj(flat_high), window=25) == INCONCLUSIVE

    # rising but still dilute at the end
    rising_low = np.linspace(0.1, 0.5, 100)
    assert classify_trajectory(_traj(rising_low), window=25) == INCONCLUSIVE


def test_classify_validation():
    with pytest.raises(ValueError, match="too short for two windows"):
        classify_trajectory(_traj(np.full(10, 0.5)), window=6)
    with pytest.raises(ValueError, match="window must be at least 1"):
        classify_trajectory(_traj(np.full(10, 0.5)), window=0)


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


def test_run_scenario_smoke():
    result, snaps = run_scenario(NOISY, "smoke")
    assert result.name == "smoke"
    assert len(snaps) == NOISY.steps + 1
    assert result.final is snaps[-1]
    assert result.gini_final == snaps[-1].gini
    assert result.gini_min <= result.gini_final <= result.gini_max
    assert result.cv_min <= result.cv_final <= result.cv_max
    assert result.verdict in (DIVERGING, STABILIZED, INCONCLUSIVE)


def test_gini_cv_series_matches_instrumented_run():
    _, snaps = run_scenario(NOISY, "cross-check")
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
    )
    with pytest.raises(BracketError, match="lower bracket.*need 'diverging'"):
        find_min_stabilizing_salary_fraction(quiet, 0.001, 0.1, tol=0.05,
                                             horizon=40)


def test_search_rejects_diverging_upper_bracket():
    with pytest.raises(BracketError, match="upper bracket.*need 'stabilized'"):
        find_min_stabilizing_salary_fraction(NOISY, 1e-6, 2e-6, tol=1e-6,
                                             horizon=80)


def test_search_on_shipped_config():
    cfg = parse_config(
        str(Path(__file__).resolve().parent.parent / "configs"
            / "threshold_search.yaml"))
    spec = cfg.search
    result = find_min_stabilizing_salary_fraction(
        cfg, spec.c_lo, spec.c_hi, spec.tol, spec.horizon)
    assert spec.c_lo < result.c_star < spec.c_hi
    assert result.probes[0].c == spec.c_lo
    assert result.probes[0].verdict == DIVERGING
    assert result.probes[1].c == spec.c_hi
    assert result.probes[1].verdict == STABILIZED
    assert result.plateau_cv > 0.0
    assert result.ratio_to_scale == pytest.approx(
        result.c_star / result.reference_scale)
    assert result.horizon == spec.horizon
