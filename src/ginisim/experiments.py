"""Scenario orchestration and the minimal-salary-fraction search.

A scenario is a configured run classified by the late behaviour of its
Gini trajectory: still rising into high concentration ("diverging"),
settled at moderate concentration ("stabilized"), or neither
("inconclusive").  The search bisects the proportional-transfer
coefficient between a diverging and a stabilized bracket, every probe
using the same seed so the classifier is a pure function of the
coefficient.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import metrics
from .dynamics import run, trajectory

DIVERGING = "diverging"
STABILIZED = "stabilized"
INCONCLUSIVE = "inconclusive"


class BracketError(RuntimeError):
    """The search bracket does not straddle the threshold."""


class AmbiguousProbeError(RuntimeError):
    """A bisection probe classified as inconclusive; cannot pick a side."""


class MonotonicityError(RuntimeError):
    """Probes contradict the assumed monotone stabilized-above-threshold order."""


def _classify_gini(gini_series: np.ndarray, window: int, grow_tol: float) -> str:
    g = np.asarray(gini_series, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be at least 1")
    if g.size < 2 * window:
        raise ValueError(
            f"trajectory of length {g.size} too short for two windows of {window}"
        )
    last = float(g[-window:].mean())
    prev = float(g[-2 * window:-window].mean())
    final = float(g[-1])
    if last - prev > grow_tol and final > 0.8:
        return DIVERGING
    if abs(last - prev) < grow_tol and final < 0.95:
        return STABILIZED
    return INCONCLUSIVE


def classify_trajectory(traj, window: int, grow_tol: float = 0.005) -> str:
    """Late-time verdict from the Gini series of a snapshot sequence."""
    return _classify_gini(np.array([s.gini for s in traj]), window, grow_tol)


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    verdict: str
    final: metrics.SnapshotMetrics
    gini_min: float
    gini_max: float
    gini_final: float
    cv_min: float
    cv_max: float
    cv_final: float


def run_scenario(config, name: str, window: int | None = None,
                 grow_tol: float = 0.005, master_seed: int | None = None):
    """Full instrumented run plus classification.

    Returns (ScenarioResult, snapshots); the bound records are not kept,
    use dynamics.run directly when you need them.
    """
    snaps = [snap for _, snap, _, _ in run(config, master_seed=master_seed)]
    w = window if window is not None else max(1, config.steps // 5)
    verdict = classify_trajectory(snaps, w, grow_tol)
    g = np.array([s.gini for s in snaps])
    cv = np.array([s.cv for s in snaps])
    result = ScenarioResult(
        name=name,
        verdict=verdict,
        final=snaps[-1],
        gini_min=float(g.min()),
        gini_max=float(g.max()),
        gini_final=float(g[-1]),
        cv_min=float(cv.min()),
        cv_max=float(cv.max()),
        cv_final=float(cv[-1]),
    )
    return result, snaps


def gini_cv_series(config, master_seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Cheap trajectory of (gini, cv) per step, skipping the bound layer."""
    snaps = [snap for _, snap in trajectory(config, master_seed)]
    return np.array([s.gini for s in snaps]), np.array([s.cv for s in snaps])


def bisect_threshold(classify_at, c_lo: float, c_hi: float, tol: float):
    """Bisect a {diverging below, stabilized above} classifier boundary.

    ``classify_at`` maps a coefficient to a verdict string.  The bracket
    must already be validated.  Returns (midpoint, probes) where probes
    is the ordered list of (c, verdict) evaluated here.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    probes = []
    lo, hi = float(c_lo), float(c_hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        verdict = classify_at(mid)
        probes.append((mid, verdict))
        if verdict == DIVERGING:
            lo = mid
        elif verdict == STABILIZED:
            hi = mid
        else:
            raise AmbiguousProbeError(
                f"probe at c={mid:.6g} is inconclusive; tighten the classifier "
                "window or adjust the bracket"
            )
    return 0.5 * (lo + hi), probes


@dataclass(frozen=True)
class ProbeRecord:
    c: float
    verdict: str
    final_gini: float
    final_cv: float


def _check_probe_monotonicity(probes: list[ProbeRecord]) -> None:
    ordered = sorted(probes, key=lambda p: p.c)
    first_stabilized = None
    for p in ordered:
        if p.verdict == STABILIZED and first_stabilized is None:
            first_stabilized = p.c
        if p.verdict == DIVERGING and first_stabilized is not None and p.c > first_stabilized:
            raise MonotonicityError(
                f"diverging probe at c={p.c:.6g} above stabilized probe at "
                f"c={first_stabilized:.6g}; threshold is not well defined"
            )


@dataclass(frozen=True)
class ThresholdSearchResult:
    c_star: float
    probes: list[ProbeRecord]
    plateau_cv: float
    reference_scale: float  # dispersion^2/(2 alpha) * (1 + 1/plateau_cv^2)
    ratio_to_scale: float
    window: int
    grow_tol: float
    horizon: int


def find_min_stabilizing_salary_fraction(
    base_config,
    c_lo: float,
    c_hi: float,
    tol: float,
    horizon: int,
    window: int | None = None,
    grow_tol: float = 0.005,
) -> ThresholdSearchResult:
    """Minimal proportional-transfer coefficient that stabilizes the Gini.

    Runs a full proportional-mode simulation per probe, each with the
    base config's seed, classifies the Gini trajectory, and bisects.
    The bracket is validated first: c_lo must classify diverging and
    c_hi stabilized, else there is no sign change to search.
    """
    w = window if window is not None else max(1, horizon // 5)
    probes: list[ProbeRecord] = []
    cv_series_at: dict[float, np.ndarray] = {}

    def probe(c: float) -> str:
        cfg = dataclasses.replace(base_config, mode="proportional",
                                  salary_fraction=float(c), steps=int(horizon))
        gs, cvs = gini_cv_series(cfg)
        cv_series_at[float(c)] = cvs
        verdict = _classify_gini(gs, w, grow_tol)
        probes.append(ProbeRecord(float(c), verdict, float(gs[-1]), float(cvs[-1])))
        return verdict

    v_lo = probe(c_lo)
    if v_lo != DIVERGING:
        raise BracketError(
            f"no sign change: lower bracket c={c_lo:.6g} classified {v_lo!r}, "
            "need 'diverging'"
        )
    v_hi = probe(c_hi)
    if v_hi != STABILIZED:
        raise BracketError(
            f"no sign change: upper bracket c={c_hi:.6g} classified {v_hi!r}, "
            "need 'stabilized'"
        )

    c_star, _ = bisect_threshold(probe, c_lo, c_hi, tol)
    _check_probe_monotonicity(probes)

    c_ref = min(p.c for p in probes if p.verdict == STABILIZED)
    plateau_cv = float(cv_series_at[c_ref][-w:].mean())
    kernel = base_config.kernel
    scale = kernel.gamma_disp**2 / (2.0 * kernel.alpha) * (1.0 + 1.0 / plateau_cv**2)
    return ThresholdSearchResult(
        c_star=float(c_star),
        probes=probes,
        plateau_cv=plateau_cv,
        reference_scale=scale,
        ratio_to_scale=float(c_star) / scale if scale > 0.0 else float("inf"),
        window=w,
        grow_tol=grow_tol,
        horizon=int(horizon),
    )
