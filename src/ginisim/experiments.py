"""Scenario orchestration, the trajectory gates and the threshold search.

A scenario is a configured run classified by the late behaviour of its
Gini trajectory: still rising into high concentration ("diverging"),
settled at moderate concentration ("stabilized"), or neither
("inconclusive").  The search bisects the proportional-transfer
coefficient between a diverging and a stabilized bracket, every probe
using the same seed so the classifier is a pure function of the
coefficient.  `verify_bounds` folds the rows of a run and prices each
dip under the growth recursions against its sampling error.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import metrics, streams
from .bounds import redistribution_variability_lower_bound
from .config import ConfigError
from .dynamics import trajectory
from .kernels import high_probability_mass

DIVERGING = "diverging"
STABILIZED = "stabilized"
INCONCLUSIVE = "inconclusive"

# Largest change of the window-mean Gini that still counts as settled.
GROW_TOL = 0.005


class BracketError(RuntimeError):
    """The search bracket does not straddle the threshold."""


class AmbiguousProbeError(RuntimeError):
    """A bisection probe classified as inconclusive; cannot pick a side."""


def classify_trajectory(gini_series, window: int) -> str:
    """Late-time verdict from a Gini series, compared over its last two windows."""
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
    if last - prev > GROW_TOL and final > 0.8:
        return DIVERGING
    if abs(last - prev) < GROW_TOL and final < 0.95:
        return STABILIZED
    return INCONCLUSIVE


def gini_cv_series(config) -> tuple[np.ndarray, np.ndarray]:
    """Cheap trajectory of (gini, cv) per step, skipping the bound layer."""
    snaps = [snap for _, snap in trajectory(config)]
    return np.array([s.gini for s in snaps]), np.array([s.cv for s in snaps])


def verify_bounds(config, rows) -> tuple[list[tuple[str, dict]], list[str]]:
    """Fold the rows of a configured run and gate its trajectory inequalities.

    ``rows`` yields the rows of ``dynamics.run(config)``; the fold holds
    two at a time, never the trajectory.  Returns (sections,
    failure_lines).  The sections are the report: the hypothesis leak,
    one gated section per family (cv_growth, gini_growth, saturation)
    with its own ``pass``, then one ungated tally per regime indicator.
    ``failure_lines`` is empty when every gate passes; otherwise it holds
    up to 20 saturation and family failures followed by up to 20
    per-step dips beyond their allowance.
    """
    params = config.bound_params()
    kernel = config.kernel
    gamma_inv = params.gamma_inv_logderiv

    # Leak of the log-derivative hypotheses, measured once on the initial
    # mean scale; multiplicative kernels have wealth-independent probe laws
    # at beta = 0 and nearly so in the regimes we run.  Without a density
    # the hypotheses hold nowhere: leak 1 concedes the whole grow term.
    leak = 1.0
    if kernel.has_density:
        u = streams.indexed_uniforms(0, streams.TAG_PROBE, 0, 4000)
        mass = high_probability_mass(kernel, 1.0, 1.0 / gamma_inv, u, which="output")
        leak = mass.mass_beyond + mass.excluded

    checked, raw_violations, beyond_tolerance = Counter(), Counter(), Counter()
    info_satisfied, info_total = Counter(), Counter()
    step_failures: list[str] = []
    saturation_failures: list[str] = []
    worst_se_ratio = 0.0
    # carried_if: Gini influence at step carried_t, kept alive (freeing it re-faults heap)
    prev_pop = prev_snap = prev_ab = carried_t = carried_if = None

    for pop, snap, records, now_ab in rows:
        by_name = {r.name: r for r in records}
        for rec in records:
            if rec.name.startswith("saturation_"):
                checked["saturation"] += 1
                if rec.slack < -1e-12:  # distribution-level theorem: exact
                    raw_violations["saturation"] += 1
                    saturation_failures.append(
                        f"t={snap.t} {rec.name}: gini {rec.lhs!r} < bound {rec.rhs!r}"
                    )
            elif rec.name in ("cv_halting", "min_salary", "gini_tail"):
                info_total[rec.name] += 1
                if rec.satisfied:
                    info_satisfied[rec.name] += 1

        if prev_snap is not None:
            rec = by_name["cv_growth"]
            checked["cv_growth"] += 1
            if rec.satisfied is False:
                raw_violations["cv_growth"] += 1
                se = metrics.cv_recursion_delta_se(
                    prev_pop.wealth, pop.wealth, *prev_ab, kernel.gamma_disp)
                gap = rec.rhs - rec.lhs
                ratio = gap / se if se > 0.0 else math.inf
                worst_se_ratio = max(worst_se_ratio, ratio)
                # 1e-12 absorbs float roundoff when the recursion is exact
                if gap > 5.0 * se + 1e-12:
                    beyond_tolerance["cv_growth"] += 1
                    step_failures.append(
                        f"t={snap.t} cv_growth: deficit {gap:.3e} exceeds 5 SE ({se:.3e})"
                    )

            rec = by_name["gini_growth"]
            checked["gini_growth"] += 1
            if rec.satisfied is False:
                raw_violations["gini_growth"] += 1
                if carried_t != prev_snap.t:
                    carried_if = metrics.gini_influence(prev_pop.wealth)
                if_next = metrics.gini_influence(pop.wealth)
                se = float((if_next - carried_if).std(ddof=1) / np.sqrt(pop.n))
                carried_t, carried_if = snap.t, if_next
                p_prev = prev_snap.tail_probs.get(params.kappa, 0.0)
                grow_term = redistribution_variability_lower_bound(
                    params, prev_snap.mu, p_prev)
                # 1e-12 absorbs float roundoff when the bound is exact
                allowance = 5.0 * se + leak * grow_term / snap.mu + 1e-12
                gap = rec.rhs - rec.lhs
                if gap > allowance:
                    beyond_tolerance["gini_growth"] += 1
                    step_failures.append(
                        f"t={snap.t} gini_growth: deficit {gap:.3e} exceeds "
                        f"tolerance {allowance:.3e}"
                    )
        prev_pop, prev_snap, prev_ab = pop, snap, now_ab

    # Both growth recursions hold in expectation, so empirical dips are
    # sampling noise; a dip only counts when it clears its per-step SE
    # allowance, and a family only fails when more than 1% of its steps
    # do (at extreme concentration a handful of agents carry the whole
    # statistic and per-step SEs understate the realized spread).  The
    # saturation chain is a distribution-level theorem: exact, no budget.
    families = ("cv_growth", "gini_growth")
    budget = {name: 0.01 * checked[name] for name in families}
    family_failed = {name: beyond_tolerance[name] > budget[name] for name in families}

    sections = [
        ("hypothesis_leak", {
            "inverse_logderiv_constant": gamma_inv,
            "mass_outside_bound": leak,
        }),
        ("cv_growth", {
            "checked": checked["cv_growth"],
            "raw_violations": raw_violations["cv_growth"],
            "beyond_tolerance": beyond_tolerance["cv_growth"],
            "worst_violation_se": worst_se_ratio,
            "pass": not family_failed["cv_growth"],
        }),
        ("gini_growth", {
            "checked": checked["gini_growth"],
            "raw_violations": raw_violations["gini_growth"],
            "beyond_tolerance": beyond_tolerance["gini_growth"],
            "pass": not family_failed["gini_growth"],
        }),
        ("saturation", {
            "checked": checked["saturation"],
            "violations": raw_violations["saturation"],
            "pass": raw_violations["saturation"] == 0,
        }),
    ]
    for name in sorted(info_total):
        sections.append((name, {
            "satisfied_steps": info_satisfied[name],
            "total_steps": info_total[name],
            "note": "regime indicator, not gated",
        }))

    failures = list(saturation_failures)
    for name, failed in family_failed.items():
        if failed:
            failures.append(
                f"{name}: {beyond_tolerance[name]} of {checked[name]} steps "
                f"beyond tolerance (budget {budget[name]:.1f})"
            )
    if not failures:
        return sections, []
    return sections, failures[:20] + step_failures[:20]


def bisect_threshold(classify_at, c_lo: float, c_hi: float, tol: float):
    """Bisect a {diverging below, stabilized above} classifier boundary.

    ``classify_at`` maps a coefficient to a verdict string.  The bracket
    must already be validated.  Returns (midpoint, probes) where probes
    is the ordered list of (c, verdict) evaluated here.  A diverging
    probe becomes ``lo`` and a stabilized one ``hi``, so every diverging
    probe lies below every stabilized one.
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


@dataclass(frozen=True)
class ThresholdSearchResult:
    c_star: float
    probes: list[ProbeRecord]
    plateau_cv: float
    reference_scale: float  # dispersion^2/(2 alpha) * (1 + 1/plateau_cv^2)
    ratio_to_scale: float


def find_min_stabilizing_salary_fraction(config) -> ThresholdSearchResult:
    """Minimal proportional-transfer coefficient that stabilizes the Gini.

    The bracket (c_lo, c_hi), the tolerance and the horizon come from
    ``config.search``.  Runs a full proportional-mode simulation per
    probe, each with the config's seed, classifies the Gini trajectory
    over windows of horizon // 5 steps, and bisects.  The bracket is
    validated first: c_lo must classify diverging and c_hi stabilized,
    else there is no sign change to search.
    """
    spec = config.search
    if spec is None:
        raise ConfigError("search: section required for search-threshold")
    if config.kernel.beta != 0.0:
        raise ConfigError("kernel.beta: must be 0 for the proportional-mode search, "
                          f"got {config.kernel.beta}")
    w = max(1, spec.horizon // 5)
    probes: list[ProbeRecord] = []
    cv_series_at: dict[float, np.ndarray] = {}

    def probe(c: float) -> str:
        cfg = dataclasses.replace(config, mode="proportional",
                                  salary_fraction=float(c), steps=spec.horizon)
        gs, cvs = gini_cv_series(cfg)
        cv_series_at[float(c)] = cvs
        verdict = classify_trajectory(gs, w)
        probes.append(ProbeRecord(float(c), verdict, float(gs[-1]), float(cvs[-1])))
        return verdict

    v_lo = probe(spec.c_lo)
    if v_lo != DIVERGING:
        raise BracketError(
            f"no sign change: lower bracket c={spec.c_lo:.6g} classified {v_lo!r}, "
            "need 'diverging'"
        )
    v_hi = probe(spec.c_hi)
    if v_hi != STABILIZED:
        raise BracketError(
            f"no sign change: upper bracket c={spec.c_hi:.6g} classified {v_hi!r}, "
            "need 'stabilized'"
        )

    c_star, _ = bisect_threshold(probe, spec.c_lo, spec.c_hi, spec.tol)

    c_ref = min(p.c for p in probes if p.verdict == STABILIZED)
    plateau_cv = float(cv_series_at[c_ref][-w:].mean())
    kernel = config.kernel
    scale = kernel.gamma_disp**2 / (2.0 * kernel.alpha) * (1.0 + 1.0 / plateau_cv**2)
    return ThresholdSearchResult(
        c_star=float(c_star),
        probes=probes,
        plateau_cv=plateau_cv,
        reference_scale=scale,
        ratio_to_scale=float(c_star) / scale if scale > 0.0 else float("inf"),
    )
