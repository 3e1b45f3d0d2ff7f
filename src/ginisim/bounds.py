"""Closed-form inequality checks for the wealth-concentration dynamics.

Every function here is a pure evaluation of one inequality: given the
statistics of a snapshot (or two consecutive snapshots) it returns the
two sides, a satisfaction flag, and a slack.  The sign convention is
uniform across the package: positive slack always means "satisfied".

Three groups:

* CV recursion and halting: the lower bound on next-step CV^2, the
  condition under which the additive transfer stops forced CV growth,
  and its small-dispersion reduction to a minimum transfer level.
* Gini growth and saturation: the lower bound on the Gini increment,
  the maximal tail probability compatible with a non-growing Gini, and
  the tail-complement lower bound on Gini itself.
* General growth decomposition: the same halting condition expressed
  through an arbitrary mean-zero redistribution term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BoundParams:
    """Free parameters of the tail / stripe inequality family.

    kappa: tail threshold, in (0, 1/2) so the saturation chain has a
        positive prefactor 1 - 2*kappa.
    delta_stripe: half-width of the near-diagonal stripe |x - y| < delta*x.
    gamma_inv_logderiv: the kernel's inverse log-derivative constant Gamma,
        positive and finite: calibrated from the kernel for every command
        unless a config overrides it (``RunConfig.bound_params``).  The
        stripe slack is derived where it is used: epsilon = delta/Gamma.
    """

    kappa: float = 0.25
    delta_stripe: float = 0.05
    gamma_inv_logderiv: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.kappa < 0.5:
            raise ValueError(f"kappa must be in (0, 1/2), got {self.kappa}")
        if not 0.0 < self.delta_stripe < 1.0:
            raise ValueError(f"delta_stripe must be in (0, 1), got {self.delta_stripe}")
        if not 0.0 < self.gamma_inv_logderiv < math.inf:
            raise ValueError("gamma_inv_logderiv must be positive and finite, "
                             f"got {self.gamma_inv_logderiv}")


@dataclass(frozen=True)
class BoundRecord:
    """One evaluated inequality: lhs, rhs, flag and slack, or nan when undefined."""

    name: str
    lhs: float
    rhs: float
    satisfied: bool | None
    slack: float


def cv_growth_lower_bound(cv: float, alpha: float, beta: float, mu: float,
                          gamma_disp: float):
    """Lower bound on next-step CV^2 given this step's statistics.

    The bound is [(1 + r^2) CV^2 + r^2] / (1 + beta/(alpha*mu))^2 with
    r = gamma_disp/alpha.  For exact-dispersion kernels it is an equality
    in expectation, so empirical comparisons need a sampling tolerance.
    Accepts scalars or arrays.
    """
    r2 = (gamma_disp / alpha) ** 2
    return ((1.0 + r2) * cv**2 + r2) / (1.0 + beta / (alpha * mu)) ** 2


def cv_halting_condition(cv: float, alpha: float, beta: float, mu: float,
                         gamma_disp: float) -> BoundRecord:
    """Is the additive transfer large enough that CV growth is not forced?

    Compares beta^2/(alpha*mu)^2 + 2*beta/(alpha*mu) against
    (gamma_disp/alpha)^2 * (1 + 1/CV^2).  At CV = 0 the requirement is
    infinite: from perfect equality any dispersion forces CV growth, so
    the condition reports unsatisfiable rather than raising.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    b = beta / (alpha * mu)
    lhs = b * b + 2.0 * b
    r2 = (gamma_disp / alpha) ** 2
    rhs = r2 * (1.0 + 1.0 / cv**2) if cv > 0.0 else (math.inf if r2 > 0.0 else 0.0)
    slack = lhs - rhs
    return BoundRecord("cv_halting", lhs, rhs, slack >= 0.0, slack)


@dataclass(frozen=True)
class MinSalary:
    threshold: float
    in_reduction_regime: bool  # the closed form assumes CV >= 1 and small dispersion


def min_salary_small_dispersion(cv: float, alpha: float, mu: float,
                                gamma_disp: float) -> MinSalary:
    """Minimum transfer keeping concentration growth unforced, to leading order.

    threshold = gamma_disp^2 * mu / (2 alpha) * (1 + 1/CV^2).  Valid as a
    reduction of the halting condition when CV >= 1 and the dispersion is
    small; outside that regime the value is still returned with the flag
    cleared.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    if gamma_disp == 0.0:
        return MinSalary(0.0, cv >= 1.0)
    if cv == 0.0:
        return MinSalary(math.inf, False)
    threshold = gamma_disp**2 * mu / (2.0 * alpha) * (1.0 + 1.0 / cv**2)
    return MinSalary(threshold, cv >= 1.0)


def gini_growth_lower_bound(gini: float, beta: float, mu: float, mu_next: float,
                            params: BoundParams, tail_prob: float) -> float:
    """Lower bound on the one-step Gini change.

    (-beta*G + delta*kappa*mu*Gamma*P^2) / mu_next, where Gamma is the
    inverse log-derivative constant and P the tail probability at the
    params' kappa.  Holds under the kernel regularity hypotheses, which
    sampled kernels satisfy only with high probability; callers must
    allow for the reported leak mass.
    """
    if not mu_next > 0.0:
        raise ValueError("mu_next must be positive")
    grow = redistribution_variability_lower_bound(params, mu, tail_prob)
    return (-beta * gini + grow) / mu_next


def gini_halting_tail_bound(gini: float, beta: float, mu: float,
                            params: BoundParams) -> float:
    """Maximal tail probability compatible with a non-growing Gini.

    sqrt(G*beta / (delta*kappa*Gamma*mu)), clamped to [0, 1].  With zero
    transfer the bound is zero: any surviving tail forces Gini growth.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    denom = params.delta_stripe * params.kappa * params.gamma_inv_logderiv * mu
    p2 = gini * beta / denom
    return min(math.sqrt(max(p2, 0.0)), 1.0)


def saturation_lower_bound(tail_complement: float, kappa: float) -> float:
    """Gini is at least (1 - 2*kappa) times the sub-threshold mass.

    A distribution-level theorem, so it holds with zero tolerance on
    every empirical ensemble (pairing each sub-threshold agent against
    the whole population already accounts for enough mean absolute
    difference).
    """
    if not 0.0 < kappa < 0.5:
        raise ValueError(f"kappa must be in (0, 1/2), got {kappa}")
    if not 0.0 <= tail_complement <= 1.0:
        raise ValueError("tail_complement must lie in [0, 1]")
    return (1.0 - 2.0 * kappa) * tail_complement


def general_cv_condition(growth_factor: float, mu: float, cv: float,
                         var_redist: float, cov_wealth_redist: float,
                         gamma_disp: float) -> BoundRecord:
    """Halting condition for a general mean growth split as factor + redistribution.

    Evaluates gamma_disp^2 mu^2 (CV^2 + 1) + Var[redist]
    + 2*growth_factor*Cov[wealth, redist] <= 0.  The first two terms are
    nonnegative, so only a negative wealth-redistribution correlation can
    ever satisfy it.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    lhs = (
        gamma_disp**2 * mu**2 * (cv**2 + 1.0)
        + var_redist
        + 2.0 * growth_factor * cov_wealth_redist
    )
    return BoundRecord("general_cv", lhs, 0.0, lhs <= 0.0, -lhs)


def redistribution_variability_lower_bound(params: BoundParams, mu: float,
                                           tail_prob: float) -> float:
    """Minimum mean absolute pair difference a halting redistribution needs.

    E|redist(x) - redist(y)| over independent pairs must be at least
    delta*kappa*mu*Gamma*P^2 while concentration persists.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    return params.delta_stripe * params.kappa * mu * params.gamma_inv_logderiv * tail_prob**2


# --- per-step report assembly (serialized into the trajectory CSV) ---


def _record(name: str, lhs: float, rhs: float, direction: str) -> BoundRecord:
    if math.isnan(lhs) or math.isnan(rhs):
        return BoundRecord(name, lhs, rhs, None, math.nan)
    slack = (lhs - rhs) if direction == ">=" else (rhs - lhs)
    return BoundRecord(name, lhs, rhs, slack >= 0.0, slack)


def step_bound_report(
    snap_prev,
    snap,
    alpha_prev: float,
    beta_prev: float,
    alpha_now: float,
    beta_now: float,
    gamma_disp: float,
    params: BoundParams,
) -> list[BoundRecord]:
    """All inequality rows for one snapshot, nan-filled where undefined.

    ``snap_prev`` may be None (the initial snapshot): the two recursion
    rows comparing consecutive steps are then reported as nan.
    """
    nan = math.nan
    records: list[BoundRecord] = []

    if snap_prev is not None:
        rhs = cv_growth_lower_bound(snap_prev.cv, alpha_prev, beta_prev,
                                    snap_prev.mu, gamma_disp)
        records.append(_record("cv_growth", snap.cv**2, rhs, ">="))
        p_prev = snap_prev.tail_probs.get(params.kappa, nan)
        rhs = gini_growth_lower_bound(snap_prev.gini, beta_prev, snap_prev.mu,
                                      snap.mu, params, p_prev)
        records.append(_record("gini_growth", snap.gini - snap_prev.gini, rhs, ">="))
    else:
        records.append(BoundRecord("cv_growth", nan, nan, None, nan))
        records.append(BoundRecord("gini_growth", nan, nan, None, nan))

    records.append(cv_halting_condition(snap.cv, alpha_now, beta_now, snap.mu, gamma_disp))

    ms = min_salary_small_dispersion(snap.cv, alpha_now, snap.mu, gamma_disp)
    records.append(_record("min_salary", beta_now, ms.threshold, ">="))

    p_now = snap.tail_probs.get(params.kappa, nan)
    tail_cap = gini_halting_tail_bound(snap.gini, beta_now, snap.mu, params)
    records.append(_record("gini_tail", p_now, tail_cap, "<="))

    for kappa in sorted(snap.tail_probs):
        if kappa < 0.5:
            rhs = saturation_lower_bound(1.0 - snap.tail_probs[kappa], kappa)
            records.append(_record(f"saturation_{kappa:g}", snap.gini, rhs, ">="))

    return records
