"""Concentration statistics on the empirical wealth ensemble.

Conventions are fixed package-wide and the inequality checks depend on
them:

* Gini uses the with-replacement pair convention, including i = j, so a
  single rich agent among N gives G = (N-1)/N rather than 1.
* Standard deviation is the population form (divisor N).
* Tail probability counts strict exceedance x > kappa*mean; ties at the
  threshold do not exceed.

Besides the point estimators, the module provides influence-function
standard errors for the next-step CV^2 recursion and the Gini change.
Those feed the toleranced inequality gates: the recursion bound is tight
(an equality in expectation for exact-dispersion kernels), so roughly
half of all steps sit below it by pure sampling noise and a
zero-tolerance comparison would be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Wealth whose largest value has a binary exponent within +-_EXPONENT_BAND
# is used as it is: sums over 2^63 agents, squares of the largest values and
# the cube of the mean (>= max/2^63) stay in the normal range.  Outside the
# band the vector is rescaled by an exact power of two; every statistic here
# is scale-free, so it stays accurate to rounding over the whole finite range.
_EXPONENT_BAND = 276


def _checked(wealth, rescale: bool = True) -> tuple[np.ndarray, int]:
    """Validate wealth once; return (y, e) with y = wealth * 2**-e.

    e is nonzero only when ``rescale`` is set and the binary exponent of
    the largest value leaves the band; e is then that exponent.  The
    scaling is exact, except that values below 2**-1074 times the largest
    one underflow, which changes no statistic.
    """
    x = np.asarray(wealth, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a flat vector of at least 2 wealth values")
    top = x.max()
    if not (x.min() >= 0.0 and top < np.inf):  # also rejects nan
        raise ValueError("wealth values must be finite and nonnegative")
    e = _exponent(top) if rescale else 0
    return (np.ldexp(x, -e) if e else x), e


def _exponent(top) -> int:
    """Binary exponent of ``top`` when it leaves the band, else 0."""
    e = int(np.frexp(top)[1])
    return 0 if -_EXPONENT_BAND <= e <= _EXPONENT_BAND else e


def _checked_pair(wealth_prev, wealth_next) -> tuple[np.ndarray, np.ndarray, int]:
    """(prev * 2**-e, next * 2**-e, e), e from the larger maximum as in `_checked`."""
    xp, _ = _checked(wealth_prev, rescale=False)
    xn, _ = _checked(wealth_next, rescale=False)
    if xp.size != xn.size:
        raise ValueError("paired populations must have equal size")
    e = _exponent(max(xp.max(), xn.max()))
    if e:
        xp, xn = np.ldexp(xp, -e), np.ldexp(xn, -e)
    return xp, xn, e


def _mean(x: np.ndarray, what: str):
    mu = x.mean()
    if not mu > 0.0:
        raise ValueError(f"{what} undefined: mean wealth is zero")
    return mu


def _gini_sorted(xs: np.ndarray, mu) -> float:
    n = xs.size
    weights = np.arange(1 - n, n, 2, dtype=np.float64)  # 2*rank - n - 1, rank 1..n
    weights *= xs
    # np.sum adds pairwise; a BLAS dot would round differently
    return float(np.sum(weights) / (n * n * mu))


def gini(wealth) -> float:
    """Gini coefficient via the sorted-rank identity, O(N log N).

    Equals (1/(2 N^2 mu)) * sum_{i,j} |x_i - x_j|, pairs drawn with
    replacement.
    """
    x, _ = _checked(wealth)
    return _gini_sorted(np.sort(x), _mean(x, "Gini"))


def gini_pairwise_oracle(wealth) -> float:
    """Direct O(N^2) double sum; reference for property tests only."""
    x, _ = _checked(wealth)
    if x.size > 10_000:
        raise ValueError("pairwise oracle capped at N = 10^4")
    mu = _mean(x, "Gini")
    diff = np.abs(x[:, None] - x[None, :]).sum()
    return float(diff / (2.0 * x.size**2 * mu))


def coefficient_of_variation(wealth) -> float:
    x, _ = _checked(wealth)
    mu = _mean(x, "CV")
    return float(x.std() / mu)


def tail_probability(wealth, kappa: float) -> float:
    """Fraction of agents with wealth strictly above kappa * mean."""
    x, _ = _checked(wealth)
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    mu = _mean(x, "tail probability")
    return float(np.count_nonzero(x > kappa * mu)) / x.size


@dataclass(frozen=True)
class SnapshotMetrics:
    """Per-step summary row: everything the inequality layer consumes."""

    t: int
    n: int
    mu: float
    sigma: float
    cv: float
    gini: float
    tail_probs: dict[float, float]


def snapshot(wealth, t: int, kappas=()) -> SnapshotMetrics:
    """All statistics of one state from one validation and one sort.

    Each field equals its standalone function bit for bit; the tail
    counts are n - searchsorted(sorted, kappa*mu, side="right").
    """
    x, _ = _checked(wealth, rescale=False)
    return snapshot_unchecked(x, t, kappas)


def snapshot_unchecked(x: np.ndarray, t: int, kappas=()) -> SnapshotMetrics:
    """`snapshot` of a wealth vector that is already validated.

    ``x`` must be a flat float64 vector of at least 2 finite, nonnegative
    values, as a `PopulationState` holds; nothing here checks that.
    `dynamics.trajectory` measures each state through this, so a step
    validates its state once, in the state's constructor.
    """
    e = _exponent(x.max())
    if e:
        x = np.ldexp(x, -e)
    mu = _mean(x, "snapshot")
    sigma = x.std()
    xs = np.sort(x)
    n = x.size
    tail_probs = {}
    for k in kappas:
        if not k > 0.0:
            raise ValueError("kappa must be positive")
        tail_probs[float(k)] = float(n - np.searchsorted(xs, k * mu, side="right")) / n
    return SnapshotMetrics(
        t=int(t),
        n=n,
        mu=float(np.ldexp(mu, e)),
        sigma=float(np.ldexp(sigma, e)),
        cv=float(sigma / mu),
        gini=_gini_sorted(xs, mu),
        tail_probs=tail_probs,
    )


# --- sampling-error machinery for the toleranced inequality gates ---


def cv_squared_influence(wealth) -> np.ndarray:
    """Influence function of CV^2 = E[x^2]/mu^2 - 1 (delta method).

    std(IF)/sqrt(N) is the asymptotic standard error of the plug-in CV^2.
    """
    x, _ = _checked(wealth)
    mu = x.mean()
    mu2 = mu * mu  # products, not pow: exact under power-of-two rescaling
    m2 = np.mean(x * x)
    return (x * x - m2) / mu2 - (2.0 * m2 / (mu2 * mu)) * (x - mu)


def gini_influence(wealth) -> np.ndarray:
    """Influence function of the with-replacement Gini.

    Uses the sorted prefix-sum identity for u_i = sum_j |x_i - x_j|, so
    the whole thing is O(N log N).  std(IF)/sqrt(N) estimates SE(G), and
    differences of paired influences give the SE of a step's Gini change.
    """
    x, _ = _checked(wealth)
    n = x.size
    mu = x.mean()
    order = np.argsort(x)  # tied values get equal u_i in any order, up to rounding
    xs = x[order]
    prefix = np.cumsum(xs)
    total = prefix[-1]
    idx = np.arange(n, dtype=np.float64)
    u_sorted = xs * (2.0 * idx + 2.0 - n) - 2.0 * prefix + total
    u = np.empty(n)
    u[order] = u_sorted
    mean_abs = u.mean() / n  # = 2 mu G
    g = mean_abs / (2.0 * mu)
    return (u / n - mean_abs) / mu - (g / mu) * (x - mu)


def cv_recursion_delta_se(wealth_prev, wealth_next, alpha: float, beta: float,
                          gamma_disp: float) -> float:
    """Delta-method SE of CV^2(next) - recursion bound(prev), paired by agent.

    Linearizes the bound in (CV^2, mu) of the previous population and
    differences the influence functions agent by agent: O(N), cheap
    enough for per-step gating.
    """
    xp, xn, e = _checked_pair(wealth_prev, wealth_next)
    beta = np.ldexp(beta, -e)  # the one input in wealth units
    mu = xp.mean()
    v = (xp.std() / mu) ** 2
    r2 = (gamma_disp / alpha) ** 2
    denom = 1.0 + beta / (alpha * mu)
    bound = ((1.0 + r2) * v + r2) / denom**2
    db_dv = (1.0 + r2) / denom**2
    db_dmu = 2.0 * beta * bound / (denom * alpha * mu**2)
    if_prev = db_dv * cv_squared_influence(xp) + db_dmu * (xp - mu)
    if_diff = cv_squared_influence(xn) - if_prev
    return float(if_diff.std(ddof=1) / np.sqrt(xp.size))
