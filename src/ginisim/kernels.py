"""Single-step transition kernels for one agent's wealth.

A kernel maps current wealth x to next wealth x' = x*L + beta, where L
is a random relative growth factor with mean ``alpha`` and standard
deviation ``gamma_disp``, and ``beta`` is the additive transfer.  Three
families are supported:

* ``deterministic``: L is the constant alpha (zero dispersion),
* ``lognormal``: L lognormal, moment-matched to (alpha, gamma_disp),
* ``gamma``: L gamma-distributed, moment-matched the same way.

The additive transfer is applied after the multiplicative noise, which
keeps the conditional mean exactly alpha*x + beta, the conditional
standard deviation exactly gamma_disp*x, and the support inside
[beta, infinity).  Both noisy families therefore keep wealth strictly
nonnegative, which the population dynamics rely on.

The module also carries the local regularity diagnostics used by the
verification layer: closed-form transition log-densities, finite-difference
probes of the log-density's sensitivity to relative changes of input or
output wealth, and sampled estimates of how much probability mass sits
where those probes stay within a claimed bound.

The gamma quantile refines its start by Halley steps on the regularised
incomplete gamma function; each round evaluates it into one array cut
every ``_CDF_CHUNK`` elements, whose spans lanes (`ginisim.lanes`), one
per usable CPU, fill.  It is elementwise: no byte depends on the lanes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from . import lanes

DETERMINISTIC = "deterministic"
LOGNORMAL = "lognormal"
GAMMA = "gamma"

_FAMILIES = (DETERMINISTIC, LOGNORMAL, GAMMA)


class NoDensityError(ValueError):
    """Raised when a density-based operation is asked of a kernel without one."""


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of a transition kernel.

    ``gamma_disp`` is the relative dispersion: the conditional sd of x'
    given x is gamma_disp*x.  The log-derivative bounds are not parameters:
    verify-integrals calibrates them from the density, and the inverse
    constant Gamma it measures fixes the stripe slack epsilon = delta/Gamma.
    """

    family: str
    alpha: float
    beta: float = 0.0
    gamma_disp: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        for name in ("alpha", "beta", "gamma_disp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.alpha >= 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.gamma_disp < 0.0:
            raise ValueError(f"gamma_disp must be >= 0, got {self.gamma_disp}")
        if self.family == DETERMINISTIC and self.gamma_disp != 0.0:
            raise ValueError("deterministic kernel requires gamma_disp = 0")
        if self.family != DETERMINISTIC and not self.gamma_disp > 0.0:
            raise ValueError(f"{self.family} kernel requires gamma_disp > 0")

    @property
    def has_density(self) -> bool:
        return self.family != DETERMINISTIC

    def lognormal_params(self) -> tuple[float, float]:
        """(m, s) with L = exp(m + s*Z): E[L] = alpha, SD[L] = gamma_disp."""
        if self.family != LOGNORMAL:
            raise ValueError("lognormal parameters only defined for the lognormal family")
        s, shift = _lognormal_scale(self.gamma_disp / self.alpha)  # the sampler's own s
        return math.log(self.alpha) + float(shift), float(s)

    def gamma_params(self) -> tuple[float, float]:
        """(shape, scale) of the multiplicative factor, same two moments."""
        if self.family != GAMMA:
            raise ValueError("gamma parameters only defined for the gamma family")
        return (self.alpha / self.gamma_disp) ** 2, self.gamma_disp**2 / self.alpha


def conditional_mean(kernel: KernelSpec, x):
    return kernel.alpha * np.asarray(x, dtype=np.float64) + kernel.beta


def unit_mean_noise(family: str, rel_sd: float, u: np.ndarray, out=None) -> np.ndarray:
    """Positive noise W with E[W] = 1 and SD[W] = rel_sd, from uniforms u.

    Multiplying a target mean by W realises a draw with that mean and the
    matching relative dispersion.  This is the single sampling primitive
    behind the linear kernels (factor L = alpha * W with
    rel_sd = gamma_disp/alpha) and the lognormal initial condition.
    ``rel_sd`` is one finite positive scalar.  The inverse CDF's output,
    fresh or ``out`` (an array of u's shape), is transformed in place;
    ``u`` is never written.  The lognormal (s, -s^2/2) comes from a small
    cache.
    """
    if family not in (LOGNORMAL, GAMMA):
        raise NoDensityError(f"no noise law for family {family!r}")
    if np.ndim(rel_sd) or not 0.0 < rel_sd < math.inf:
        raise ValueError(f"noise takes one scalar rel_sd, finite and positive; got {rel_sd!r}")
    rel_sd = float(rel_sd)
    u = np.asarray(u, dtype=np.float64)
    if family == LOGNORMAL:
        s, shift = _lognormal_scale(rel_sd)
        z = sp.ndtri(u, out=out)
        z *= s
        z += shift
        return np.exp(z, out=z) if np.ndim(z) else np.exp(z)
    r2 = rel_sd**2
    return np.multiply(_gamma_quantile(1.0 / r2, u), r2, out=out)


@functools.lru_cache(maxsize=8)
def _lognormal_scale(rel_sd: float):
    """(s, -s^2/2) of log W for lognormal unit-mean noise with sd ``rel_sd``."""
    s2 = np.log1p(np.asarray(rel_sd, dtype=np.float64) ** 2)
    return np.sqrt(s2), -0.5 * s2


# Temme's uniform asymptotic inversion (Math. Comp. 58, 1992): with
# eta0 = ndtri(p)/sqrt(a), the gamma(a) quantile of p is a*lambda(eta),
# where lambda - 1 - ln(lambda) = eta**2/2 with the sign of eta picking
# the root, and eta = eta0 + eps1(eta0)/a + eps2(eta0)/a**2 + O(a**-3).
# Inside |eta| < _ETA_SERIES, lambda - 1, eps1 and eps2 come from their
# Taylor series at 0 (to 4e-9 or better); outside, from closed forms.
_LAMBDA_SERIES = (1.0, 1.0, 1 / 3, 1 / 36, -1 / 270, 1 / 4320, 1 / 17010, -139 / 5443200,
                  1 / 204120, -571 / 2351462400, -281 / 1515591000,
                  163879 / 2172751257600, -5221 / 354648294000,
                  5246819 / 10168475885568000, 5459 / 7447614174000)
_EPS1_SERIES = (-1 / 3, 1 / 36, 1 / 1620, -7 / 6480, 5 / 18144, -11 / 382725,
                -101 / 16329600, 37 / 9797760, -454973 / 498845952000,
                1231 / 15913705500, 2745493 / 84737299046400,
                -2152217 / 127673385840000)
_EPS2_SERIES = (-7 / 405, -7 / 2592, 533 / 204120, -1579 / 2099520, 109 / 1749600,
                10217 / 251942400, -9281803 / 436490208000, 919081 / 185177664000,
                -100824673 / 571976768563200, -311266223 / 899963447040000)
_ETA_SERIES = 0.7
# Halley converges cubically: from a step s (relative to x) the next
# error is about K*s**3, K = (a-1-x)**2/12 + |a-1|/6.  An element stops
# once K*s**3 is below this, a thousandth of the 1e-13 gate.
_HALLEY_TOL = 1e-16
_HALLEY_ROUNDS = 40
# Below the smallest normal double a quantile has no relative precision
# left to refine.
_TINY = np.finfo(np.float64).tiny
# Elements of a Halley round's P or Q evaluation per lane chunk.  perfbench
# integrals-gamma wall_ref on 2 vCPUs, 4 alternating 8 s runs each: chunks of
# 1024 read 1.17-1.20, one chunk per lane (above 1024 elements) 1.11-1.28,
# chunks of 2048 1.27-1.30 (its ~2000-element Halley sides of a 4000-agent
# step stay whole), the parent's serial evaluation 1.28-1.41.
_CDF_CHUNK = 1024


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """sum(coeffs[k] * x**k) in a fresh array."""
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _lambda_far(eta: np.ndarray) -> np.ndarray:
    """lambda with lambda - 1 - ln(lambda) = eta**2/2, for |eta| >= _ETA_SERIES.

    Newton's method on t = ln(lambda) from the small-lambda (eta < 0) and
    large-lambda (eta > 0) asymptotes: five steps reach 1e-14 for
    |eta| <= 9, in a seventh of the time ``sp.lambertw`` takes.
    """
    c = 0.5 * eta * eta
    t = np.where(eta < 0.0, np.exp(-1.0 - c) - 1.0 - c,
                 np.log(1.0 + c + np.log(1.0 + c + np.log1p(c))))
    for _ in range(5):
        e = np.expm1(t)
        t -= (e - t - c) / e
    return np.exp(t)


def _temme_start(a: float, p: np.ndarray) -> np.ndarray:
    """Temme's start for shape a >= 1; within ~1e-6 of the quantile at a = 26."""
    eta = sp.ndtri(p)
    eta *= 1.0 / math.sqrt(a)
    shift = _horner([e1 / a + e2 / (a * a) for e1, e2 in
                     zip(_EPS1_SERIES, _EPS2_SERIES + (0.0, 0.0))], eta)
    far = np.flatnonzero(np.abs(eta) >= _ETA_SERIES)
    if far.size:
        e = eta[far]
        lam = _lambda_far(e)
        mu = lam - 1.0
        eps1 = np.log(e / mu) / e
        d_eps1 = (1.0 / e - e * lam / (mu * mu) - eps1) / e
        eps2 = (0.5 * eps1 * eps1 + e * eps1 * d_eps1 + d_eps1 - 1.0 / 12.0) / e
        shift[far] = eps1 / a + eps2 / (a * a)
    eta += shift
    x = _horner(_LAMBDA_SERIES, eta)
    far = np.flatnonzero(np.abs(eta) >= _ETA_SERIES)
    x[far] = _lambda_far(eta[far])
    x *= a
    return x


def _small_shape_start(a: float, p: np.ndarray) -> np.ndarray:
    """DiDonato & Morris (ACM TOMS 12, 1986) starts for shape a < 1.

    Their eqs 21 (lower part), 22 and 7 (upper tail), chosen by
    b = (1 - p) * Gamma(a).
    """
    b = 1.0 - p
    b *= math.gamma(a)
    x = np.empty_like(p)
    low = (b > 0.6) | ((b >= 0.45) & (a >= 0.3))
    mid = ~low & (a < 0.3) & (b >= 0.35)
    high = ~(low | mid)
    w = np.exp((np.log(p[low]) + math.lgamma(a + 1.0)) / a)
    x[low] = w / (1.0 - w / (a + 1.0))
    t = np.exp(-np.euler_gamma - b[mid])
    x[mid] = t * np.exp(t * np.exp(t))
    y = -np.log(b[high])
    v = y - (1.0 - a) * np.log(y)
    x[high] = y - (1.0 - a) * np.log(v) - np.log1p((1.0 - a) / (1.0 + v))
    return x


def _cdf_in_lanes(cdf, a: float, xs: np.ndarray) -> np.ndarray:
    """cdf(a, xs) in a fresh array, cut every ``_CDF_CHUNK`` elements for lanes to fill."""
    out = np.empty_like(xs)

    def fill(lo: int, hi: int) -> None:
        cdf(a, xs[lo:hi], out=out[lo:hi])
    cuts = [*range(0, xs.size, _CDF_CHUNK), xs.size]
    return lanes.Lanes(out, cuts, fill, lanes.count(len(cuts) - 1)).take()


def _halley(a: float, x: np.ndarray, target: np.ndarray, cdf, sign: float) -> np.ndarray:
    """Refine x in place toward cdf(a, x) = target with Halley steps.

    ``cdf`` is sp.gammainc (sign 1) or sp.gammaincc (sign -1); each round
    evaluates it once on the elements not yet converged, in lanes.
    """
    log_gamma_a = math.lgamma(a)
    todo = np.flatnonzero((x >= _TINY) & (x < np.inf))
    for _ in range(_HALLEY_ROUNDS):
        if not todo.size:
            break
        xs = x[todo]
        step = _cdf_in_lanes(cdf, a, xs)
        step -= target[todo]
        step *= sign  # P(a, xs) - P(a, root)
        inv_dens = np.log(xs)
        inv_dens *= 1.0 - a
        inv_dens += xs
        inv_dens += log_gamma_a
        np.exp(inv_dens, out=inv_dens)  # 1 / the gamma(a) density at xs
        step *= inv_dens  # Newton's step
        denom = np.divide(a - 1.0, xs)
        denom -= 1.0  # P''/P' at xs
        denom *= step
        denom *= -0.5
        denom += 1.0
        np.divide(step, denom, out=step, where=denom > 0.5)  # Halley's, if its correction is mild
        new = xs - step
        rel = np.divide(step, xs)
        np.abs(rel, out=rel)
        gap = np.subtract(a - 1.0, xs)
        gap *= gap
        gap *= 1.0 / 12.0
        gap += abs(a - 1.0) / 6.0
        gap *= rel
        gap *= rel
        gap *= rel
        done = gap <= _HALLEY_TOL
        past = np.flatnonzero(~(new > 0.0))  # a step to or past zero: shrink instead
        new[past] = 0.125 * xs[past]
        done[past] = False
        done |= new < _TINY
        x[todo] = new
        todo = todo[np.flatnonzero(~done)]
    return x


def _gamma_quantile(shape: float, u) -> np.ndarray:
    """The gamma(shape, 1) quantile of each u in (0, 1), without ``gammaincinv``.

    A Temme start (DiDonato-Morris below shape 1), refined up to shape 1e5
    by Halley steps on the regularised incomplete gamma function: P against
    u in the lower part, Q against q = 1 - u above it, exact for u >= 1/2
    (Sterbenz), so the upper tail keeps its relative accuracy.  At shape
    26 one P or Q evaluation per draw suffices.  Below shape 1, P also
    covers the upper part up to x = 1: there scipy's Q costs 3-7 us a call
    and P 0.1 us, and x * density >= about shape/(2e) bounds the relative
    shift P - u's rounding gives x by about 1e-15/shape.
    The result is a fresh array (a float for 0-d ``u``); ``u`` is never
    written.
    """
    a = float(shape)
    u = np.asarray(u, dtype=np.float64)
    p = u.reshape(-1)  # 0-d and n-d inputs take the same 1-d path
    if a < 1.0:
        x = _small_shape_start(a, p)
        split = max(0.5, float(sp.gammainc(a, 1.0)))
    else:
        x = _temme_start(a, p)
        split = 0.5
    if a <= 1e5:  # above, Temme's start is exact and Halley steps chase gammainc's drift
        low = np.flatnonzero(p <= split)  # index arrays: a random boolean mask gathers 8x slower
        high = np.flatnonzero(p > split)
        x[low] = _halley(a, x[low], p[low], sp.gammainc, 1.0)
        x[high] = _halley(a, x[high], 1.0 - p[high], sp.gammaincc, -1.0)
    x = x.reshape(u.shape)
    return x if x.ndim else x[()]


def transition_from_uniforms(kernel: KernelSpec, x, u) -> np.ndarray:
    """Elementwise x' = x*L + beta with L built from the uniforms u.

    The fresh noise array is scaled and shifted in place; ``x`` and ``u``
    are never written.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("wealth must be nonnegative")
    if kernel.family == DETERMINISTIC:
        return conditional_mean(kernel, x) + 0.0 * np.asarray(u)
    w = unit_mean_noise(kernel.family, kernel.gamma_disp / kernel.alpha, u)
    w *= kernel.alpha
    w *= x
    w += kernel.beta
    return w


def log_density(kernel: KernelSpec, x, xp) -> np.ndarray:
    """log of the transition density f(x' | x); -inf outside the support.

    ``x`` and ``xp`` broadcast against each other.
    """
    if not kernel.has_density:
        raise NoDensityError("deterministic kernel has no transition density")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x > 0.0):
        raise ValueError("density degenerates to a point mass at beta for x = 0")
    x, xp = np.broadcast_arrays(x, np.asarray(xp, dtype=np.float64))
    out = np.full(xp.shape, -math.inf, dtype=np.float64)
    inside = xp > kernel.beta
    if not np.any(inside):
        return out
    x = x[inside]
    ell = (xp[inside] - kernel.beta) / x  # realized multiplicative factor
    if kernel.family == LOGNORMAL:
        m, s = kernel.lognormal_params()
        z = (np.log(ell) - m) / s
        out[inside] = -np.log(ell * s * math.sqrt(2.0 * math.pi) * x) - 0.5 * z**2
    else:
        k, theta = kernel.gamma_params()
        out[inside] = (
            (k - 1.0) * np.log(ell)
            - ell / theta
            - k * math.log(theta)
            - sp.gammaln(k)
            - np.log(x)
        )
    return out


_PROBE_STEP = 1e-5  # half-width, in log wealth, of the probes' central difference


def log_derivative_probe(kernel: KernelSpec, x, xp, which: str) -> np.ndarray:
    """Finite-difference d log f / d log x' (``which`` "output") or d log f / d log x ("input").

    The step is central and taken in log coordinates, so the estimate is
    exact for log-polynomial densities up to O(_PROBE_STEP^2).  ``x`` and
    ``xp`` broadcast against each other; the result is nan wherever a
    stencil point leaves the support, where the derivative is undefined.
    """
    h = _PROBE_STEP
    if which == "output":
        lo = log_density(kernel, x, xp * math.exp(-h))
        hi = log_density(kernel, x, xp * math.exp(h))
    elif which == "input":
        lo = log_density(kernel, x * math.exp(-h), xp)
        hi = log_density(kernel, x * math.exp(h), xp)
    else:
        raise ValueError(f"which must be 'input' or 'output', got {which!r}")
    with np.errstate(invalid="ignore"):
        probe = (hi - lo) / (2.0 * h)
    return np.where(np.isfinite(lo) & np.isfinite(hi), probe, np.nan)


@dataclass(frozen=True)
class MassEstimate:
    """Sampled split of transition mass by a log-derivative bound.

    mass + mass_beyond + excluded = 1; ``excluded`` counts draws where the
    probe stencil was undefined (support edge), reported separately
    rather than folded into either side.
    """

    mass: float
    mass_beyond: float
    excluded: float


def high_probability_mass(kernel: KernelSpec, x: float, bound: float, u,
                          which: str = "output") -> MassEstimate:
    """Estimate P(|log-derivative probe| <= bound) under the kernel at x.

    One transition is drawn per uniform in ``u``.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.size < 1000:
        raise ValueError("need at least 10^3 samples for a stable mass estimate")
    xp = transition_from_uniforms(kernel, x, u)
    probe = log_derivative_probe(kernel, x, xp, which)
    defined = np.isfinite(probe)
    inside = defined & (np.abs(probe) <= bound)
    n = float(u.size)
    return MassEstimate(
        mass=np.count_nonzero(inside) / n,
        mass_beyond=np.count_nonzero(defined & ~inside) / n,
        excluded=np.count_nonzero(~defined) / n,
    )
