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
verification layer: closed-form transition densities, finite-difference
probes of the log-density's sensitivity to relative changes of input or
output wealth, and sampled estimates of how much probability mass sits
where those probes stay within a claimed bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

DETERMINISTIC = "deterministic"
LOGNORMAL = "lognormal"
GAMMA = "gamma"

_FAMILIES = (DETERMINISTIC, LOGNORMAL, GAMMA)


class NoDensityError(ValueError):
    """Raised when a density-based operation is asked of a kernel without one."""


class OutsideSupportError(ValueError):
    """Raised when a probe point falls outside the transition support."""


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
        s2 = math.log1p((self.gamma_disp / self.alpha) ** 2)
        return math.log(self.alpha) - 0.5 * s2, math.sqrt(s2)

    def gamma_params(self) -> tuple[float, float]:
        """(shape, scale) of the multiplicative factor, same two moments."""
        if self.family != GAMMA:
            raise ValueError("gamma parameters only defined for the gamma family")
        return (self.alpha / self.gamma_disp) ** 2, self.gamma_disp**2 / self.alpha


def conditional_mean(kernel: KernelSpec, x):
    return kernel.alpha * np.asarray(x, dtype=np.float64) + kernel.beta


def conditional_variance(kernel: KernelSpec, x):
    return (kernel.gamma_disp * np.asarray(x, dtype=np.float64)) ** 2


def unit_mean_noise(family: str, rel_sd, u: np.ndarray) -> np.ndarray:
    """Positive noise W with E[W] = 1 and SD[W] = rel_sd, from uniforms u.

    Multiplying a target mean by W realises a draw with that mean and the
    matching relative dispersion.  This is the single sampling primitive
    behind the linear kernels (factor L = alpha * W with
    rel_sd = gamma_disp/alpha) and the lognormal initial condition.
    The inverse CDF's fresh output is transformed in place; ``u`` is
    never written.
    """
    rel_sd = np.asarray(rel_sd, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if family == LOGNORMAL:
        s2 = np.log1p(rel_sd**2)
        s = np.sqrt(s2)
        z = sp.ndtri(u)
        z *= s
        z += -0.5 * s2
        return np.exp(z, out=z) if np.ndim(z) else np.exp(z)
    if family == GAMMA:
        r2 = rel_sd**2
        w = sp.gammaincinv(1.0 / r2, u)
        w *= r2
        return w
    raise NoDensityError(f"no noise law for family {family!r}")


def transition_from_uniforms(kernel: KernelSpec, x, u) -> np.ndarray:
    """Elementwise x' = x*L + beta with L built from the uniforms u.

    The noise array is fresh, so it is scaled and shifted in place;
    ``x`` and ``u`` are never written.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("wealth must be nonnegative")
    if kernel.family == DETERMINISTIC:
        return conditional_mean(kernel, x) + 0.0 * np.asarray(u)
    w = unit_mean_noise(kernel.family, kernel.gamma_disp / kernel.alpha, u)
    w *= kernel.alpha
    if x.ndim == 0 or np.shape(w) == x.shape:
        w *= x
    else:  # x broadcasts the noise up: no buffer of the result's shape yet
        w = w * x
    w += kernel.beta
    return w


def log_density(kernel: KernelSpec, x: float, xp) -> np.ndarray:
    """log of the transition density f(x' | x); -inf outside the support."""
    if not kernel.has_density:
        raise NoDensityError("deterministic kernel has no transition density")
    if not x > 0.0:
        raise ValueError("density degenerates to a point mass at beta for x = 0")
    xp = np.asarray(xp, dtype=np.float64)
    out = np.full(xp.shape, -math.inf, dtype=np.float64)
    inside = xp > kernel.beta
    if not np.any(inside):
        return out
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
            - math.log(x)
        )
    return out


def density(kernel: KernelSpec, x: float, xp):
    out = np.exp(log_density(kernel, x, np.atleast_1d(xp)))
    return float(out[0]) if np.ndim(xp) == 0 else out


def _probe_array(kernel, x, xp, which, rel_step) -> np.ndarray:
    """Central log-log difference of the density; nan where undefined."""
    h = rel_step
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


def log_derivative_probe(kernel: KernelSpec, x: float, xp, which: str = "output",
                         rel_step: float = 1e-5):
    """Finite-difference d log f / d log(x') (or d log x) at given points.

    The step is central and taken in log coordinates, so the estimate is
    exact for log-polynomial densities up to O(rel_step^2).  Any stencil
    point outside the support makes the derivative undefined and raises
    :class:`OutsideSupportError`.
    """
    xp_arr = np.atleast_1d(np.asarray(xp, dtype=np.float64))
    probe = _probe_array(kernel, x, xp_arr, which, rel_step)
    if np.any(np.isnan(probe)):
        raise OutsideSupportError("probe stencil leaves the transition support")
    return float(probe[0]) if np.ndim(xp) == 0 else probe


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
    n_samples: int


def high_probability_mass(kernel: KernelSpec, x: float, bound: float, u,
                          which: str = "output") -> MassEstimate:
    """Estimate P(|log-derivative probe| <= bound) under the kernel at x.

    One transition is drawn per uniform in ``u``.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.size < 1000:
        raise ValueError("need at least 10^3 samples for a stable mass estimate")
    xp = transition_from_uniforms(kernel, x, u)
    probe = _probe_array(kernel, x, xp, which, 1e-5)
    defined = np.isfinite(probe)
    inside = defined & (np.abs(probe) <= bound)
    n = float(u.size)
    return MassEstimate(
        mass=np.count_nonzero(inside) / n,
        mass_beyond=np.count_nonzero(defined & ~inside) / n,
        excluded=np.count_nonzero(~defined) / n,
        n_samples=u.size,
    )
