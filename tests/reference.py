"""Plain references the library is checked against; only the tests use them.

The simulation step in the plainest numpy: `dynamics.step` and the random
initial conditions must reproduce it bit for bit.  Each block of agents
draws from a fresh Philox under that block's key (`block_uniforms`), the
unit-mean noise is computed out of place, and the update is
w*alpha*x + beta_t, with beta_t = c * mean(x) under a proportional policy.

Besides the step: the O(N^2) pairwise Gini that `metrics.gini` must match,
and the substitution that writes the linear policy as a general growth
decomposition for `bounds.general_cv_condition`.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from ginisim import streams
from ginisim.kernels import LOGNORMAL, _gamma_quantile
from ginisim.metrics import _checked, _mean


def block_uniforms(master_seed: int, tag: int, step: int, block: int, n: int) -> np.ndarray:
    """Uniform(0,1) draws for one block, independent of all other blocks.

    Builds a fresh generator under the block's key: the reference that
    `indexed_uniforms`' re-keyed generator must match.
    """
    bg = np.random.Philox(key=streams._key(master_seed, tag, step, block))
    return streams.uniforms_from_raw(bg.random_raw(n))


def uniforms(master_seed, tag, t, n):
    """One uniform per agent: the blocks' own streams, concatenated."""
    return np.concatenate([
        block_uniforms(master_seed, tag, t, b, min(streams.BLOCK, n - lo))
        for b, lo in enumerate(range(0, n, streams.BLOCK))])


def unit_mean_noise(family, r, u):
    """W with E[W] = 1 and SD[W] = r: lognormal exp(s*Z - s^2/2), or gamma(1/r^2) * r^2.

    s^2 = log1p(r^2) is taken of a 0-d array, as the library takes it: numpy's
    scalar math and its array loop differ in the last bit for some r.
    """
    if family == LOGNORMAL:
        s2 = np.log1p(np.asarray(r, dtype=np.float64) ** 2)
        return np.exp(np.sqrt(s2) * sp.ndtri(u) - s2 / 2)
    return _gamma_quantile(1 / r**2, u) * r**2


def initial(kind, n, master_seed):
    """The uniform start on (0.5, 2), or the lognormal start with mean 1.5 and CV 0.8."""
    u = uniforms(master_seed, streams.TAG_INIT, 0, n)
    if kind == "uniform":
        return 0.5 + (2.0 - 0.5) * u
    return 1.5 * unit_mean_noise(LOGNORMAL, 0.8, u)


def step(wealth, t, kernel, salary_fraction, master_seed):
    """Wealth after step t; ``salary_fraction`` None keeps the kernel's beta."""
    n = wealth.size
    beta = kernel.beta if salary_fraction is None else salary_fraction * (np.sum(wealth) / n)
    w = unit_mean_noise(kernel.family, kernel.gamma_disp / kernel.alpha,
                        uniforms(master_seed, streams.TAG_STEP, t, n))
    return w * kernel.alpha * wealth + beta


def gini_pairwise_oracle(wealth) -> float:
    """Direct O(N^2) double sum; reference for property tests only."""
    x, _ = _checked(wealth)
    if x.size > 10_000:
        raise ValueError("pairwise oracle capped at N = 10^4")
    mu = _mean(x)
    diff = np.abs(x[:, None] - x[None, :]).sum()
    return float(diff / (2.0 * x.size**2 * mu))


@dataclass(frozen=True)
class AdaptationMoments:
    growth_factor: float
    var_redist: float
    cov_wealth_redist: float


def adaptation_substitution(alpha: float, beta: float, mu: float,
                            cv: float) -> AdaptationMoments:
    """Express the linear policy as a general growth decomposition.

    growth factor alpha + beta/mu with redistribution beta*(1 - x/mu),
    whose moments are Var = beta^2 CV^2 and Cov[x, .] = -beta mu CV^2.
    Plugging these into general_cv_condition reproduces the linear
    halting condition exactly (the slacks differ by the positive factor
    alpha^2 mu^2 CV^2).
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    return AdaptationMoments(
        growth_factor=alpha + beta / mu,
        var_redist=beta**2 * cv**2,
        cov_wealth_redist=-beta * mu * cv**2,
    )
