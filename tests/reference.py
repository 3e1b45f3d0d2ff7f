"""The simulation step in the plainest numpy, as an independent reference.

`dynamics.step` and the random initial conditions must reproduce it bit
for bit.  Each block of agents draws from a fresh Philox under that
block's key, the unit-mean noise is computed out of place, and the update
is w*alpha*x + beta_t, with beta_t = c * mean(x) under a proportional
policy.
"""

import numpy as np
from scipy import special as sp

from ginisim import streams
from ginisim.kernels import LOGNORMAL, _gamma_quantile


def uniforms(master_seed, tag, t, n):
    """One uniform per agent: the blocks' own streams, concatenated."""
    return np.concatenate([
        streams.block_uniforms(master_seed, tag, t, b, min(streams.BLOCK, n - lo))
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
