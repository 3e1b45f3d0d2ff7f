"""Population ensemble and its one-step evolution.

The wealth distribution is represented as a finite ensemble of agents
(a particle method): statistics are exact on the ensemble and each
agent transitions independently given its current wealth, so a step is
embarrassingly parallel.

Growth policies come in the two salary regimes a config can express:

* Linear: conditional mean alpha * x + beta with the kernel's own
  constant alpha and beta.
* Proportional: beta_t = c * mu_t evaluated on the current empirical
  mean; the feedback form of the transfer.

Reproducibility contract: every agent draw is keyed by
(master_seed, step, agent block), see `streams`.  The same seed gives
bit-identical trajectories.  A large step runs in lanes of whole blocks,
one per usable CPU; they are internal, so neither the CPU count nor the
CLI's ``--threads`` flag (accepted and ignored) changes a byte.

`trajectory` is the one loop from a RunConfig to measured rows; `run`
adds the bound records and the coefficients on top of it.
"""

from __future__ import annotations

import contextvars
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import metrics, streams
from .bounds import step_bound_report
from .kernels import (
    DETERMINISTIC,
    LOGNORMAL,
    KernelSpec,
    conditional_mean,
    transition_from_uniforms,
    unit_mean_noise,
)


class PopulationState:
    """Immutable wealth vector plus its time index.

    A read-only float64 array that owns its buffer is taken as it is:
    `step` hands over the array it has just built.  Any other input is
    copied, so a state never aliases a writable buffer.
    """

    __slots__ = ("wealth", "t")

    def __init__(self, wealth, t: int):
        w = np.asarray(wealth, dtype=np.float64)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("population needs at least 2 agents")
        lo, hi = w.min(), w.max()
        if not (-np.inf < lo and hi < np.inf):  # nan fails both
            raise ValueError("population contains non-finite wealth")
        if lo < 0:
            raise ValueError("population contains negative wealth")
        if t < 0:
            raise ValueError("time index must be nonnegative")
        if w.flags.writeable or not w.flags.owndata:
            w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "wealth", w)
        object.__setattr__(self, "t", int(t))

    def __setattr__(self, name, value):
        raise AttributeError("PopulationState is immutable")

    @property
    def n(self) -> int:
        return self.wealth.size


@dataclass(frozen=True)
class GrowthPolicy:
    """How the conditional mean of the next step depends on current wealth.

    ``salary_fraction`` None keeps the kernel's constant beta; a number c
    sets beta_t = c * mu_t.
    """

    salary_fraction: float | None = None

    @classmethod
    def linear(cls) -> "GrowthPolicy":
        """The kernel's own (alpha, beta)."""
        return cls()

    @classmethod
    def proportional(cls, salary_fraction: float) -> "GrowthPolicy":
        """Transfer proportional to the running empirical mean."""
        c = float(salary_fraction)
        if not 0.0 <= c < math.inf:
            raise ValueError(f"salary fraction must be finite and >= 0, got {c}")
        return cls(c)

    def linear_coefficients(self, mu: float, kernel: KernelSpec) -> tuple[float, float]:
        """(alpha_t, beta_t) as they act on a population of mean mu."""
        if self.salary_fraction is None:
            return kernel.alpha, kernel.beta
        return kernel.alpha, self.salary_fraction * mu


# A lane's agents at least.  Two lanes against one, on 2 vCPUs: a step 22%
# slower at N = 1e4, 12% faster at N = 4 blocks and 35% faster at N = 1e5.
_MIN_LANE = 4 * streams.BLOCK

_pools: dict[int, list] = {}  # pid -> a 1-worker ThreadPoolExecutor per extra lane


def _lane_count(n: int) -> int:
    """One lane per usable CPU, as long as each holds ``_MIN_LANE`` agents."""
    if n < 2 * _MIN_LANE:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, n // _MIN_LANE)


def _in_lanes(n: int, lane) -> None:
    """Call lane(lo, hi) on contiguous BLOCK-aligned ranges that cover 0..n-1.

    The first range runs here, each other one on its own worker, in a copy
    of this context (numpy's errstate with it).  All lanes have ended when
    this returns or raises, and a lane's exception is raised here unchanged.
    """
    k = _lane_count(n)
    if k == 1:  # the dispatch and its CPU count cost a step at N = 1e4 about 4%
        return lane(0, n)
    pools = _pools.setdefault(os.getpid(), [])  # a forked child's inherited ones have no thread
    while len(pools) < k - 1:  # a race between stepping threads only adds an idle one
        from concurrent.futures import ThreadPoolExecutor  # imported once a step splits

        pools.append(ThreadPoolExecutor(max_workers=1, thread_name_prefix="ginisim-lane"))
    cuts = [streams.BLOCK * (i * n // (k * streams.BLOCK)) for i in range(k)] + [n]
    futures = [pool.submit(contextvars.copy_context().run, lane, lo, hi)
               for pool, lo, hi in zip(pools, cuts[1:], cuts[2:])]
    try:
        lane(cuts[0], cuts[1])
    finally:
        for future in futures:
            future.exception()  # waits: no lane outlives the step
    for future in futures:
        future.result()


def step(pop: PopulationState, kernel: KernelSpec, policy: GrowthPolicy,
         master_seed: int, _pool=None) -> PopulationState:
    """Advance the whole ensemble one time step.

    Agent i's draw depends only on (master_seed, pop.t, i).  The lanes
    (`_in_lanes`) write into one result, a state once all have succeeded.
    A fifth argument, once a thread pool, is accepted and ignored, like
    the CLI's ``--threads``, while perfbench/ still passes both.
    """
    k_t = kernel  # linear mode: the kernel's own coefficients, no mean needed
    if policy.salary_fraction is not None:
        alpha, beta = policy.linear_coefficients(float(metrics._average(pop.wealth)), kernel)
        k_t = replace(kernel, alpha=alpha, beta=beta)
    if kernel.family == DETERMINISTIC:
        new = conditional_mean(k_t, pop.wealth)
    else:
        new = np.empty(pop.n)

        def lane(lo: int, hi: int) -> None:
            u = streams.indexed_uniforms(master_seed, streams.TAG_STEP, pop.t, hi - lo,
                                         lo // streams.BLOCK)
            transition_from_uniforms(k_t, pop.wealth[lo:hi], u, new[lo:hi])
        _in_lanes(pop.n, lane)
    new.flags.writeable = False  # fresh: the next state takes it without a copy
    return PopulationState(new, pop.t + 1)


def simulate(pop: PopulationState, kernel: KernelSpec, policy: GrowthPolicy,
             steps: int, master_seed: int) -> Iterator[PopulationState]:
    """Yield the initial state and each of the `steps` successor states."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    yield pop
    for _ in range(steps):
        pop = step(pop, kernel, policy, master_seed)
        yield pop


# --- initial conditions -------------------------------------------------

def initial_point(n: int, value: float = 1.0) -> PopulationState:
    return PopulationState(np.full(n, float(value)), 0)


def initial_uniform(n: int, low: float, high: float, master_seed: int) -> PopulationState:
    if not 0.0 <= low < high:
        raise ValueError("need 0 <= low < high for a uniform initial condition")
    u = streams.indexed_uniforms(master_seed, streams.TAG_INIT, 0, n)
    return PopulationState(low + (high - low) * u, 0)


def initial_lognormal(n: int, mean: float, cv: float, master_seed: int) -> PopulationState:
    """Lognormal ensemble with the given mean and coefficient of variation."""
    if not mean > 0.0 or not cv > 0.0:
        raise ValueError("lognormal initial condition needs mean > 0 and cv > 0")
    u = streams.indexed_uniforms(master_seed, streams.TAG_INIT, 0, n)
    w = unit_mean_noise(LOGNORMAL, cv, u)
    return PopulationState(mean * w, 0)


def make_initial(n: int, kind: str, master_seed: int, **params) -> PopulationState:
    if kind == "point":
        return initial_point(n, params.get("value", 1.0))
    if kind == "uniform":
        return initial_uniform(n, params["low"], params["high"], master_seed)
    if kind == "lognormal":
        return initial_lognormal(n, params.get("mean", 1.0), params["cv"], master_seed)
    raise ValueError(f"unknown initial condition kind {kind!r}")


# --- configured runs ----------------------------------------------------

def trajectory(config, kappas=()):
    """Generator of (PopulationState, SnapshotMetrics) rows of a configured run.

    The initial state comes first, then one row per step; each state is
    measured once, with tail probabilities at ``kappas``, and not
    validated again: its constructor did that.
    """
    states = simulate(config.build_initial(), config.kernel, config.build_policy(),
                      config.steps, config.master_seed)
    for pop in states:
        yield pop, metrics.snapshot_unchecked(pop.wealth, pop.t, kappas)


def run(config):
    """Generator of (PopulationState, SnapshotMetrics, [BoundRecord], (alpha_t, beta_t)).

    The rows of `trajectory` plus each row's bound records and the
    coefficients that act on its population in the next step.  The
    initial row comes first (recursion rows nan there).  Rows appear
    incrementally so callers can stream them to disk and keep partial
    output on failure.  A ValueError while a row is built is raised
    again with the row's step named in front of its message.
    """
    kernel = config.kernel
    policy = config.build_policy()
    params = config.bound_params()
    # the report layer looks its kappa up in the snapshot, so force it in
    kappas = tuple(sorted(set(config.kappas) | {params.kappa}))
    prev_snap, prev_ab, t = None, (math.nan, math.nan), 0
    try:
        for pop, snap in trajectory(config, kappas):
            now_ab = policy.linear_coefficients(snap.mu, kernel)
            records = step_bound_report(prev_snap, snap, *prev_ab, *now_ab,
                                        kernel.gamma_disp, params)
            yield pop, snap, records, now_ab
            prev_snap, prev_ab, t = snap, now_ab, snap.t + 1
    except ValueError as exc:
        raise ValueError(f"simulation aborted at step {t}: {exc}") from exc
