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
bit-identical trajectories.  A step is x' = (alpha * W) * x + beta_t, and
its factor alpha * W does not depend on the state, so lanes
(`ginisim.lanes`), one per usable CPU, draw it while the caller still
measures the states before it: `simulate` begins one job ahead.  A job is
one step of a large population, cut into chunks of whole blocks, or many
steps of a small one, cut into spans of whole steps.  A span of gamma
noise evaluates its incomplete gamma function on the thread that claimed
it, since lanes do not nest; in a job of one lane, that evaluation takes
lanes of its own.
Neither the CPU count, nor which lane drew a chunk, nor the CLI's
``--threads`` flag (accepted and ignored) changes a byte.

`trajectory` is the one loop from a RunConfig to measured rows; `run`
adds the bound records and the coefficients on top of it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import lanes, metrics, streams
from .bounds import step_bound_report
from .kernels import (
    DETERMINISTIC,
    LOGNORMAL,
    KernelSpec,
    conditional_mean,
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


# A lane's agents at least, and a chunk's.  Two lanes against one, on 2 vCPUs:
# a step 22% slower at N = 1e4, 12% faster at N = 4 blocks, 35% at N = 1e5.
_MIN_LANE = 4 * streams.BLOCK
# The spans of a job of many steps: with 4 the threshold probes gained nothing stable.
_SPANS = 8


def _lane_count(n: int) -> int:
    """One lane per usable CPU, as long as each holds ``_MIN_LANE`` agents."""
    return lanes.count(n // _MIN_LANE)


def _span_steps(n: int) -> int:
    """Whole steps per span of a job over n agents, to draw ``_MIN_LANE`` at least.

    0 from ``_MIN_LANE`` agents on: a job is then one step, cut every ``_MIN_LANE`` agents.
    """
    return -(-_MIN_LANE // n) if n < _MIN_LANE else 0


class _Factor(lanes.Lanes):
    """The state-free factors alpha * W of steps t to t + steps - 1, begun: lanes draw them ahead.

    Agent i's factor at step s depends only on (master_seed, s, i), not on
    the wealth it will multiply: alpha_t is the kernel's alpha under every
    policy.  The beginner's thread allocates the one buffer, step s's
    factors at ``[(s - t) * n, (s - t + 1) * n)``, and cuts it every
    ``_MIN_LANE`` agents of a step, or below that many agents into spans of
    `_span_steps` whole steps.  A span of whole steps draws their uniforms
    into its part of the buffer, step by step, and makes one noise call and
    one ``*= alpha`` over all of them.  `take` returns the buffer.
    """

    def __init__(self, kernel: KernelSpec, t: int, n: int, master_seed: int, n_lanes: int,
                 steps: int = 1):
        size, r = steps * n, kernel.gamma_disp / kernel.alpha
        out = np.empty(size)
        self.t, self.end = t, t + steps

        def fill(lo: int, hi: int) -> None:
            w = out[lo:hi]
            if hi - lo <= n:  # inside one step
                u = streams.indexed_uniforms(master_seed, streams.TAG_STEP, t + lo // n, hi - lo,
                                             lo % n // streams.BLOCK)
            else:  # whole steps, transformed in place
                u = w
                for i in range(0, hi - lo, n):
                    w[i:i + n] = streams.indexed_uniforms(master_seed, streams.TAG_STEP,
                                                          t + (lo + i) // n, n)
            unit_mean_noise(kernel.family, r, u, w)
            w *= kernel.alpha
        stride = _span_steps(n) * n or _MIN_LANE
        super().__init__(out, [*range(0, size, stride), size], fill, n_lanes)


def step(pop: PopulationState, kernel: KernelSpec, policy: GrowthPolicy,
         master_seed: int, _factor=None) -> PopulationState:
    """Advance the whole ensemble one time step: x' = (alpha * W) * x + beta_t.

    On this thread and in this order: beta_t (from the state's mean under a
    proportional policy); the factor alpha * W of step ``pop.t``, taken (from
    the `_Factor` that `simulate` began ahead, or one begun here); then
    ``* x, + beta_t``, the operations of `kernels.transition_from_uniforms`
    in its order: in place on a one-step job's buffer, or on a fresh array
    from a step's part of a job of many.  Any other fifth
    argument (``perfbench/baseline.py`` passes a thread pool) is ignored,
    like ``--threads``.
    """
    k_t = kernel  # linear mode: the kernel's own coefficients, no mean needed
    if policy.salary_fraction is not None:
        alpha, beta = policy.linear_coefficients(float(metrics._average(pop.wealth)), kernel)
        k_t = replace(kernel, alpha=alpha, beta=beta)
    if kernel.family == DETERMINISTIC:
        new = conditional_mean(k_t, pop.wealth)
    else:
        factor = _factor if isinstance(_factor, _Factor) else _Factor(
            kernel, pop.t, pop.n, master_seed, _lane_count(pop.n))
        new = factor.take()
        if new.size == pop.n:  # a job of one step: its buffer becomes the state
            new *= pop.wealth
        else:
            lo = (pop.t - factor.t) * pop.n
            new = np.multiply(new[lo:lo + pop.n], pop.wealth)
        new += k_t.beta
    new.flags.writeable = False  # fresh: the next state takes it without a copy
    return PopulationState(new, pop.t + 1)


def simulate(pop: PopulationState, kernel: KernelSpec, policy: GrowthPolicy,
             steps: int, master_seed: int) -> Iterator[PopulationState]:
    """Yield the initial state and each of the `steps` successor states.

    Each step's factor comes from a job (`_Factor`) that lanes draw ahead
    of its state: one step from ``_MIN_LANE`` agents on, and below that
    ``_SPANS`` spans of `_span_steps` whole steps, cut short at the last
    step.  The first job is begun before state 0 is yielded, and job j + 1
    when the caller first takes job j, in the turn of job j's first step.
    So the workers draw while the caller measures the states before it,
    and `step` takes the factor.  At most one job is drawn ahead, no factor
    past the last step, and a run that is closed or left draws no further
    span and waits for its workers.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    n, end, begun = pop.n, pop.t + steps, []  # the jobs begun and not done, oldest first
    per_job = _SPANS * _span_steps(n) or 1

    def begin(t: int) -> None:
        k = min(per_job, end - t)
        begun.append(_Factor(kernel, t, n, master_seed, _lane_count(k * n), k))

    if steps and kernel.family != DETERMINISTIC:
        begin(pop.t)
    try:
        for _ in range(steps):
            yield pop
            job = begun[0] if begun else None
            if job and pop.t == job.t and job.end < end:
                begin(job.end)
            pop = step(pop, kernel, policy, master_seed, job)
            if job and pop.t == job.end:
                del begun[0]
        yield pop
    finally:
        for job in begun:  # an abandoned run leaves no worker writing
            job.drop()


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
