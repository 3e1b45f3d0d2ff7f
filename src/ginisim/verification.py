"""Numerical verification of the pair-integral bound chain.

The concentration argument rests on integral machinery: the restricted
pair integral F(x,y) = E[(Y'-X')^+] over independent transitions started
at x and y, its diagonal lower bound F(x,x) >= Gamma*x/2, a stripe-pair
functional over near-diagonal pairs, the extremal density h(y) = a/y^2
minimizing that functional, and the propagation of the log-derivative
bound from the kernel to the next-step population density.  Each gets a
direct numerical check here; nothing is taken from the derivations on
trust.

Each check returns its own section of the verify-integrals report: an
ordered dict of the printed keys, ending in ``pass`` where the section is
gated.  `verify_integrals` lists the sections in report order and
`format_report` prints them; no other result type exists.

Quadrature policy: 1-D adaptive integration with the inner integral of
F done in closed form (upper partial moments of the noise law), domains
truncated where the integrand's law puts less than ~1e-13 of its mass.
Every reported number carries an error estimate or a tolerance.
Every quadrature goes through `_quad`, which imports scipy.integrate on
first use: `config` imports this module for Gamma's calibration, which
integrates nothing, so a simulation never loads the quadrature stack.

The pair integrand is the innermost loop of verify-integrals (about 150
evaluations per pair, thousands of pairs), so it runs on Python floats:
`math` for exp/log/erfc and `scipy.special.cython_special.gammaincc`,
the same C routine as the `sp.gammaincc` ufunc without its per-call
dispatch, which costs more than the routine itself.  Its values are
bit-identical to those of the same integrand written with the ufuncs
(the tests compare the two), so no quadrature result depends on which
form runs.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special as sp
from scipy.special.cython_special import gammaincc as _gammaincc

from . import streams
from .bounds import BoundParams
from .dynamics import PopulationState, simulate
from .kernels import (
    LOGNORMAL,
    KernelSpec,
    NoDensityError,
    _probe_array,
    high_probability_mass,
    transition_from_uniforms,
    unit_mean_noise,
)
from .metrics import tail_probability

_SQRT2 = math.sqrt(2.0)

# Fixed tolerances and sizes of the checks; the report prints the ones a
# reader needs to interpret its numbers.
_QUAD_TOL = 1e-6           # diagonal slack allowed for quadrature error
_TARGET_MASS = 0.99        # calibration quantile of the probe magnitudes
_CALIBRATION_SAMPLES = 20000
_STRIPE_EPSREL = 1e-11     # inner window; the outer integral uses 10x
_SLACK_CONSTANT = 5.0      # minimality threshold Y[h] * (1 - 5*delta)
_CORE_MASS = 0.99          # pushforward core: conditional mass per agent
_MIXTURE_BLOCK = 2**15     # agents x grid elements per mixture block: 256 KiB


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested accuracy."""


class NonNormalizedError(ValueError):
    """Raised when a density handed to the functional does not integrate to 1."""


def _ndtr(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def _quad(func, a: float, b: float, **options) -> tuple[float, float]:
    """`scipy.integrate.quad`, imported on the first call.

    scipy.integrate loads scipy.optimize, linalg, sparse and fft with it
    (~26 MiB), which only these checks need.
    """
    from scipy.integrate import quad

    return quad(func, a, b, **options)


# --- restricted pair integral -------------------------------------------


@functools.lru_cache(maxsize=16)
def _gamma_constants(k: float, theta: float) -> tuple[float, float, float]:
    """(log normaliser, t_lo, t_hi) of the gamma pair integrand, once per (k, theta).

    The range in t = ln u cuts 1e-14 of the noise law's mass off each end.
    A verify-integrals run integrates thousands of pairs of one kernel.
    """
    log_norm = float(sp.gammaln(k)) + k * math.log(theta)
    t_lo = math.log(sp.gammaincinv(k, 1e-14) * theta)
    t_hi = math.log(sp.gammainccinv(k, 1e-14) * theta)
    return log_norm, t_lo, t_hi


def pair_split_integral(kernel: KernelSpec, x: float, y: float) -> float:
    """F(x, y) = E[(Y' - X')^+] for independent transitions from x and y.

    Computed as a single adaptive integral over the first factor's noise,
    with the inner integral reduced to the noise law's upper partial
    moments in closed form.  The additive transfer cancels from Y' - X',
    so F does not depend on beta.

    Absolute error target: 1e-7 * (alpha*x + beta).
    """
    if not kernel.has_density:
        raise NoDensityError("deterministic kernel has no density; F undefined")
    if not (x > 0.0 and y > 0.0):
        raise ValueError("pair integral requires x, y > 0")

    # Integrand at t = ln u of the first factor's noise U, with c = x*u/y:
    #   u*f_U(u) * (y*E[V; V > c] - x*u*P(V > c)).
    # Keep the operation order: a reference built from the ufunc special
    # functions (tests/test_verification.py) pins every value bit for bit.
    if kernel.family == LOGNORMAL:
        m, s = kernel.lognormal_params()
        alpha = kernel.alpha
        m_s2 = m + s * s
        norm = s * math.sqrt(2.0 * math.pi)
        t_lo, t_hi = m - 8.0 * s, m + 8.0 * s

        def integrand(t: float) -> float:
            xu = x * math.exp(t)
            log_c = math.log(xu / y)
            z = (t - m) / s
            mean_above = alpha * _ndtr((m_s2 - log_c) / s)  # E[V; V > c]
            tail = _ndtr((m - log_c) / s)  # P(V > c)
            return math.exp(-0.5 * z * z) / norm * (y * mean_above - xu * tail)

    else:
        k, theta = kernel.gamma_params()
        k_theta = k * theta
        k1 = k + 1.0
        log_norm, t_lo, t_hi = _gamma_constants(k, theta)

        def integrand(t: float) -> float:
            u = math.exp(t)
            xu = x * u
            c_theta = xu / y / theta
            return math.exp(k * t - u / theta - log_norm) * (
                y * (k_theta * _gammaincc(k1, c_theta)) - xu * _gammaincc(k, c_theta))

    scale = kernel.alpha * max(x, y)
    value, err = _quad(
        integrand, t_lo, t_hi, epsabs=1e-12 * scale, epsrel=1e-10, limit=300
    )
    target = 1e-7 * (kernel.alpha * x + kernel.beta)
    if err > target:
        raise QuadratureError(
            f"pair integral error estimate {err:.3e} exceeds target {target:.3e}"
        )
    return float(value)


def pair_split_monte_carlo(kernel: KernelSpec, x: float, y: float, n_pairs: int,
                           master_seed: int) -> tuple[float, float]:
    """Monte Carlo oracle for the pair integral: (estimate, standard error)."""
    xs = transition_from_uniforms(
        kernel, x, streams.indexed_uniforms(master_seed, streams.TAG_PROBE, 0, n_pairs))
    ys = transition_from_uniforms(
        kernel, y, streams.indexed_uniforms(master_seed, streams.TAG_PROBE, 1, n_pairs))
    gap = np.maximum(ys - xs, 0.0)
    return float(gap.mean()), float(gap.std(ddof=1) / math.sqrt(n_pairs))


# --- diagonal bound and calibration -------------------------------------


def diagonal_bound_check(kernel: KernelSpec, x_grid, gamma_claimed: float) -> dict:
    """Check F(x,x) >= Gamma*(alpha*x+beta)/2 and >= Gamma*x/2 on a grid.

    ``gamma_claimed`` is the inverse log-derivative constant the kernel
    claims; calibrate it first (see calibrate_log_derivative_bound) if
    you have no external claim.  Returns the ``diagonal_bound`` section:
    F(x,x) and both slacks per grid point, which pass down to -quad_tol.
    """
    section = {"gamma_claimed": gamma_claimed, "quad_tol": _QUAD_TOL}
    ok = True
    for x in x_grid:
        x = float(x)
        f = pair_split_integral(kernel, x, x)
        slack_mean_scaled = f - gamma_claimed * (kernel.alpha * x + kernel.beta) / 2.0
        slack_x = f - gamma_claimed * x / 2.0
        section[f"f_diag[x={x:g}]"] = f
        section[f"slack_mean_scaled[x={x:g}]"] = slack_mean_scaled
        section[f"slack_x[x={x:g}]"] = slack_x
        ok = ok and slack_mean_scaled >= -_QUAD_TOL and slack_x >= -_QUAD_TOL
    section["pass"] = ok
    return section


def calibrate_log_derivative_bound(kernel: KernelSpec, x: float = 1.0,
                                   master_seed: int = 0) -> dict:
    """Measure the kernel's log-derivative bounds as sample quantiles.

    Draws transitions, probes |d log f / d log (x or x')| at each, and
    takes the 0.99 quantile of each probe's magnitude, so that the
    high_probability_mass of each bound is ~0.99 by construction
    (`verify_integrals` measures that mass on fresh draws).  Returns the
    head of the ``calibration`` section.  The input and output constants
    usually differ and are reported side by side; ``gamma_inv``, the
    reciprocal of the larger, is the conservative inverse constant for
    the bound chain.
    """
    n = _CALIBRATION_SAMPLES
    u = streams.indexed_uniforms(master_seed, streams.TAG_CALIBRATION, 0, n)
    xp = transition_from_uniforms(kernel, x, u)
    out = {}
    for which in ("input", "output"):
        probe = _probe_array(kernel, x, xp, which, 1e-5)
        probe = probe[np.isfinite(probe)]
        if probe.size < n // 2:
            raise ValueError("too many undefined probes; cannot calibrate")
        out[which] = float(np.quantile(np.abs(probe), _TARGET_MASS))
    if not max(out.values()) > 0.0:  # every draw landed on the mode, where probes vanish
        raise ValueError("cannot calibrate Gamma: the kernel's noise is below float resolution")
    return {
        "target_mass": _TARGET_MASS,
        "delta_logx": out["input"],
        "delta_logxp": out["output"],
        "gamma_inv": 1.0 / max(out["input"], out["output"]),
    }


# --- stripe functional and extremal density ------------------------------


class DensityOnRay:
    """Closed-form probability density on (a, infinity).

    ``upper`` truncates quadrature; pick it so the neglected tail mass is
    ~1e-10.  ``extend=True`` evaluates the density below a as well (the
    cutoff-ignored variant of the functional).
    """

    def __init__(self, a: float, pdf_fn, upper: float, label: str = "density"):
        if not a > 0.0:
            raise ValueError("lower endpoint a must be positive")
        if not upper > a:
            raise ValueError("upper truncation must exceed a")
        self.a = float(a)
        self.pdf_fn = pdf_fn
        self.upper = float(upper)
        self.label = label

    @classmethod
    def extremal(cls, a: float) -> "DensityOnRay":
        """The minimizer h(y) = a/y^2; tail mass beyond upper is a/upper."""
        return cls(a, lambda y: a / (y * y), a * 1e10, label="extremal")

    def pdf(self, y: float, extend: bool = False) -> float:
        if not extend and y < self.a:
            return 0.0
        if y <= 0.0:
            return 0.0
        return float(self.pdf_fn(y))

    def validate(self) -> float:
        """Quadrature normalization check; returns the measured norm."""
        norm, _ = _quad(
            lambda t: math.exp(t) * self.pdf(math.exp(t)),
            math.log(self.a), math.log(self.upper),
            epsabs=1e-10, epsrel=1e-9, limit=400,
        )
        if abs(norm - 1.0) > 1e-6:
            raise NonNormalizedError(
                f"{self.label}: integrates to {norm!r} over (a, upper), not 1"
            )
        return float(norm)


def extremal_closed_form(a: float, delta: float) -> float:
    """Cutoff-ignored value of the functional on h(y) = a/y^2."""
    return a * (math.exp(delta) - math.exp(-delta))


def stripe_window(p: DensityOnRay, x: float, delta: float,
                  clip_lower: bool = True) -> float:
    """Inner mass of p over the window (x*e^-delta, x*e^delta)."""
    lo = x * math.exp(-delta)
    hi = x * math.exp(delta)
    if clip_lower:
        lo = max(lo, p.a)
    if hi <= lo:
        return 0.0
    extend = not clip_lower
    val, _ = _quad(lambda y: p.pdf(y, extend=extend), lo, hi,
                   epsabs=0.0, epsrel=_STRIPE_EPSREL, limit=200)
    return float(val)


def stripe_pair_functional(p: DensityOnRay, a: float, delta: float,
                           clip_lower: bool = True, check_norm: bool = True) -> float:
    """Nested quadrature of int_a x p(x) [window mass of p at x] dx.

    ``clip_lower=False`` ignores the lower cutoff in the inner window
    (closed-form densities only), which is the variant with the exact
    closed form on the extremal density.
    """
    if not 0.0 <= delta < 0.2:
        raise ValueError("delta must be in [0, 0.2)")
    if check_norm:
        p.validate()
    if delta == 0.0:
        return 0.0  # empty inner window for any continuous density
    lo = a if not clip_lower else max(a, p.a)
    extend = not clip_lower

    def integrand(t: float) -> float:
        x = math.exp(t)
        fx = p.pdf(x, extend=extend)
        if fx == 0.0:
            return 0.0
        return x * x * fx * stripe_window(p, x, delta, clip_lower)

    t_lo, t_hi = math.log(lo), math.log(p.upper)
    # the window's lower clip disengages at x = p.a * e^delta; that kink
    # sits in a boundary layer of width delta the adaptive rule can miss
    # entirely for small delta, so force a subdivision point there
    kink = math.log(p.a) + delta
    points = [kink] if clip_lower and t_lo < kink < t_hi else None
    val, err = _quad(integrand, t_lo, t_hi,
                     epsabs=0.0, epsrel=_STRIPE_EPSREL * 10.0, limit=400,
                     points=points)
    if val != 0.0 and err > 1e-8 * abs(val):
        raise QuadratureError(
            f"stripe functional error estimate {err:.3e} too large for value {val:.6e}"
        )
    return float(val)


# --- extremal minimality -------------------------------------------------


def truncated_pareto(a: float, c: float) -> DensityOnRay:
    """p(y) = c*a^c / y^(1+c) on (a, inf); log-derivative magnitude 1 + c."""
    if not c > 0.0:
        raise ValueError("tail exponent must be positive")
    upper = a * (1e10 ** (1.0 / c))  # 1e-10 tail quantile
    return DensityOnRay(a, lambda y: c * a**c / y ** (1.0 + c), upper,
                        label=f"pareto_c={c:g}")


def rippled_extremal(a: float, m: float, omega: float) -> DensityOnRay:
    """Extremal shape modulated by a log-periodic ripple, renormalized.

    Log-derivative magnitude is at most 2 + m*omega/(1 - m), so trials
    stay inside any generous hypothesis bound for moderate (m, omega).
    """
    if not 0.0 <= m < 1.0:
        raise ValueError("ripple amplitude must be in [0, 1)")
    norm = 1.0 + m * omega / (1.0 + omega * omega)

    def fn(y: float) -> float:
        t = math.log(y / a)
        return (a / (y * y)) * (1.0 + m * math.sin(omega * t)) / norm

    return DensityOnRay(a, fn, a * 1e10, label=f"ripple_m={m:.3g}_w={omega:.3g}")


def _measured_logderiv(p: DensityOnRay, delta: float, n_points: int = 200) -> float:
    """Max |d log p / d log y| on a log grid over the bulk of (a, upper)."""
    ts = np.linspace(math.log(p.a * (1.0 + 1e-9)) + delta,
                     math.log(p.upper) - delta, n_points)
    h = 1e-5
    vals = []
    for t in ts:
        lo = p.pdf(math.exp(t - h))
        hi = p.pdf(math.exp(t + h))
        if lo > 0.0 and hi > 0.0:
            vals.append(abs(math.log(hi) - math.log(lo)) / (2.0 * h))
    if not vals:
        raise ValueError("density vanished on its own support; cannot measure derivative")
    return float(max(vals))


def _window_identity_ok(p: DensityOnRay, delta: float, logderiv: float) -> bool:
    """Check window mass ~= 2*delta*x*p(x) within the derivative-bound factor."""
    hi_q = p.upper ** 0.6 * p.a ** 0.4  # stay well inside the truncated support
    xs = np.exp(np.linspace(math.log(p.a) + 1.05 * delta, math.log(hi_q), 24))
    tol_factor = math.exp((logderiv + 1.0) * delta) * (1.0 + 1e-8)
    for x in xs:
        fx = p.pdf(float(x))
        if fx == 0.0:
            return False
        ratio = stripe_window(p, float(x), delta) / (2.0 * delta * x * fx)
        if not (1.0 / tol_factor <= ratio <= tol_factor):
            return False
    return True


def random_trial_densities(a: float, n_trials: int,
                           master_seed: int) -> list[DensityOnRay]:
    """Seeded trial densities: even trials Pareto, odd trials rippled extremal."""
    trials = []
    for i in range(n_trials):
        u = streams.indexed_uniforms(master_seed, streams.TAG_TRIALS, i, 3)
        if i % 2 == 0:
            c = math.exp(math.log(0.55) + u[0] * (math.log(3.0) - math.log(0.55)))
            trials.append(truncated_pareto(a, c))
        else:
            trials.append(rippled_extremal(a, 0.1 + 0.4 * u[1], 0.5 + 2.5 * u[2]))
    return trials


def extremal_minimality_check(a: float, delta: float,
                              trial_densities: list[DensityOnRay]) -> dict:
    """Verify the extremal density minimizes the stripe functional.

    Each trial density p must respect the log-derivative cap 1/delta;
    trials violating their measured cap are excluded and counted, not
    failed.  For the rest the check asserts Y[p] >= Y[h] * (1 - 5*delta)
    and the window identity window_mass ~= 2*delta*x*p(x) within the
    derivative-bound factor.  Returns the ``extremal_minimality``
    section, one ``trial[label]`` line per trial.
    """
    if not 0.0 < delta <= 0.05:
        raise ValueError("minimality check calibrated for delta <= 0.05")
    cap = 1.0 / delta

    y_closed = extremal_closed_form(a, delta)
    h = DensityOnRay.extremal(a)
    section = {
        "a": a, "delta": delta,
        "slack_constant": _SLACK_CONSTANT,
        "y_extremal_closed_form": y_closed,
        "y_extremal_clipped": stripe_pair_functional(h, a, delta, clip_lower=True,
                                                     check_norm=False),
        "n_trials": len(trial_densities),
        "n_excluded": 0,
    }
    threshold = y_closed * (1.0 - _SLACK_CONSTANT * delta)
    ok = True
    for p in trial_densities:
        measured = _measured_logderiv(p, delta)
        if measured > cap * (1.0 + 1e-3):
            section["n_excluded"] += 1
            y_val, status = math.nan, "excluded"
        else:
            y_val = stripe_pair_functional(p, a, delta, clip_lower=True)
            passed = y_val >= threshold and _window_identity_ok(p, delta, measured)
            status = "ok" if passed else "FAIL"
            ok = ok and passed
        section[f"trial[{p.label}]"] = f"y={y_val:.9g} ratio={y_val / y_closed:.6g} {status}"
    section["pass"] = ok
    return section


# --- ensemble-level gap bound --------------------------------------------


def ensemble_gap_bound_check(
    pop: PopulationState,
    kernel: KernelSpec,
    params: BoundParams,
    n_pairs: int = 2000,
    master_seed: int = 0,
) -> dict:
    """Check E[F(x,y)] >= delta*kappa*mu*Gamma*(1-eps)*P^2 on a snapshot.

    Gamma is the calibrated ``params.gamma_inv_logderiv`` and the stripe
    slack is derived from it, eps = min(delta/Gamma, 0.999).  Pairs are
    sampled with replacement from the ensemble; pairs with a zero-wealth
    member or a failed quadrature are excluded and counted.  Returns the
    ``ensemble_gap`` section: it passes when the sampled mean clears the
    bound by more than 3 standard errors, and its sample statistics are
    nan when fewer than max(16, n_pairs/2) pairs remain (hypotheses not
    met).  Raises NoDensityError for a kernel without a transition density.
    """
    if not kernel.has_density:
        raise NoDensityError("deterministic kernel has no density")
    eps = min(params.delta_stripe / params.gamma_inv_logderiv, 0.999)
    wealth = pop.wealth
    n = wealth.size
    mu = float(wealth.mean())
    p_tail = tail_probability(wealth, params.kappa)
    rhs = (params.delta_stripe * params.kappa * mu
           * params.gamma_inv_logderiv * (1.0 - eps) * p_tail**2)

    u1 = streams.indexed_uniforms(master_seed, streams.TAG_PAIRS, 0, n_pairs)
    u2 = streams.indexed_uniforms(master_seed, streams.TAG_PAIRS, 1, n_pairs)
    ii = np.minimum((u1 * n).astype(np.int64), n - 1)
    jj = np.minimum((u2 * n).astype(np.int64), n - 1)

    values = []
    excluded = 0
    for i, j in zip(ii, jj):
        xi, yj = float(wealth[i]), float(wealth[j])
        if xi <= 0.0 or yj <= 0.0:
            excluded += 1
            continue
        try:
            values.append(pair_split_integral(kernel, xi, yj))
        except QuadratureError:
            excluded += 1
    lhs = se = margin = math.nan
    if len(values) >= max(16, n_pairs // 2):
        arr = np.asarray(values)
        lhs = float(arr.mean())
        se = float(arr.std(ddof=1) / math.sqrt(arr.size))
        margin = (lhs - rhs) / se if se > 0.0 else math.inf
    return {
        "snapshot_step": pop.t,
        "n_pairs": n_pairs, "n_excluded": excluded,
        "lhs_mean": lhs, "standard_error": se,
        "rhs_bound": rhs, "margin_se": margin,
        "epsilon": eps,
        "pass": margin > 3.0,
    }


# --- pushforward regularity ----------------------------------------------


def _mixture_log_density(kernel: KernelSpec, sources: np.ndarray,
                         grid: np.ndarray) -> np.ndarray:
    """log of mean_i f(g | sources_i) per grid point, in even column blocks.

    A block holds about `_MIXTURE_BLOCK` agents x grid elements and at least 4
    columns (one would sum its agents pairwise, with other rounding), so up to
    M = 8192 agents the working set is fixed by that budget, whatever M x G.
    """
    m_agents = sources.size
    x = sources[:, None]
    if kernel.family == LOGNORMAL:
        m, s = kernel.lognormal_params()
    else:
        k, theta = kernel.gamma_params()
        log_norm = sp.gammaln(k) + k * math.log(theta)
        log_x = np.log(x)

    def block(g):
        ell = (g[None, :] - kernel.beta) / x
        if kernel.family == LOGNORMAL:
            z = (np.log(ell) - m) / s
            lp = -np.log(ell * (s * math.sqrt(2.0 * math.pi)) * x) - 0.5 * z * z
        else:
            lp = (k - 1.0) * np.log(ell) - ell / theta - log_norm - log_x
        return sp.logsumexp(lp, axis=0) - math.log(m_agents)
    n_blocks = min(grid.size // 4, -(-m_agents * grid.size // _MIXTURE_BLOCK))
    return np.concatenate([block(g) for g in np.array_split(grid, n_blocks)])


def pushforward_log_derivative_check(
    pop_prev: PopulationState,
    kernel: KernelSpec,
    x_grid,
    claimed_bound: float,
    tol: float = 0.05,
) -> dict:
    """Bound the log-derivative of the next-step population density.

    Forms p(x) = mean_i f(x | wealth_i) on the grid, differentiates
    log p against log x, and checks the magnitude against claimed_bound
    (plus tol) on the union of per-agent core windows: agent i
    contributes the interval beta + wealth_i * [q_lo, q_hi] where
    q_lo, q_hi are the growth-ratio quantiles enclosing 99% of its
    conditional mass.  The union therefore carries at least 99% of the
    pushforward, and on it the mixture
    log-derivative is a weighted average of component log-derivatives
    that are individually controlled.  Low-density valleys between
    separated components are excluded by construction.  Returns the
    ``pushforward`` section, whose ``claimed_bound`` includes tol.
    Raises if the grid is too coarse to trust the derivative (stride-2
    estimate must agree within 10%).
    """
    if not kernel.has_density:
        raise NoDensityError("deterministic kernel has no density")
    grid = np.asarray(x_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 16:
        raise ValueError("need a 1-D grid of at least 16 points")
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be positive and strictly increasing")
    if np.any(grid <= kernel.beta):
        raise ValueError("grid must stay above the support edge at beta")

    prev = pop_prev.wealth
    positive = prev[prev > 0.0]
    if positive.size == 0:
        raise ValueError("no positive-wealth agents to push forward")

    log_p = _mixture_log_density(kernel, positive, grid)

    lt = np.log(grid)
    d = np.gradient(log_p, lt)
    d_coarse = np.interp(lt, lt[::2], np.gradient(log_p[::2], lt[::2]))

    q_tail = 0.5 * (1.0 - _CORE_MASS)
    rel_sd = kernel.gamma_disp / kernel.alpha
    ratio_lo, ratio_hi = kernel.alpha * unit_mean_noise(
        kernel.family, rel_sd, np.array([q_tail, 1.0 - q_tail])
    )
    # grid node g sits in agent i's core window iff
    # wealth_i * ratio_lo <= g - beta <= wealth_i * ratio_hi,
    # i.e. some wealth lands in [(g-beta)/ratio_hi, (g-beta)/ratio_lo]
    xs = np.sort(positive)
    y = grid - kernel.beta
    lo_idx = np.searchsorted(xs, y / ratio_hi, side="left")
    hi_idx = np.searchsorted(xs, y / ratio_lo, side="right")
    core = lo_idx < hi_idx
    if np.count_nonzero(core) < 8:
        raise ValueError(
            "grid too coarse or misplaced: fewer than 8 points land in the "
            "high-probability core; refine or recentre"
        )

    rough = np.max(np.abs(d[core] - d_coarse[core]) / (1.0 + np.abs(d[core])))
    if rough > 0.1:
        raise ValueError(
            f"grid too coarse: stride-2 derivative disagrees by {rough:.2%}; "
            "double the grid resolution"
        )
    max_abs = float(np.max(np.abs(d[core])))
    bound = claimed_bound + tol
    return {"max_abs_logderiv_core": max_abs, "claimed_bound": bound,
            "core_mass": _CORE_MASS, "pass": max_abs <= bound}


# --- the verify-integrals report -----------------------------------------


def verify_integrals(config) -> list[tuple[str, dict]]:
    """Run every check of the pair-integral chain on a configured kernel.

    Returns the report sections in order: calibration, then five gated
    sections that each carry their own ``pass``, then ``overall``, whose
    ``pass`` is their conjunction.  The calibration is the config's own
    (``RunConfig.calibration``) plus the mass within each bound, measured
    on fresh draws; every other section but the stripe-functional grid and
    ``overall`` is what its check returns.  The ensemble gap and the
    pushforward run on the population after ``snapshot_step`` steps of the
    config.  Raises NoDensityError for a kernel without a transition
    density.
    """
    kernel = config.kernel
    if not kernel.has_density:
        raise NoDensityError("deterministic kernel has no transition density")
    seed = config.master_seed
    cal = dict(config.calibration)
    for sequence, which, key in ((1, "input", "logx"), (2, "output", "logxp")):
        u = streams.indexed_uniforms(seed, streams.TAG_CALIBRATION, sequence,
                                     _CALIBRATION_SAMPLES)
        cal[f"mass_within_{key}"] = high_probability_mass(kernel, 1.0, cal[f"delta_{key}"], u,
                                                          which=which).mass
    sections = [
        ("calibration", cal),
        ("diagonal_bound", diagonal_bound_check(kernel, config.x_diagonal, cal["gamma_inv"])),
    ]

    max_rel = 0.0
    stripe = {}
    for a in config.a_values:
        for d in config.delta_values:
            quad_val = stripe_pair_functional(DensityOnRay.extremal(a), a, d,
                                              clip_lower=False, check_norm=False)
            closed = extremal_closed_form(a, d)
            rel = abs(quad_val - closed) / closed
            max_rel = max(max_rel, rel)
            stripe[f"rel_err[a={a:g},delta={d:g}]"] = rel
    stripe["max_rel_err"] = max_rel
    stripe["pass"] = max_rel <= 1e-9
    sections.append(("stripe_functional", stripe))

    trials = random_trial_densities(1.0, config.n_trials, seed)
    sections.append(("extremal_minimality",
                     extremal_minimality_check(a=1.0, delta=0.01, trial_densities=trials)))

    for pop in simulate(config.build_initial(seed), kernel, config.build_policy(),
                        config.snapshot_step, seed):
        pass
    gap_params = BoundParams(kappa=config.kappa, delta_stripe=config.delta_stripe,
                             gamma_inv_logderiv=cal["gamma_inv"])
    sections.append(("ensemble_gap", ensemble_gap_bound_check(
        pop, kernel, gap_params, n_pairs=config.n_pairs, master_seed=seed)))

    sub = PopulationState(pop.wealth[:2048], pop.t)
    lo_q, hi_q = float(np.quantile(sub.wealth, 0.02)), float(np.quantile(sub.wealth, 0.98))
    lo = kernel.beta + 0.8 * max(kernel.alpha * lo_q - kernel.beta, 1e-9)
    hi = kernel.beta + 1.3 * (kernel.alpha * hi_q - kernel.beta)
    sections.append(("pushforward", pushforward_log_derivative_check(
        sub, kernel, np.geomspace(lo, hi, 220), claimed_bound=cal["delta_logxp"],
        tol=0.1 * cal["delta_logxp"])))

    sections.append(("overall", {"pass": all(section["pass"] for _, section in sections
                                             if "pass" in section)}))
    return sections


# --- text report serialization -------------------------------------------


def format_report(sections: list[tuple[str, dict]]) -> str:
    """Machine-parseable `[section]` + `key: value` lines."""
    out = []
    for name, fields in sections:
        out.append(f"[{name}]")
        for key, value in fields.items():
            if isinstance(value, float):
                out.append(f"{key}: {value:.12g}")
            else:
                out.append(f"{key}: {value}")
        out.append("")
    return "\n".join(out)
