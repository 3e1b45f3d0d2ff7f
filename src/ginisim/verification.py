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

Quadrature policy: there is none.  Both noise families give F in closed
form, evaluated elementwise over arrays of pairs: lognormal noise by
Margrabe's exchange-option formula (J. Finance 33, 1978), gamma noise
through Lukacs' theorem that S = V1 + V2 is independent of V2/S ~
Beta(k, k) (Ann. Math. Stat. 26, 1955).  Every density handed to the
stripe functional is a short sum of exponentials in ln y, so its norm,
its window mass and the functional itself are sums of integrals of
exponentials, taken exactly.  No subcommand loads scipy.integrate; only
the tests do, as the oracle of these closed forms.

The pushforward mixture is summed into one array, whose cuts split the
agents x grid matrix into column blocks for lanes (`ginisim.lanes`), one
per usable CPU, to fill; each column's sum stays within one block, so no
byte depends on the lane count.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import special as sp

from . import lanes, streams
from .bounds import BoundParams
from .dynamics import PopulationState, simulate
from .kernels import (
    LOGNORMAL,
    KernelSpec,
    NoDensityError,
    high_probability_mass,
    log_density,
    log_derivative_probe,
    transition_from_uniforms,
    unit_mean_noise,
)
from .metrics import tail_probability

# Fixed tolerances and sizes of the checks; the report prints the ones a
# reader needs to interpret its numbers.
_DIAG_SLACK_TOL = 1e-6     # diagonal slack tolerance, printed as quad_tol
_TARGET_MASS = 0.99        # calibration quantile of the probe magnitudes
_CALIBRATION_SAMPLES = 20000
_SLACK_CONSTANT = 5.0      # minimality threshold Y[h] * (1 - 5*delta)
_CORE_MASS = 0.99          # pushforward core: conditional mass per agent
_MIXTURE_BLOCK = 2**15     # agents x grid elements per mixture block: 256 KiB


class NonNormalizedError(ValueError):
    """Raised when a density handed to the functional does not integrate to 1."""


class CoarseGridError(ValueError):
    """Raised when a grid is too coarse to trust the derivative taken on it."""


# --- restricted pair integral -------------------------------------------


def pair_split_integral(kernel: KernelSpec, x, y):
    """F(x, y) = E[(Y' - X')^+] for independent transitions from x and y.

    Elementwise over broadcast arrays x and y (a float for 0-d inputs).
    The additive transfer cancels from Y' - X' = y*L2 - x*L1, so F does
    not depend on beta.  In closed form, with L = alpha * W:

    * lognormal, log W ~ N(-s^2/2, s^2) (Margrabe):
      F = alpha * [y*Phi(d1) - x*Phi(d1 - sigma)], sigma = s*sqrt(2),
      d1 = (ln(y/x) + sigma^2/2) / sigma;
    * gamma, W ~ Gamma(k, 1/k) (Lukacs):
      F = alpha * [(x + y)*I_c(k, k+1) - 2x*I_c(k, k)], c = y/(x + y),
      I the regularized incomplete beta function.
    """
    if not kernel.has_density:
        raise NoDensityError("deterministic kernel has no density; F undefined")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    if not (np.all(x > 0.0) and np.all(y > 0.0)):
        raise ValueError("pair integral requires x, y > 0")
    if kernel.family == LOGNORMAL:
        sigma = kernel.lognormal_params()[1] * math.sqrt(2.0)
        with np.errstate(over="ignore", divide="ignore"):  # y/x past the float range: +-inf
            log_ratio = np.log(y / x)
        d1 = (log_ratio + 0.5 * sigma * sigma) / sigma
        gap = y * sp.ndtr(d1) - x * sp.ndtr(d1 - sigma)
    else:
        k = kernel.gamma_params()[0]
        total = x + y
        c = y / total
        gap = total * sp.betainc(k, k + 1.0, c) - 2.0 * x * sp.betainc(k, k, c)
    f = kernel.alpha * gap
    return float(f) if f.ndim == 0 else f


# --- diagonal bound and calibration -------------------------------------


def diagonal_bound_check(kernel: KernelSpec, x_grid, gamma_claimed: float) -> dict:
    """Check F(x,x) >= Gamma*(alpha*x+beta)/2 and >= Gamma*x/2 on a grid.

    ``gamma_claimed`` is the inverse log-derivative constant the kernel
    claims; calibrate it first (see calibrate_log_derivative_bound) if
    you have no external claim.  Returns the ``diagonal_bound`` section:
    F(x,x) and both slacks per grid point, which pass down to -quad_tol.
    """
    section = {"gamma_claimed": gamma_claimed, "quad_tol": _DIAG_SLACK_TOL}
    ok = True
    xs = np.asarray(x_grid, dtype=np.float64)
    for x, f in zip(xs.tolist(), pair_split_integral(kernel, xs, xs).tolist()):
        slack_mean_scaled = f - gamma_claimed * (kernel.alpha * x + kernel.beta) / 2.0
        slack_x = f - gamma_claimed * x / 2.0
        section[f"f_diag[x={x:g}]"] = f
        section[f"slack_mean_scaled[x={x:g}]"] = slack_mean_scaled
        section[f"slack_x[x={x:g}]"] = slack_x
        ok = ok and slack_mean_scaled >= -_DIAG_SLACK_TOL and slack_x >= -_DIAG_SLACK_TOL
    section["pass"] = ok
    return section


def calibrate_log_derivative_bound(kernel: KernelSpec, x: float, master_seed: int) -> dict:
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
        probe = log_derivative_probe(kernel, x, xp, which)
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


def _expm1(z: complex) -> complex:
    """e^z - 1 without cancellation near z = 0."""
    em = math.expm1(z.real)
    return complex(em * math.cos(z.imag) - 2.0 * math.sin(0.5 * z.imag) ** 2,
                   (em + 1.0) * math.sin(z.imag))


def _value(terms, t: float) -> float:
    """sum b*e^(kappa*t) over the (b, kappa) terms, which sum to a real value."""
    return sum(b * cmath.exp(kappa * t) for b, kappa in terms).real


def _integral(terms, t0: float, t1: float) -> float:
    """int_t0^t1 sum b*e^(kappa*t) dt, each term as e^(kappa*t0)*expm1(kappa*(t1-t0))/kappa."""
    total = 0j
    for b, kappa in terms:
        if kappa == 0:
            total += b * (t1 - t0)
        else:
            total += b * cmath.exp(kappa * t0) * _expm1(kappa * (t1 - t0)) / kappa
    return total.real


class DensityOnRay:
    """Probability density on (a, upper), a short sum of exponentials in ln y.

    ``terms`` are (b, beta) pairs, beta nonzero: t = ln(y/a) has density
    q(t) = sum b*e^(beta*t), real because complex terms come in conjugate
    pairs, and y has density q(ln(y/a))/y.  ``upper`` truncates the
    norm and the functional's outer integral; pick it so the neglected
    tail mass is ~1e-10.
    """

    def __init__(self, a: float, terms, upper: float, label: str = "density"):
        if not a > 0.0:
            raise ValueError("lower endpoint a must be positive")
        if not upper > a:
            raise ValueError("upper truncation must exceed a")
        self.a = float(a)
        self.terms = tuple((complex(b), complex(beta)) for b, beta in terms)
        if any(beta == 0 for _, beta in self.terms):
            raise ValueError("every rate beta must be nonzero")
        self.upper = float(upper)
        self.label = label

    @classmethod
    def extremal(cls, a: float) -> "DensityOnRay":
        """The minimizer h(y) = a/y^2, q(t) = e^-t; tail mass beyond upper is a/upper."""
        return cls(a, [(1.0, -1.0)], a * 1e10, label="extremal")

    def pdf(self, y: float) -> float:
        if y < self.a:
            return 0.0
        return _value(self.terms, math.log(y / self.a)) / y

    def validate(self) -> float:
        """Normalization check over (a, upper); returns the norm."""
        norm = _integral(self.terms, 0.0, math.log(self.upper / self.a))
        if abs(norm - 1.0) > 1e-6:
            raise NonNormalizedError(
                f"{self.label}: integrates to {norm!r} over (a, upper), not 1"
            )
        return norm


def extremal_closed_form(a: float, delta: float) -> float:
    """Cutoff-ignored value of the functional on h(y) = a/y^2."""
    return a * (math.exp(delta) - math.exp(-delta))


def _window_terms(p: DensityOnRay, delta: float) -> list:
    """W(t) = sum 2b*sinh(beta*delta)/beta * e^(beta*t): the mass of p over
    (t - delta, t + delta) in t = ln(y/a), wherever the window is not clipped."""
    return [(2.0 * b * cmath.sinh(beta * delta) / beta, beta) for b, beta in p.terms]


def stripe_window(p: DensityOnRay, x: float, delta: float) -> float:
    """Mass of p over the window (x*e^-delta, x*e^delta)."""
    t = math.log(x / p.a)
    if t < delta:
        return _integral(p.terms, 0.0, max(t + delta, 0.0))
    return _value(_window_terms(p, delta), t)


def stripe_pair_functional(p: DensityOnRay, delta: float,
                           clip_lower: bool = True) -> float:
    """int_a^upper x p(x) [window mass of p at x] dx in closed form, a = p.a.

    In t = ln(x/a) this is a * int_0^T e^t q(t) W(t) dt, T = ln(upper/a),
    and the window is never cut at upper.  With ``clip_lower`` the window
    stops at a while t < delta, where W(t) = sum b*(e^(beta*delta)*e^(beta*t)
    - 1)/beta; above, and everywhere with ``clip_lower=False`` (the
    variant with the exact closed form on the extremal density), W is
    `_window_terms`.  Either way the integrand is a sum of exponentials.
    ``p`` is taken as normalised: `DensityOnRay.validate` checks that.
    """
    if not 0.0 <= delta < 0.2:
        raise ValueError("delta must be in [0, 0.2)")
    if delta == 0.0:
        return 0.0  # empty inner window for any continuous density

    def times_outer(window):
        return [(b * w, 1.0 + beta + kappa) for b, beta in p.terms for w, kappa in window]

    big_t = math.log(p.upper / p.a)
    kink = min(delta, big_t) if clip_lower else 0.0
    value = _integral(times_outer(_window_terms(p, delta)), kink, big_t)
    if kink > 0.0:
        clipped = [(b * cmath.exp(beta * delta) / beta, beta) for b, beta in p.terms]
        clipped.append((-sum(b / beta for b, beta in p.terms), 0j))
        value += _integral(times_outer(clipped), 0.0, kink)
    return p.a * value


# --- extremal minimality -------------------------------------------------


def truncated_pareto(a: float, c: float) -> DensityOnRay:
    """p(y) = c*a^c / y^(1+c) on (a, inf), q(t) = c*e^(-ct); log-derivative magnitude 1 + c."""
    if not c > 0.0:
        raise ValueError("tail exponent must be positive")
    upper = a * (1e10 ** (1.0 / c))  # 1e-10 tail quantile
    return DensityOnRay(a, [(c, -c)], upper, label=f"pareto_c={c:g}")


def rippled_extremal(a: float, m: float, omega: float) -> DensityOnRay:
    """Extremal shape modulated by a log-periodic ripple, renormalized.

    q(t) = e^-t (1 + m*sin(omega*t)) / norm, with the sine as the
    conjugate pair m/(2i*norm) * e^((-1 +- i*omega)*t).  Log-derivative
    magnitude is at most 2 + m*omega/(1 - m), so trials stay inside any
    generous hypothesis bound for moderate (m, omega).
    """
    if not 0.0 <= m < 1.0:
        raise ValueError("ripple amplitude must be in [0, 1)")
    norm = 1.0 + m * omega / (1.0 + omega * omega)
    ripple = m / (2j * norm)
    terms = [(1.0 / norm, -1.0), (ripple, complex(-1.0, omega)), (-ripple, complex(-1.0, -omega))]
    return DensityOnRay(a, terms, a * 1e10, label=f"ripple_m={m:.3g}_w={omega:.3g}")


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
    derivative-bound factor; each such trial must integrate to 1
    (NonNormalizedError otherwise).  Returns the ``extremal_minimality``
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
        "y_extremal_clipped": stripe_pair_functional(h, delta, clip_lower=True),
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
            p.validate()
            y_val = stripe_pair_functional(p, delta, clip_lower=True)
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
    master_seed: int,
    n_pairs: int = 2000,
) -> dict:
    """Check E[F(x,y)] >= delta*kappa*mu*Gamma*(1-eps)*P^2 on a snapshot.

    Gamma is the calibrated ``params.gamma_inv_logderiv`` and the stripe
    slack is derived from it, eps = min(delta/Gamma, 0.999).  Pairs are
    sampled with replacement from the ensemble, and F is evaluated on all
    of them at once; pairs with a zero-wealth member are excluded and
    counted.  Returns the ``ensemble_gap`` section: it passes when the
    sampled mean clears the bound by more than 3 standard errors, and its
    sample statistics are nan when fewer than max(16, n_pairs/2) pairs
    remain (hypotheses not met).  Raises NoDensityError for a kernel
    without a transition density.
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

    xs, ys = wealth[ii], wealth[jj]
    kept = (xs > 0.0) & (ys > 0.0)
    values = pair_split_integral(kernel, xs[kept], ys[kept])
    excluded = n_pairs - values.size
    lhs = se = margin = math.nan
    if values.size >= max(16, n_pairs // 2):
        lhs = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(values.size))
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
    """log of mean_i f(g | sources_i) per grid point, cut into even column blocks for lanes.

    The lanes' blocks together hold about `_MIXTURE_BLOCK` agents x grid
    elements, and each at least 4 columns (one would sum its agents pairwise,
    with other rounding), so up to M = 8192 agents the working set is fixed by
    that budget, whatever M x G and the lane count.
    """
    m_agents, out = sources.size, np.empty_like(grid)
    n_lanes = lanes.count(m_agents * grid.size // _MIXTURE_BLOCK)
    n_blocks = min(grid.size // 4, -(-m_agents * grid.size * n_lanes // _MIXTURE_BLOCK))

    def fill(lo: int, hi: int) -> None:
        lp = log_density(kernel, sources[:, None], grid[None, lo:hi])
        out[lo:hi] = sp.logsumexp(lp, axis=0) - math.log(m_agents)
    cuts = [0, *np.cumsum([block.size for block in np.array_split(grid, n_blocks)])]
    return lanes.Lanes(out, cuts, fill, n_lanes).take()


def pushforward_log_derivative_check(
    pop_prev: PopulationState,
    kernel: KernelSpec,
    x_grid,
    bound: float,
) -> dict:
    """Bound the log-derivative of the next-step population density.

    Forms p(x) = mean_i f(x | wealth_i) on the grid, differentiates
    log p against log x, and checks the magnitude against ``bound``
    on the union of per-agent core windows: agent i
    contributes the interval beta + wealth_i * [q_lo, q_hi] where
    q_lo, q_hi are the growth-ratio quantiles enclosing 99% of its
    conditional mass.  The union therefore carries at least 99% of the
    pushforward, and on it the mixture
    log-derivative is a weighted average of component log-derivatives
    that are individually controlled.  Low-density valleys between
    separated components are excluded by construction.  Returns the
    ``pushforward`` section, whose ``claimed_bound`` is ``bound``.
    Raises CoarseGridError if the grid is too coarse to trust the
    derivative (stride-2 estimate must agree within 10%).
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
        raise CoarseGridError(
            f"grid too coarse: stride-2 derivative disagrees by {rough:.2%}; "
            "double the grid resolution"
        )
    max_abs = float(np.max(np.abs(d[core])))
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
    config; the pushforward's 220-point log grid has its spacing halved, up
    to twice, while it is too coarse to trust (at gamma seeds 215 and 560 of
    the shipped config, one halving).  Raises NoDensityError for a kernel
    without a transition density.
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
            value = stripe_pair_functional(DensityOnRay.extremal(a), d, clip_lower=False)
            closed = extremal_closed_form(a, d)
            rel = abs(value - closed) / closed
            max_rel = max(max_rel, rel)
            stripe[f"rel_err[a={a:g},delta={d:g}]"] = rel
    stripe["max_rel_err"] = max_rel
    stripe["pass"] = max_rel <= 1e-9
    sections.append(("stripe_functional", stripe))

    trials = random_trial_densities(1.0, config.n_trials, seed)
    sections.append(("extremal_minimality",
                     extremal_minimality_check(a=1.0, delta=0.01, trial_densities=trials)))

    for pop in simulate(config.build_initial(), kernel, config.build_policy(),
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
    claimed = cal["delta_logxp"]
    for n_grid in (220, 439, 877):
        try:
            pushforward = pushforward_log_derivative_check(
                sub, kernel, np.geomspace(lo, hi, n_grid), bound=claimed + 0.1 * claimed)
            break
        except CoarseGridError:
            if n_grid == 877:
                raise
    sections.append(("pushforward", pushforward))

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
