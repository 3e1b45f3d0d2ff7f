"""Command line entry point.

Subcommands:

* ``simulate``: run a configured trajectory, stream per-step metrics and
  inequality rows to CSV, optionally dump the final population.
* ``verify-bounds``: rerun a config and gate the theorem-backed
  inequalities (CV recursion, Gini growth, saturation chain) with their
  sampling tolerances; exit 1 on any hard violation.
* ``verify-integrals``: calibrate the kernel's log-derivative constants
  and check the whole pair-integral bound chain by quadrature.
* ``search-threshold``: bisect the minimal stabilizing salary fraction.
* ``gini``: Gini and CV of a newline-separated wealth file.

Exit codes: 0 success / all satisfied, 1 runtime or verification
failure, 2 usage or configuration error.  All CSV floats are written
with 17 significant digits (exact round trip); human-facing prints use
12.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import metrics
from .bounds import BoundParams, redistribution_variability_lower_bound
from .config import ConfigError, parse_config
from .dynamics import PopulationState, run, trajectory
from .experiments import (
    AmbiguousProbeError,
    BracketError,
    MonotonicityError,
    find_min_stabilizing_salary_fraction,
)
from .kernels import high_probability_mass
from .verification import (
    QuadratureError,
    calibrate_log_derivative_bound,
    diagonal_bound_check,
    ensemble_gap_bound_check,
    extremal_closed_form,
    extremal_minimality_check,
    format_report,
    pushforward_log_derivative_check,
    stripe_pair_functional,
    DensityOnRay,
)


def _f17(value: float) -> str:
    return "%.17g" % value


def _f12(value: float) -> str:
    return "%.12g" % value


def _flag(satisfied) -> str:
    if satisfied is None:
        return "nan"
    return "true" if satisfied else "false"


# --- simulate -------------------------------------------------------------


def _header(kappas, record_names) -> str:
    cols = ["t", "mu", "sigma", "cv", "gini"]
    cols += [f"tail_p_{k:g}" for k in kappas]
    for name in record_names:
        cols += [f"{name}_lhs", f"{name}_rhs", f"{name}_satisfied"]
    return ",".join(cols)


def _row(snap, records) -> str:
    kappas = sorted(snap.tail_probs)
    cells = [str(snap.t), _f17(snap.mu), _f17(snap.sigma), _f17(snap.cv),
             _f17(snap.gini)]
    cells += [_f17(snap.tail_probs[k]) for k in kappas]
    for rec in records:
        cells += [_f17(rec.lhs), _f17(rec.rhs), _flag(rec.satisfied)]
    return ",".join(cells)


def cmd_simulate(args) -> int:
    config = parse_config(args.config).with_overrides(args.seed, args.out)
    out_path = config.trajectory_out or "trajectory.csv"
    final_pop = None
    last_snap = None
    wrote_header = False
    with open(out_path, "w", encoding="utf-8") as fh:
        try:
            for pop, snap, records, _ in run(config):
                if not wrote_header:
                    fh.write(_header(sorted(snap.tail_probs),
                                     [r.name for r in records]) + "\n")
                    wrote_header = True
                fh.write(_row(snap, records) + "\n")
                final_pop, last_snap = pop, snap
        except Exception as exc:  # partial rows stay flushed on disk
            fh.flush()
            print(f"simulation aborted at step "
                  f"{last_snap.t + 1 if last_snap else 0}: {exc}", file=sys.stderr)
            return 1
    if config.final_population_out and final_pop is not None:
        with open(config.final_population_out, "w", encoding="utf-8") as fh:
            for value in final_pop.wealth:
                fh.write(_f17(value) + "\n")
    if last_snap is not None:
        print(f"final t={last_snap.t} mu={_f12(last_snap.mu)} "
              f"cv={_f12(last_snap.cv)} gini={_f12(last_snap.gini)}")
    print(f"trajectory written to {out_path}")
    return 0


# --- verify-bounds --------------------------------------------------------


def cmd_verify_bounds(args) -> int:
    config = parse_config(args.config).with_overrides(args.seed, None)
    params = config.bound_params()
    kernel = config.kernel
    gamma_inv = params.gamma_inv_logderiv

    # Leak of the log-derivative hypotheses, measured once on the initial
    # mean scale; multiplicative kernels have wealth-independent probe laws
    # at beta = 0 and nearly so in the regimes we run.  Without a density
    # the hypotheses hold nowhere: leak 1 concedes the whole grow term.
    leak = 1.0
    if kernel.has_density and gamma_inv > 0.0:
        mass = high_probability_mass(kernel, 1.0, 1.0 / gamma_inv,
                                     which="output", n_samples=4000)
        leak = mass.mass_beyond + mass.excluded

    checked = {"cv_growth": 0, "gini_growth": 0, "saturation": 0}
    raw_violations = {"cv_growth": 0, "gini_growth": 0, "saturation": 0}
    beyond_tolerance = {"cv_growth": 0, "gini_growth": 0}
    step_failures: list[str] = []
    saturation_failures: list[str] = []
    worst_se_ratio = 0.0

    prev_pop = prev_snap = prev_ab = None
    info_satisfied: dict[str, int] = {}
    info_total: dict[str, int] = {}

    for pop, snap, records, now_ab in run(config):
        by_name = {r.name: r for r in records}
        for rec in records:
            if rec.name.startswith("saturation_"):
                checked["saturation"] += 1
                if rec.slack < -1e-12:  # distribution-level theorem: exact
                    raw_violations["saturation"] += 1
                    saturation_failures.append(
                        f"t={snap.t} {rec.name}: gini {rec.lhs!r} < bound {rec.rhs!r}"
                    )
            elif rec.name in ("cv_halting", "min_salary", "gini_tail"):
                info_total[rec.name] = info_total.get(rec.name, 0) + 1
                if rec.satisfied:
                    info_satisfied[rec.name] = info_satisfied.get(rec.name, 0) + 1

        if prev_snap is not None:
            a_prev, b_prev = prev_ab

            rec = by_name["cv_growth"]
            checked["cv_growth"] += 1
            if rec.satisfied is False:
                raw_violations["cv_growth"] += 1
                se = metrics.cv_recursion_delta_se(
                    prev_pop.wealth, pop.wealth, a_prev, b_prev, kernel.gamma_disp)
                gap = rec.rhs - rec.lhs
                ratio = gap / se if se > 0.0 else math.inf
                worst_se_ratio = max(worst_se_ratio, ratio)
                # 1e-12 absorbs float roundoff when the recursion is exact
                if gap > 5.0 * se + 1e-12:
                    beyond_tolerance["cv_growth"] += 1
                    step_failures.append(
                        f"t={snap.t} cv_growth: deficit {gap:.3e} exceeds 5 SE ({se:.3e})"
                    )

            rec = by_name["gini_growth"]
            checked["gini_growth"] += 1
            if rec.satisfied is False:
                raw_violations["gini_growth"] += 1
                if_prev = metrics.gini_influence(prev_pop.wealth)
                if_next = metrics.gini_influence(pop.wealth)
                se = float((if_next - if_prev).std(ddof=1) / np.sqrt(pop.n))
                p_prev = prev_snap.tail_probs.get(params.kappa, 0.0)
                grow_term = redistribution_variability_lower_bound(
                    params, prev_snap.mu, p_prev)
                # 1e-12 absorbs float roundoff when the bound is exact
                allowance = 5.0 * se + leak * grow_term / snap.mu + 1e-12
                gap = rec.rhs - rec.lhs
                if gap > allowance:
                    beyond_tolerance["gini_growth"] += 1
                    step_failures.append(
                        f"t={snap.t} gini_growth: deficit {gap:.3e} exceeds "
                        f"tolerance {allowance:.3e}"
                    )
        prev_pop, prev_snap, prev_ab = pop, snap, now_ab

    # Both growth recursions hold in expectation, so empirical dips are
    # sampling noise; a dip only counts when it clears its per-step SE
    # allowance, and a family only fails when more than 1% of its steps
    # do (at extreme concentration a handful of agents carry the whole
    # statistic and per-step SEs understate the realized spread).  The
    # saturation chain is a distribution-level theorem: exact, no budget.
    budget = {name: 0.01 * checked[name] for name in beyond_tolerance}
    family_failed = {name: beyond_tolerance[name] > budget[name]
                     for name in beyond_tolerance}

    sections = [
        ("hypothesis_leak", {
            "inverse_logderiv_constant": gamma_inv,
            "mass_outside_bound": leak,
        }),
        ("cv_growth", {
            "checked": checked["cv_growth"],
            "raw_violations": raw_violations["cv_growth"],
            "beyond_tolerance": beyond_tolerance["cv_growth"],
            "worst_violation_se": worst_se_ratio,
            "pass": not family_failed["cv_growth"],
        }),
        ("gini_growth", {
            "checked": checked["gini_growth"],
            "raw_violations": raw_violations["gini_growth"],
            "beyond_tolerance": beyond_tolerance["gini_growth"],
            "pass": not family_failed["gini_growth"],
        }),
        ("saturation", {
            "checked": checked["saturation"],
            "violations": raw_violations["saturation"],
            "pass": raw_violations["saturation"] == 0,
        }),
    ]
    for name in sorted(info_total):
        sections.append((name, {
            "satisfied_steps": info_satisfied.get(name, 0),
            "total_steps": info_total[name],
            "note": "regime indicator, not gated",
        }))
    report = format_report(sections)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    print(report)

    failures = list(saturation_failures)
    for name, failed in family_failed.items():
        if failed:
            failures.append(
                f"{name}: {beyond_tolerance[name]} of {checked[name]} steps "
                f"beyond tolerance (budget {budget[name]:.1f})"
            )
    if failures:
        print("FAILURES:", file=sys.stderr)
        for line in failures[:20]:
            print("  " + line, file=sys.stderr)
        for line in step_failures[:20]:
            print("  " + line, file=sys.stderr)
        return 1
    return 0


# --- verify-integrals -----------------------------------------------------


def cmd_verify_integrals(args) -> int:
    config = parse_config(args.config).with_overrides(args.seed, None)
    kernel = config.kernel
    if not kernel.has_density:
        print("hypotheses not met: deterministic kernel has no transition density",
              file=sys.stderr)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(format_report([("overall", {"pass": False,
                                                     "reason": "hypotheses not met"})]))
        return 1

    passes: list[bool] = []
    sections: list[tuple[str, dict]] = []

    cal = calibrate_log_derivative_bound(kernel, x=1.0, master_seed=config.master_seed)
    sections.append(("calibration", {
        "target_mass": cal.target_mass,
        "delta_logx": cal.delta_logx,
        "delta_logxp": cal.delta_logxp,
        "gamma_inv": cal.gamma_inv,
        "mass_within_logx": cal.mass_within_logx,
        "mass_within_logxp": cal.mass_within_logxp,
    }))

    diag = diagonal_bound_check(kernel, config.x_diagonal, cal.gamma_inv)
    fields = {"gamma_claimed": diag.gamma_claimed, "quad_tol": diag.quad_tol}
    for rec in diag.records:
        fields[f"f_diag[x={rec.x:g}]"] = rec.f_diag
        fields[f"slack_mean_scaled[x={rec.x:g}]"] = rec.slack_vs_mean_scaled
        fields[f"slack_x[x={rec.x:g}]"] = rec.slack_vs_x
    fields["pass"] = diag.satisfied
    sections.append(("diagonal_bound", fields))
    passes.append(diag.satisfied)

    max_rel = 0.0
    fields = {}
    for a in config.a_values:
        for d in config.delta_values:
            quad_val = stripe_pair_functional(DensityOnRay.extremal(a), a, d,
                                              clip_lower=False, check_norm=False)
            closed = extremal_closed_form(a, d)
            rel = abs(quad_val - closed) / closed
            max_rel = max(max_rel, rel)
            fields[f"rel_err[a={a:g},delta={d:g}]"] = rel
    fields["max_rel_err"] = max_rel
    fields["pass"] = max_rel <= 1e-9
    sections.append(("stripe_functional", fields))
    passes.append(max_rel <= 1e-9)

    mini = extremal_minimality_check(a=1.0, delta=0.01, n_trials=config.n_trials,
                                     master_seed=config.master_seed)
    fields = {
        "a": mini.a, "delta": mini.delta,
        "slack_constant": mini.slack_constant,
        "y_extremal_closed_form": mini.y_extremal_closed_form,
        "y_extremal_clipped": mini.y_extremal_clipped,
        "n_trials": len(mini.trials),
        "n_excluded": mini.n_excluded,
    }
    for trial in mini.trials:
        status = "excluded" if trial.excluded else ("ok" if trial.passed else "FAIL")
        fields[f"trial[{trial.label}]"] = (
            f"y={trial.y_value:.9g} ratio={trial.ratio_to_extremal:.6g} {status}"
        )
    fields["pass"] = mini.all_passed
    sections.append(("extremal_minimality", fields))
    passes.append(mini.all_passed)

    pop = None
    for pop, _ in trajectory(dataclasses.replace(config, steps=config.snapshot_step)):
        pass
    eps = config.delta_stripe / cal.gamma_inv
    gap_params = BoundParams(
        kappa=config.kappa, delta_stripe=config.delta_stripe,
        epsilon=min(eps, 0.999), gamma_inv_logderiv=cal.gamma_inv,
    )
    gap = ensemble_gap_bound_check(pop, kernel, gap_params,
                                   n_pairs=config.n_pairs,
                                   master_seed=config.master_seed)
    gap_ok = gap.hypotheses_met and gap.margin_se > 3.0
    sections.append(("ensemble_gap", {
        "snapshot_step": config.snapshot_step,
        "n_pairs": gap.n_pairs, "n_excluded": gap.n_excluded,
        "lhs_mean": gap.lhs_mean, "standard_error": gap.standard_error,
        "rhs_bound": gap.rhs_bound, "margin_se": gap.margin_se,
        "epsilon": gap.epsilon,
        "pass": gap_ok,
    }))
    passes.append(gap_ok)

    sub = PopulationState(pop.wealth[:2048], pop.t)
    lo_q, hi_q = float(np.quantile(sub.wealth, 0.02)), float(np.quantile(sub.wealth, 0.98))
    lo = kernel.beta + 0.8 * max(kernel.alpha * lo_q - kernel.beta, 1e-9)
    hi = kernel.beta + 1.3 * (kernel.alpha * hi_q - kernel.beta)
    grid = np.geomspace(lo, hi, 220)
    push = pushforward_log_derivative_check(
        sub, kernel, grid, claimed_bound=cal.delta_logxp,
        tol=0.1 * cal.delta_logxp)
    sections.append(("pushforward", {
        "max_abs_logderiv_core": push.max_abs_logderiv_core,
        "claimed_bound": push.claimed_bound,
        "core_mass": push.core_mass,
        "pass": push.satisfied,
    }))
    passes.append(push.satisfied)

    overall = all(passes)
    sections.append(("overall", {"pass": overall}))
    report = format_report(sections)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    print(report)
    if not overall:
        failing = [name for (name, fields), ok in
                   zip(sections[1:-1], passes) if not ok]
        print("failed checks: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


# --- search-threshold -----------------------------------------------------


def cmd_search_threshold(args) -> int:
    config = parse_config(args.config).with_overrides(args.seed, None)
    if config.search is None:
        raise ConfigError("search: section required for search-threshold")
    spec = config.search
    result = find_min_stabilizing_salary_fraction(
        config, spec.c_lo, spec.c_hi, spec.tol, spec.horizon)
    lines = ["scenario,c,final_gini,final_cv,verdict"]
    for p in result.probes:
        lines.append(f"probe_c={p.c:.6g},{_f17(p.c)},{_f17(p.final_gini)},"
                     f"{_f17(p.final_cv)},{p.verdict}")
    lines.append(f"threshold,{_f17(result.c_star)},,,stabilized")
    csv = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        print(csv, end="")
    print(f"c_star {_f12(result.c_star)}")
    print(f"plateau_cv {_f12(result.plateau_cv)}")
    print(f"reference_scale {_f12(result.reference_scale)}")
    print(f"ratio_to_scale {_f12(result.ratio_to_scale)}")
    return 0


# --- gini -----------------------------------------------------------------


def cmd_gini(args) -> int:
    values = []
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    print(f"{args.input}:{lineno}: not a number: {text!r}",
                          file=sys.stderr)
                    return 2
    except FileNotFoundError:
        print(f"input file not found: {args.input}", file=sys.stderr)
        return 2
    g = metrics.gini(values)
    cv = metrics.coefficient_of_variation(values)
    print(f"gini {_f12(g)}")
    print(f"cv {_f12(cv)}")
    return 0


# --- parser / dispatch ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginisim",
        description="wealth-concentration simulator and inequality verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out_default=None):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; every run is single-threaded")
        p.add_argument("--out", default=needs_out_default, help="output path")

    p = sub.add_parser("simulate", help="run a trajectory to CSV")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-bounds", help="gate the trajectory inequalities")
    add_common(p)
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("verify-integrals",
                       help="check the pair-integral bound chain by quadrature")
    add_common(p)
    p.set_defaults(func=cmd_verify_integrals)

    p = sub.add_parser("search-threshold",
                       help="bisect the minimal stabilizing salary fraction")
    add_common(p)
    p.set_defaults(func=cmd_search_threshold)

    p = sub.add_parser("gini", help="Gini and CV of a wealth file")
    p.add_argument("--input", required=True, help="one wealth value per line")
    p.set_defaults(func=cmd_gini)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, AmbiguousProbeError, MonotonicityError,
            QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
