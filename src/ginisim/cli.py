"""Command line entry point.

Subcommands:

* ``simulate``: run a configured trajectory, stream per-step metrics and
  inequality rows to CSV, optionally dump the final population.
* ``verify-bounds``: fold the rows of a config's run into gates on the
  theorem-backed inequalities (CV recursion, Gini growth, saturation
  chain) with their sampling tolerances; exit 1 on any hard violation.
  The report is `experiments.verify_bounds`.
* ``verify-integrals``: calibrate the kernel's log-derivative constants
  and check the whole pair-integral bound chain by quadrature.  The
  report is `verification.verify_integrals`.
* ``search-threshold``: bisect the minimal stabilizing salary fraction.
* ``gini``: Gini and CV of a newline-separated wealth file.

Exit codes: 0 success / all satisfied, 1 runtime or verification
failure, 2 usage or configuration error.  All CSV floats are written
with 17 significant digits (exact round trip); human-facing prints use
12.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import metrics
from .config import ConfigError, parse_config
from .dynamics import run
from .experiments import (
    AmbiguousProbeError,
    BracketError,
    find_min_stabilizing_salary_fraction,
    verify_bounds,
)
from .verification import (
    NoDensityError,
    QuadratureError,
    format_report,
    verify_integrals,
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
    rows = run(config)
    try:
        # open (and truncate) --out only once the run has a row, so a run
        # that fails before step 0 leaves an existing file as it was
        pop, snap, records, _ = next(rows)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(_header(sorted(snap.tail_probs), [r.name for r in records]) + "\n")
            fh.write(_row(snap, records) + "\n")
            for pop, snap, records, _ in rows:
                fh.write(_row(snap, records) + "\n")
    except ValueError as exc:  # run names the step; partial rows stay on disk
        print(exc, file=sys.stderr)
        return 1
    if config.final_population_out:
        with open(config.final_population_out, "w", encoding="utf-8") as fh:
            # one write per chunk: a single join of all N lines costs ~100 B
            # per agent of peak memory
            for i in range(0, pop.n, 8192):
                chunk = pop.wealth[i:i + 8192].tolist()
                fh.write(("%.17g\n" * len(chunk)) % tuple(chunk))
    print(f"final t={snap.t} mu={_f12(snap.mu)} cv={_f12(snap.cv)} gini={_f12(snap.gini)}")
    print(f"trajectory written to {out_path}")
    return 0


# --- verify-bounds / verify-integrals -------------------------------------


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _print_report(sections, out_path) -> None:
    report = format_report(sections)
    if out_path:
        _write(out_path, report)
    print(report)


def cmd_verify_bounds(args) -> int:
    config = parse_config(args.config).with_overrides(args.seed, None)
    sections, failures = verify_bounds(config, run(config))
    _print_report(sections, args.out)
    if failures:
        print("FAILURES:", file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        return 1
    return 0


def cmd_verify_integrals(args) -> int:
    config = parse_config(args.config).with_overrides(args.seed, None)
    try:
        sections = verify_integrals(config)
    except NoDensityError as exc:
        print(f"hypotheses not met: {exc}", file=sys.stderr)
        if args.out:
            _write(args.out, format_report([("overall", {"pass": False,
                                                         "reason": "hypotheses not met"})]))
        return 1
    _print_report(sections, args.out)
    if not sections[-1][1]["pass"]:
        failing = [name for name, fields in sections[:-1]
                   if not fields.get("pass", True)]
        print("failed checks: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


# --- search-threshold -----------------------------------------------------


def cmd_search_threshold(args) -> int:
    config = parse_config(args.config).with_overrides(args.seed, None)
    result = find_min_stabilizing_salary_fraction(config)
    lines = ["scenario,c,final_gini,final_cv,verdict"]
    for p in result.probes:
        lines.append(f"probe_c={p.c:.6g},{_f17(p.c)},{_f17(p.final_gini)},"
                     f"{_f17(p.final_cv)},{p.verdict}")
    lines.append(f"threshold,{_f17(result.c_star)},,,stabilized")
    csv = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, csv)
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
                    value = float(text)
                except ValueError:
                    print(f"{args.input}:{lineno}: not a number: {text!r}",
                          file=sys.stderr)
                    return 2
                if not 0.0 <= value < math.inf:
                    print(f"{args.input}:{lineno}: wealth must be finite and "
                          f"nonnegative: {text!r}", file=sys.stderr)
                    return 2
                values.append(value)
    except FileNotFoundError:
        print(f"input file not found: {args.input}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{args.input}: cannot read: {exc}", file=sys.stderr)
        return 2
    if len(values) < 2 or not any(values):
        print(f"{args.input}: need at least 2 values with a positive total, "
              f"got {len(values)} summing to {sum(values):g}", file=sys.stderr)
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

    for name, func, help_text in (
        ("simulate", cmd_simulate, "run a trajectory to CSV"),
        ("verify-bounds", cmd_verify_bounds, "gate the trajectory inequalities"),
        ("verify-integrals", cmd_verify_integrals,
         "check the pair-integral bound chain by quadrature"),
        ("search-threshold", cmd_search_threshold,
         "bisect the minimal stabilizing salary fraction"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; every run is single-threaded. "
                            "Kept while perfbench/run.py passes it")
        p.add_argument("--out", help="output path")
        p.set_defaults(func=func)

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
    except (BracketError, AmbiguousProbeError, QuadratureError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
