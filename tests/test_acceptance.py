"""Acceptance gate: one printed PASS/FAIL line per shipped claim.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Each test asserts exactly what its line reports, so
the suite is red if and only if some line says FAIL.  Numeric pins are
seed-locked regression values produced by this code base; loosening them
requires regenerating the pins, not widening tolerances.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ginisim import cli
from ginisim.bounds import (adaptation_substitution, cv_halting_condition,
                            general_cv_condition)
from ginisim.config import parse_config
from ginisim.dynamics import run
from ginisim.experiments import STABILIZED, classify_trajectory, \
    find_min_stabilizing_salary_fraction, verify_bounds
from ginisim.kernels import GAMMA, KernelSpec
from ginisim.metrics import gini, gini_pairwise_oracle
from ginisim.verification import (calibrate_log_derivative_bound,
                                  diagonal_bound_check, extremal_minimality_check,
                                  truncated_pareto, verify_integrals)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

WINDOW = 250


def check(num: int, name: str, ok: bool, detail: str = "") -> bool:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


@dataclasses.dataclass
class ScenarioBundle:
    snaps: list
    window_means: list
    min_saturation_slack: float
    halting_flags: list
    min_salary_flags: list
    bounds: dict | None  # verify-bounds sections by name, when gated


def collect_scenario_bundle(config_name: str, gate: bool = False) -> ScenarioBundle:
    """Single pass over a shipped scenario collecting what claims 02-05 and 07 gate.

    With ``gate`` the same rows are folded by `verify_bounds` on their
    way through, so its sections cost no second simulation.
    """
    config = parse_config(str(CONFIGS / config_name))
    snaps, halting, min_salary, slacks = [], [], [], []

    def recorded_rows():
        for row in run(config):
            _, snap, records, _ = row
            by_name = {r.name: r for r in records}
            snaps.append(snap)
            halting.append(bool(by_name["cv_halting"].satisfied))
            min_salary.append(bool(by_name["min_salary"].satisfied))
            slacks.extend(by_name[f"saturation_{kappa:g}"].slack for kappa in (0.1, 0.25))
            yield row

    bounds = None
    if gate:
        sections, _ = verify_bounds(config, recorded_rows())
        bounds = dict(sections)
    else:
        for _ in recorded_rows():
            pass

    series = [s.gini for s in snaps]
    n_windows = (len(series) - 1) // WINDOW
    means = [float(np.mean(series[1 + i * WINDOW:1 + (i + 1) * WINDOW]))
             for i in range(n_windows)]
    return ScenarioBundle(snaps, means, min(slacks), halting, min_salary, bounds)


@pytest.fixture(scope="session")
def flagship():
    return collect_scenario_bundle("flagship.yaml", gate=True)


@pytest.fixture(scope="session")
def salaried():
    return collect_scenario_bundle("salaried.yaml")


@pytest.fixture(scope="session")
def proportional():
    return collect_scenario_bundle("proportional.yaml")


@pytest.fixture(scope="session")
def search_result():
    config = parse_config(str(CONFIGS / "threshold_search.yaml"))
    return find_min_stabilizing_salary_fraction(config)


@pytest.fixture(scope="session")
def integrals_config():
    return parse_config(str(CONFIGS / "integrals.yaml"))


@pytest.fixture(scope="session")
def integrals_report(integrals_config):
    """The verify-integrals sections of the lognormal config, by name."""
    return dict(verify_integrals(integrals_config))


def test_01_gini_matches_pairwise_oracle():
    rng = np.random.default_rng(314159)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        x = rng.uniform(0.0, 10.0, size=n)
        if rng.uniform() < 0.1:
            x[int(rng.integers(0, n))] = 0.0
        worst = max(worst, abs(gini(x) - gini_pairwise_oracle(x)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    assert check(1, "gini equals pairwise oracle", ok,
                 f"worst abs diff {worst:.2e} over 1000 vectors, {elapsed:.2f}s")


def test_02_unsalaried_concentration_saturates(flagship):
    final = flagship.snaps[-1].gini
    means = flagship.window_means
    ok = (final > 0.95
          and means[-1] > max(means[:-1])
          and final == pytest.approx(0.999735303507937, rel=1e-11))
    assert check(2, "no-salary run saturates", ok,
                 f"final gini {final:.6f}, window means "
                 + " -> ".join(f"{m:.4f}" for m in means))


def test_03_cv_recursion_lower_bound(flagship):
    # The recursion is an equality in expectation, so finite-N noise dips
    # under it on roughly half the steps; verify-bounds counts a step
    # against the budget only when its dip exceeds 5 delta-method
    # standard errors (metrics.cv_recursion_delta_se).
    b = flagship.bounds["cv_growth"]
    fraction = (b["checked"] - b["beyond_tolerance"]) / b["checked"]
    ok = (fraction >= 0.99 and b["pass"]
          and b["raw_violations"] == 932
          and b["beyond_tolerance"] == 6
          and b["worst_violation_se"] == pytest.approx(8.00490853525948, rel=1e-9))
    assert check(3, "cv recursion lower bound", ok,
                 f"{b['raw_violations']}/{b['checked']} raw dips, "
                 f"{b['beyond_tolerance']} beyond 5 SE (worst "
                 f"{b['worst_violation_se']:.2f}), {fraction:.2%} within tolerance")


def test_04_constant_salary_eventually_fails(salaried):
    flags = salaried.halting_flags
    first_false = flags.index(False) if False in flags else -1
    clean_flip = (flags[0] is True and first_false > 0
                  and not any(flags[first_false:]))
    means = salaried.window_means
    resumed = means[-1] > means[len(means) // 2]
    final = salaried.snaps[-1].gini
    ok = (clean_flip and resumed
          and final == pytest.approx(0.999577417781564, rel=1e-11)
          and [t for t, f in enumerate(salaried.min_salary_flags) if f]
          == [0, 1, 2, 3])
    assert check(4, "constant salary eventually fails", ok,
                 f"halting flag on for t<{first_false}, final gini {final:.6f}")


def test_05_proportional_salary_stabilizes(flagship, proportional):
    config_steps = len(proportional.snaps) - 1
    verdict = classify_trajectory([s.gini for s in proportional.snaps],
                                  window=config_steps // 5)
    final = proportional.snaps[-1].gini
    reduction = flagship.snaps[-1].gini - final
    ok = (verdict == STABILIZED and reduction >= 0.2
          and final == pytest.approx(0.23793840259752677, rel=1e-11))
    assert check(5, "proportional salary stabilizes", ok,
                 f"verdict {verdict}, final gini {final:.4f} "
                 f"({reduction:.3f} below the no-salary run)")


def test_06_threshold_matches_reference_scale(search_result):
    r = search_result
    ok = (r.c_star == pytest.approx(0.014000000000000002, rel=1e-12)
          and 1.0 / 3.0 <= r.ratio_to_scale <= 3.0
          and r.plateau_cv == pytest.approx(1.4310279231002652, rel=1e-9))
    assert check(6, "minimal stabilizing fraction near reference scale", ok,
                 f"c*={r.c_star:.6g}, {r.ratio_to_scale:.3f}x the plateau scale")


def test_07_saturation_chain_zero_tolerance(flagship, salaried, proportional):
    slacks = {
        "flagship": flagship.min_saturation_slack,
        "salaried": salaried.min_saturation_slack,
        "proportional": proportional.min_saturation_slack,
    }
    ok = all(v >= 0.0 for v in slacks.values())
    assert check(7, "saturation chain exact on every snapshot", ok,
                 ", ".join(f"{k} min slack {v:.3g}" for k, v in slacks.items()))


def test_08_general_condition_recovers_linear_policy():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.9, 1.2)
        beta = rng.uniform(0.0, 2.0)
        mu = math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
        cv = math.exp(rng.uniform(math.log(0.01), math.log(10.0)))
        gamma = rng.uniform(0.01, 0.5)
        halt = cv_halting_condition(cv, alpha, beta, mu, gamma)
        moments = adaptation_substitution(alpha, beta, mu, cv)
        general = general_cv_condition(moments.growth_factor, mu, cv,
                                       moments.var_redist,
                                       moments.cov_wealth_redist, gamma)
        scaled = halt.slack * (alpha * mu * cv) ** 2
        rel = abs(general.slack - scaled) / max(abs(general.slack),
                                                abs(scaled), 1e-300)
        worst = max(worst, rel)
    ok = worst <= 1e-10
    assert check(8, "general halting condition recovers linear one", ok,
                 f"worst rel slack difference {worst:.2e} over 1000 tuples")


def test_09_extremal_stripe_functional(integrals_report):
    worst = integrals_report["stripe_functional"]["max_rel_err"]
    paretos = [truncated_pareto(1.0, c) for c in (0.5, 1.0, 1.5, 2.0, 3.0)]
    explicit = extremal_minimality_check(a=1.0, delta=0.01, trial_densities=paretos)
    min_ratio = min(t.ratio_to_extremal for t in explicit.trials)
    ok = (worst <= 1e-9
          and explicit.all_passed and explicit.n_excluded == 0
          and integrals_report["extremal_minimality"]["pass"])
    assert check(9, "extremal density minimizes the stripe functional", ok,
                 f"9-point grid worst rel err {worst:.2e}, "
                 f"pareto trial min ratio {min_ratio:.4f}")


def test_10_diagonal_transfer_bound(integrals_config, integrals_report):
    config = integrals_config
    base = config.kernel
    lognormal = integrals_report["diagonal_bound"]
    min_slack = min(v for k, v in lognormal.items() if k.startswith("slack_x["))
    ok = lognormal["pass"] and min_slack > 1e-6
    details = [f"lognormal min x-slack {min_slack:.3g}"]
    kernel = KernelSpec(GAMMA, alpha=base.alpha, beta=base.beta,
                        gamma_disp=base.gamma_disp)
    cal = calibrate_log_derivative_bound(kernel, x=1.0,
                                         master_seed=config.master_seed)
    diag = diagonal_bound_check(kernel, config.x_diagonal, cal.gamma_inv)
    min_slack = min(r.slack_vs_x for r in diag.records)
    ok = ok and diag.satisfied and min_slack > 1e-6
    details.append(f"gamma min x-slack {min_slack:.3g}")
    assert check(10, "diagonal pair-transfer bound", ok, ", ".join(details))


def test_11_ensemble_gap_bound(integrals_report):
    gap = integrals_report["ensemble_gap"]
    ok = (gap["pass"] and gap["margin_se"] > 3.0
          and gap["margin_se"] == pytest.approx(21.3405183223, rel=1e-9))
    assert check(11, "ensemble pair-transfer gap bound", ok,
                 f"margin {gap['margin_se']:.1f} SE, mean {gap['lhs_mean']:.4f} "
                 f"vs bound {gap['rhs_bound']:.3g}")


def test_12_thread_count_determinism(tmp_path_factory):
    base = tmp_path_factory.mktemp("threads")
    cfg = base / "run.yaml"
    cfg.write_text("\n".join([
        "kernel: {family: lognormal, alpha: 1.02, beta: 0.0, gamma_disp: 0.2}",
        "population:",
        "  n_agents: 10000",
        "  steps: 50",
        "  initial: {kind: point, value: 1.0}",
        "master_seed: 42",
    ]) + "\n", encoding="utf-8")
    blobs = []
    for threads in (1, 4, 8):
        out = base / f"t{threads}.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--threads", str(threads)]) == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    assert check(12, "thread count never changes output", ok,
                 f"1/4/8 threads, {len(blobs[0])} byte trajectory")
