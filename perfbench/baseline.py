"""Re-measure the baseline numbers that ROADMAP.md quotes.

Full-size runs of the shipped configs (not the shortened benchmark
workloads) plus one-step layer timings at N = 1e5, each a median of
repeats.  Takes about two minutes on a 2-core machine.  Prints one JSON
object; perfbench/BASELINE.md records a run of it next to the ROADMAP
figures.

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def median_ms(fn, repeats: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def cli_seconds(cli, argv: list[str], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"{argv} exited {rc}")
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from ginisim import bounds, cli, dynamics, kernels, metrics, parse_config, streams

    WORK.mkdir(exist_ok=True)
    cfg_path = str(ROOT / "configs" / "flagship.yaml")
    cfg = parse_config(cfg_path)
    out: dict = {}

    out["cli_s"] = {
        "simulate_flagship": cli_seconds(
            cli, ["simulate", "--config", cfg_path, "--out", str(WORK / "baseline.csv")], 1),
        "verify_bounds_flagship": cli_seconds(cli, ["verify-bounds", "--config", cfg_path], 1),
        "verify_integrals": cli_seconds(
            cli, ["verify-integrals", "--config", str(ROOT / "configs" / "integrals.yaml")], 3),
        "search_threshold": cli_seconds(
            cli, ["search-threshold", "--config", str(ROOT / "configs" / "threshold_search.yaml"),
                  "--out", str(WORK / "baseline_probes.csv")], 3),
    }

    # One step of the flagship at t = 200, layer by layer.
    n, seed, t = cfg.n_agents, cfg.master_seed, 200
    pop = None
    for pop in dynamics.simulate(cfg.build_initial(), cfg.kernel, cfg.build_policy(), t, seed):
        pass
    x = pop.wealth
    u = streams.indexed_uniforms(seed, streams.TAG_STEP, t, n)
    snap = metrics.snapshot(x, t, cfg.kappas)
    params = cfg.bound_params()
    a, b = cfg.kernel.alpha, cfg.kernel.beta
    policy = cfg.build_policy()
    reps = 30
    step_ms = {
        "uniforms": median_ms(lambda: streams.indexed_uniforms(seed, streams.TAG_STEP, t, n), reps),
        "lognormal_transform": median_ms(
            lambda: kernels.transition_from_uniforms(cfg.kernel, x, u), reps),
        "population_state": median_ms(lambda: dynamics.PopulationState(x, t), reps),
        "snapshot": median_ms(lambda: metrics.snapshot(x, t, cfg.kappas), reps),
        "gini": median_ms(lambda: metrics.gini(x), reps),
        "np_sort": median_ms(lambda: np.sort(x), reps),
        "bound_records": median_ms(lambda: bounds.step_bound_report(
            snap, snap, a, b, a, b, cfg.kernel.gamma_disp, params), reps),
        "step": median_ms(lambda: dynamics.step(pop, cfg.kernel, policy, seed), reps),
    }
    for threads in (2, 4):
        with ThreadPoolExecutor(max_workers=threads) as ex:
            step_ms[f"step_threads{threads}"] = median_ms(
                lambda: dynamics.step(pop, cfg.kernel, policy, seed, ex), reps)
    out["step_ms_n1e5"] = step_ms

    small = dataclasses.replace(cfg, n_agents=1000, steps=400)
    t0 = time.perf_counter()
    for _ in dynamics.run(small):
        pass
    out["run_ms_per_step_n1e3"] = 1e3 * (time.perf_counter() - t0) / (small.steps + 1)

    r = cfg.kernel.gamma_disp / cfg.kernel.alpha
    u5 = u[:100_000]
    out["noise_ms_per_1e5_draws"] = {
        "gamma": median_ms(lambda: kernels.unit_mean_noise(kernels.GAMMA, r, u5), 10),
        "lognormal": median_ms(lambda: kernels.unit_mean_noise(kernels.LOGNORMAL, r, u5), 10),
    }
    out["gini_influence_ms"] = median_ms(lambda: metrics.gini_influence(x), 10)
    out["argsort_ms"] = {
        "stable": median_ms(lambda: np.argsort(x, kind="stable"), 10),
        "default": median_ms(lambda: np.argsort(x), 10),
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
