"""ginisim benchmark runner.

Runs one seed-locked workload through `ginisim.cli.main` (threshold-probes:
through `experiments.gini_cv_series`) in this process, as a closed loop
with one client (each operation starts after the previous one ends),
checks every output, and prints the metrics named in BENCHMARK.json.
Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload flagship-simulate --seed 1 --seconds 33 --trace 0

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
operation with and without the span tracer (perfbench/tracer.py) and
reports the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A manifest
line and a results file under .perfbench_work/results/ record versions,
hashes and per-operation output digests.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")  # relative to ROOT, so config bytes do not depend on it
REFERENCE_DIGESTS = HERE / "reference_digests.json"

SETUP_SAMPLES = 3
MIN_TIMED_OPS = 3
# Stop waiting for a first successful operation after this long.
NO_SUCCESS_LIMIT_S = 120.0

# The flagship horizon is shortened from 1500 steps so that one run holds
# several operations; N, kernel, initial condition and seed handling stay.
FLAGSHIP_SIMULATE_STEPS = 200

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ginisim
ginisim.parse_config(sys.argv[2]).build_initial(int(sys.argv[3]))
print(repr(time.perf_counter() - t0))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


# --- operations -------------------------------------------------------------


class Op:
    """One CLI invocation and everything the checks found about it."""

    def __init__(self, seed: int, threads: int, traced: bool):
        self.seed = seed
        self.threads = threads
        self.traced = traced
        self.rc: int | None = None
        self.wall = 0.0
        self.stdout = ""
        self.stderr = ""
        self.error: str | None = None      # why the operation failed
        self.problem: str | None = None    # a broken output check
        self.outputs: dict[str, str] = {}  # output name -> sha256
        self.series: list = []  # threshold-probes: (gini, cv) arrays per probe
        self.agent_steps = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or self.problem is not None

    @property
    def digest(self) -> str:
        return sha256(json.dumps(self.outputs, sort_keys=True).encode())

    def record(self, reference: str | None) -> dict:
        return {
            "seed": self.seed, "threads": self.threads, "traced": self.traced,
            "wall_s": self.wall, "rc": self.rc, "failed": self.failed,
            "error": self.error, "problem": self.problem,
            "agent_steps": self.agent_steps, "digest": self.digest,
            "reference_digest": reference, "outputs": self.outputs,
        }


def _gates(report: str) -> list[tuple[str, str]]:
    """(section, value) for every `pass:` line of a `[section]` report."""
    section, found = "", []
    for line in report.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif line.startswith("pass: "):
            found.append((section, line[len("pass: "):]))
    return found


class Workload:
    """A CLI subcommand on one config; subclasses check its outputs."""

    name = ""
    command = ""
    source_config = ""

    def __init__(self, ginisim):
        self.g = ginisim
        self.config_path = self.prepare_config()
        self.config = ginisim.parse_config(str(self.config_path))

    def edits(self) -> dict | None:
        """Changes to the shipped config, or None to run it as shipped."""
        return None

    def prepare_config(self) -> Path:
        import yaml

        source = Path("configs") / self.source_config
        edits = self.edits()
        if edits is None:
            return source
        data = yaml.safe_load(source.read_text(encoding="utf-8"))
        for section, fields in edits.items():
            data.setdefault(section, {}).update(fields)
        path = WORK / f"{self.name}.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=True), encoding="utf-8")
        return path

    def out_paths(self) -> dict[str, Path]:
        return {}

    def argv(self, seed: int, threads: int) -> list[str]:
        argv = [self.command, "--config", str(self.config_path), "--seed", str(seed),
                "--threads", str(threads)]
        if "out" in self.out_paths():
            argv += ["--out", str(self.out_paths()["out"])]
        return argv

    def run(self, seed: int, threads: int, traced: bool) -> Op:
        op = Op(seed, threads, traced)
        for path in self.out_paths().values():
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                op.rc = self.invoke(op, seed, threads)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            op.error = f"uncaught {type(exc).__name__}: {exc}"
        op.wall = time.perf_counter() - t0
        op.stdout, op.stderr = out.getvalue(), err.getvalue()
        return op

    def invoke(self, op: Op, seed: int, threads: int) -> int:
        """One operation: the CLI subcommand, in this process."""
        return self.g.cli.main(self.argv(seed, threads))

    def check(self, op: Op) -> None:
        """Fill op.outputs, op.error, op.problem and op.agent_steps."""
        op.outputs["stdout"] = sha256(op.stdout.encode())
        op.outputs["stderr"] = sha256(op.stderr.encode())
        for path in self.out_paths().values():
            data = _read(path)
            if data is not None:
                op.outputs[path.name] = sha256(data)
        if op.error is None and op.rc != 0:
            lines = [ln.strip() for ln in op.stderr.splitlines() if ln.strip()]
            op.error = f"exit code {op.rc}: " + " ".join(lines[:2])
        try:
            self.check_outputs(op)
        except (ValueError, IndexError) as exc:
            op.problem = f"unparseable output: {exc}"

    def check_outputs(self, op: Op) -> None:
        raise NotImplementedError


class FlagshipSimulate(Workload):
    name = "flagship-simulate"
    command = "simulate"
    source_config = "flagship.yaml"

    def edits(self):
        return {"population": {"steps": FLAGSHIP_SIMULATE_STEPS},
                "output": {"final_population": str(WORK / "final_population.txt")}}

    def out_paths(self):
        return {"out": WORK / "trajectory.csv",
                "final": WORK / "final_population.txt"}

    def check_outputs(self, op: Op) -> None:
        if op.rc != 0:
            return
        steps, n = self.config.steps, self.config.n_agents
        op.agent_steps = n * steps
        csv = _read(self.out_paths()["out"])
        final = _read(self.out_paths()["final"])
        if csv is None or final is None:
            op.problem = "simulate exited 0 without writing its CSV and final population"
            return
        lines = csv.decode().splitlines()
        header, rows = lines[0].split(","), [r.split(",") for r in lines[1:]]
        if len(rows) != steps + 1:
            op.problem = f"CSV has {len(rows)} rows, expected steps+1 = {steps + 1}"
            return
        if [int(r[0]) for r in rows] != list(range(steps + 1)):
            op.problem = "CSV t column is not 0..steps"
            return
        wealth = np.array(final.split(), dtype=float)
        if wealth.size != n:
            op.problem = f"final population has {wealth.size} values, expected {n}"
            return
        csv_gini = float(rows[-1][header.index("gini")])
        recomputed = self.g.metrics.gini(wealth)
        if csv_gini != recomputed:
            op.problem = (f"final-row gini {csv_gini!r} != metrics.gini of the dumped "
                          f"final population {recomputed!r}")


class IntegralsGamma(Workload):
    """verify-integrals: exit 0 and every gated section reads pass: True."""

    name = "integrals-gamma"
    command = "verify-integrals"
    source_config = "integrals.yaml"

    def edits(self):
        return {"kernel": {"family": "gamma"}}

    def check_outputs(self, op: Op) -> None:
        gates = _gates(op.stdout)
        not_true = [section for section, value in gates if value != "True"]
        if op.rc == 0 and (not gates or not_true):
            op.problem = (f"exit 0 but gated sections {not_true} do not read pass: True"
                          if gates else "exit 0 but the report has no gated section")
        elif not_true and op.error is None:
            op.error = f"gated sections {not_true} do not read pass: True"
        # The snapshot simulation is complete once the report has this
        # section; it ran n_agents x snapshot_step agent steps.
        if "[ensemble_gap]" in op.stdout:
            op.agent_steps = self.config.n_agents * self.config.snapshot_step


class ThresholdProbes(Workload):
    """The probe simulations of `search-threshold`, through the library.

    `search-threshold` on the shipped config raises AmbiguousProbeError or
    BracketError at most seeds (perfbench/README.md lists them), and a
    benchmark workload must not fail at random seeds.  So one operation
    runs the three probes a successful search runs, c_lo, c_hi and their
    midpoint, exactly as `experiments.find_min_stabilizing_salary_fraction`
    builds them, through `experiments.gini_cv_series`.  The bisection that
    classifies them is not run.
    """

    name = "threshold-probes"
    source_config = "threshold_search.yaml"

    def fractions(self) -> tuple[float, ...]:
        spec = self.config.search
        return (spec.c_lo, spec.c_hi, 0.5 * (spec.c_lo + spec.c_hi))

    def invoke(self, op: Op, seed: int, threads: int) -> int:
        base = self.config.with_overrides(seed, None)
        for c in self.fractions():
            cfg = dataclasses.replace(base, mode="proportional", salary_fraction=float(c),
                                      steps=int(self.config.search.horizon))
            op.series.append(self.g.experiments.gini_cv_series(cfg))
        return 0

    def check_outputs(self, op: Op) -> None:
        horizon = self.config.search.horizon
        op.agent_steps = len(op.series) * self.config.n_agents * horizon
        if op.rc != 0:
            return
        op.outputs["series"] = sha256(b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                                               for pair in op.series for a in pair))
        for c, (gs, cvs) in zip(self.fractions(), op.series):
            if gs.shape != (horizon + 1,) or cvs.shape != (horizon + 1,):
                op.problem = (f"probe c={c}: series of shapes {gs.shape}, {cvs.shape}, "
                              f"expected ({horizon + 1},)")
            elif not (np.isfinite(gs).all() and np.isfinite(cvs).all()):
                op.problem = f"probe c={c}: non-finite gini or cv"
            elif gs[0] != 0.0 or cvs[0] != 0.0:
                op.problem = f"probe c={c}: point start but gini {gs[0]!r}, cv {cvs[0]!r} at t=0"
            elif not ((gs >= 0.0) & (gs < 1.0)).all() or (cvs < 0.0).any():
                op.problem = f"probe c={c}: gini outside [0, 1) or negative cv"
            if op.problem:
                return
        if len(op.series) != len(self.fractions()):
            op.problem = f"{len(op.series)} probe series, expected {len(self.fractions())}"


WORKLOADS = {w.name: w for w in (FlagshipSimulate, ThresholdProbes, IntegralsGamma)}


# --- manifest ---------------------------------------------------------------


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cpu() -> dict:
    info: dict = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
                  "model": platform.processor() or None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def manifest(workload: Workload, seed: int, seconds: int, trace: int) -> dict:
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "ginisim").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "loop": "closed, 1 client, operation i uses seed + i (trace runs: seed)",
        "git_commit": _git_commit(), "source_sha256": source.hexdigest(),
        "config": str(workload.config_path),
        "config_sha256": sha256(workload.config_path.read_bytes()),
        "n_agents": workload.config.n_agents,
        "bytes_per_wealth_vector_computed": 8 * workload.config.n_agents,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cpu": _cpu(),
    }


# --- measurement ------------------------------------------------------------


def measure_setup(workload: Workload, seed: int) -> list[float]:
    """Fresh-interpreter time of import + parse_config + build_initial."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        try:
            res = subprocess.run(
                [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(workload.config_path),
                 str(seed)], capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up did not finish: {exc}") from exc
        if res.returncode != 0:
            raise BenchError(f"set-up failed: {res.stderr.strip()}")
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return samples


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


# Inputs of the reference kernel; fixed, so every run times the same work.
REFERENCE_LARGE = np.random.default_rng(0).random(100_000)
REFERENCE_SMALL = np.random.default_rng(1).random(10_000)

# End-to-end figures printed on every untraced run but not listed in
# BENCHMARK.json, with their units.
UNLISTED_UNITS = {"wall_s": "s", "agent_steps_per_s": "1/s", "reference_ms": "ms"}


def reference_time() -> float:
    """Wall time of a fixed kernel that never calls ginisim (~0.1 s).

    The shared host's speed drifts by up to ~1.7x in phases that last from
    seconds to minutes, and the drift moves this kernel and every workload
    alike.  Each operation is timed against the mean of the reference times
    taken right before and right after it, which cancels most of the drift.
    The kernel mixes the three kinds of work the workloads do, in about
    equal parts: numpy on 1e5 doubles (flagship), numpy on 1e4 doubles
    (threshold probes) and scalar interpreter math (quadrature).
    """
    t0 = time.perf_counter()
    for _ in range(20):
        np.sort(np.exp(np.log(REFERENCE_LARGE) * 1.01))
    for _ in range(320):
        np.sort(np.exp(np.log(REFERENCE_SMALL) * 1.01))
    total = 0.0
    for i in range(1, 120_000):
        total += math.exp(-1.0 / i) * math.log(i)
    return time.perf_counter() - t0


def end_to_end(workload: Workload, seed: int, seconds: int):
    setup = measure_setup(workload, seed)
    ops = [workload.run(seed, 1, False)]  # warm-up: checked, not timed
    workload.check(ops[0])
    refs = [reference_time()]  # refs[i], refs[i + 1] flank timed operation i
    start = time.perf_counter()
    while not ops[-1].problem:  # a broken output check ends the run
        elapsed = time.perf_counter() - start
        timed = ops[1:]
        if (elapsed >= seconds and len(timed) >= MIN_TIMED_OPS
                and (any(not o.failed for o in timed) or elapsed >= NO_SUCCESS_LIMIT_S)):
            break
        ops.append(workload.run(seed + len(ops), 1, False))
        workload.check(ops[-1])
        refs.append(reference_time())
    timed = ops[1:]
    ref = [0.5 * (refs[i] + refs[i + 1]) for i in range(len(timed))]
    ok = [i for i, o in enumerate(timed) if not o.failed]
    # failed operations never enter wall_*: a fast failure is not a speed-up
    ok = ok or list(range(len(timed)))
    stepped = [i for i, o in enumerate(timed) if o.agent_steps]
    metrics = {
        "setup_s": _median(setup),
        "wall_ref": _median([timed[i].wall / ref[i] for i in ok]),
        "agent_steps_per_ref": _median([timed[i].agent_steps * ref[i] / timed[i].wall
                                        for i in stepped]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": _median([timed[i].wall for i in ok]),
        "agent_steps_per_s": _median([timed[i].agent_steps / timed[i].wall for i in stepped]),
        "reference_ms": 1e3 * _median(refs),
    }
    extra = {"setup_samples_s": setup, "timed_ops": len(timed),
             "successful_timed_ops": sum(not o.failed for o in timed),
             "reference_s": refs}
    return ops, metrics, extra


def traced(workload: Workload, seed: int, seconds: int):
    from tracer import SORT_COUNTER, Tracer

    def one(tracer: Tracer | None, threads: int = 1) -> Op:
        if tracer is not None:
            tracer.install()
        try:
            op = workload.run(seed, threads, tracer is not None)
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.check(op)  # outside the trace: the checks call ginisim too
        return op

    ops = [one(None)]  # warm-up
    tracer = Tracer()
    pairs: list[tuple[Op, Op]] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(pairs) < 2:
        if len(pairs) % 2 == 0:  # alternate which side runs first
            plain = one(None)
            pairs.append((plain, one(tracer)))
        else:
            traced_op = one(tracer)
            pairs.append((one(None), traced_op))
    tracer2 = Tracer()
    threads2 = one(tracer2, threads=2)
    ops += [o for pair in pairs for o in pair] + [threads2]
    for op in ops[1:]:
        if op.digest != ops[0].digest:
            op.problem = op.problem or (
                f"outputs differ from the untraced single-thread run "
                f"(traced={op.traced}, threads={op.threads})")

    n = len(pairs)
    stats, stats2 = tracer.stats, tracer2.stats

    def calls(name):
        return stats[name].calls / n if name in stats else 0.0

    def total(name):
        return stats[name].total / n if name in stats else 0.0

    def per_call(name, st=stats):
        return st[name].total / st[name].calls if name in st and st[name].calls else 0.0

    def self_s(layer):
        return sum(s.self for k, s in stats.items() if k.startswith(layer + ".")) / n

    steps = calls("dynamics.step")
    noise = stats.get("kernels.unit_mean_noise")
    values = {
        "trace.overhead_frac": statistics.median(t.wall / p.wall for p, t in pairs) - 1.0,
        "metrics.sorts_per_step": tracer.counters.get(SORT_COUNTER, 0) / n / steps,
        "metrics.validations_per_step":
            (calls("dynamics.PopulationState") + calls("metrics._checked")) / steps,
        "kernels.unit_mean_noise.draws_per_s":
            noise.items / noise.total if noise and noise.total else 0.0,
        "experiments.probes": calls("experiments.gini_cv_series"),
    }

    def metric(name: str) -> float:
        if name in values:
            return values[name]
        base, _, suffix = name.rpartition(".")
        if suffix == "threads2":
            fn, _, stat = base.rpartition(".")
            if stat != "ms_per_call":
                raise BenchError(f"no threads2 variant of {name}")
            return 1e3 * per_call(fn, stats2)
        if suffix == "self_s":
            return self_s(base)
        return {"calls": calls, "ms_per_call": lambda f: 1e3 * per_call(f),
                "s_per_call": per_call, "s": total,
                "ms": lambda f: 1e3 * total(f)}[suffix](base)

    table = {k: {"calls": s.calls / n, "total_s": s.total / n, "self_s": s.self / n,
                 "items": s.items / n} for k, s in sorted(stats.items())}
    extra = {"pairs": n, "per_function_per_op": table,
             "sort_calls_per_op": tracer.counters.get(SORT_COUNTER, 0) / n}
    return ops, metric, extra


# --- entry point ------------------------------------------------------------


def import_ginisim():
    if not (SRC / "ginisim" / "__init__.py").is_file() or not Path("configs").is_dir():
        raise BenchError(f"no ginisim source tree under {ROOT}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import ginisim
    import ginisim.cli

    if Path(ginisim.__file__).resolve().parent != (SRC / "ginisim").resolve():
        raise BenchError(f"imported ginisim from {ginisim.__file__}, not from {SRC}")
    return ginisim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        ginisim = import_ginisim()
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](ginisim)
        unlisted = {}
        if args.trace:
            ops, metric, extra = traced(workload, args.seed, args.seconds)
            wanted = bench["per_layer"]
        else:
            ops, values, extra = end_to_end(workload, args.seed, args.seconds)
            metric = values.__getitem__
            wanted = bench["end_to_end"]
            unlisted = {name: (values[name], unit) for name, unit in UNLISTED_UNITS.items()
                        if name not in {m["name"] for m in wanted}}
        metrics = {m["name"]: {"value": float(metric(m["name"])), "unit": m["unit"]}
                   for m in wanted}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    reference = json.loads(REFERENCE_DIGESTS.read_text()).get(workload.name, {}) \
        if REFERENCE_DIGESTS.is_file() else {}
    records = [op.record(reference.get(str(op.seed))) for op in ops]
    changed = [r["seed"] for r in records
               if r["reference_digest"] and r["reference_digest"] != r["digest"]]
    failed = sum(op.failed for op in ops)
    problems = [op.problem for op in ops if op.problem]
    result = {"correct": not problems, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    info = manifest(workload, args.seed, args.seconds, args.trace)
    out_file = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"manifest": info, "result": result, "extra": extra,
                                    "operations": records}, indent=1) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(ops)}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for name, (value, unit) in unlisted.items():
        print(f"  {name:<48} {value:>14.6g} {unit} (not in BENCHMARK.json)")
    print(f"  {'failed_ops_frac':<48} {failed / len(ops):>14.6g} ratio "
          f"({failed} of {len(ops)})")
    for op in ops:
        if op.error:
            print(f"  failed op seed={op.seed}: {op.error}")
    print(f"  output digests: {sum(r['reference_digest'] == r['digest'] for r in records)}"
          f" match the reference, {len(changed)} differ"
          + (f" (seeds {sorted(set(changed))})" if changed else ""))
    for problem in problems:
        print(f"OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
