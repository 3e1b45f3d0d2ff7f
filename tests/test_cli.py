"""End-to-end command line behaviour, exit codes, and CSV round trips."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ginisim import cli, metrics
from ginisim import config as config_module
from ginisim.config import parse_config
from ginisim.verification import format_report, verify_integrals

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def noisy_config(tmp_path, **extra_lines):
    lines = [
        "kernel: {family: lognormal, alpha: 1.02, beta: 0.1, gamma_disp: 0.2}",
        "population:",
        "  n_agents: 300",
        "  steps: 12",
        "  initial: {kind: uniform, low: 0.5, high: 1.5}",
        "master_seed: 7",
    ]
    for key, value in extra_lines.items():
        lines.append(f"{key}: {value}")
    return write(tmp_path / "noisy.yaml", "\n".join(lines) + "\n")


def det_config(tmp_path):
    return write(tmp_path / "det.yaml", "\n".join([
        "kernel: {family: deterministic, alpha: 1.02, beta: 0.5, gamma_disp: 0.0}",
        "population:",
        "  n_agents: 200",
        "  steps: 15",
        "  initial: {kind: uniform, low: 0.5, high: 1.5}",
        "master_seed: 7",
        "bounds: {gamma_logderiv: 1.0}",
    ]) + "\n")


RECORD_NAMES = ["cv_growth", "gini_growth", "cv_halting", "min_salary",
                "gini_tail", "saturation_0.1", "saturation_0.25"]


def test_simulate_csv_schema(tmp_path, capsys):
    cfg = noisy_config(tmp_path)
    traj = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(traj)]) == 0

    out = capsys.readouterr().out
    assert "final t=12 " in out and "gini=" in out
    assert f"trajectory written to {traj}" in out

    lines = traj.read_text().splitlines()
    assert len(lines) == 14  # header + 13 snapshots
    header = lines[0].split(",")
    expected = ["t", "mu", "sigma", "cv", "gini", "tail_p_0.1", "tail_p_0.25"]
    for name in RECORD_NAMES:
        expected += [f"{name}_lhs", f"{name}_rhs", f"{name}_satisfied"]
    assert header == expected

    first = lines[1].split(",")
    assert first[0] == "0"
    # no previous step: growth rows carry nan values and nan flags
    i = header.index("cv_growth_lhs")
    assert first[i] == "nan" and first[i + 2] == "nan"
    last = lines[-1].split(",")
    assert last[0] == "12"
    assert 0.0 < float(last[4]) < 1.0


def test_simulate_reruns_and_threads_are_byte_identical(tmp_path, capsys):
    cfg = noisy_config(tmp_path)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli.main(["simulate", "--config", cfg, "--out", str(paths[0])]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(paths[1])]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(paths[2]),
                     "--threads", "4"]) == 0
    capsys.readouterr()
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_simulate_seed_override_changes_trajectory(tmp_path, capsys):
    cfg = noisy_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(b),
                     "--seed", "8"]) == 0
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_final_population_gini_round_trip(tmp_path, capsys):
    final = tmp_path / "final.txt"
    cfg = noisy_config(tmp_path, output=f"{{final_population: {final}}}")
    traj = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(traj)]) == 0
    capsys.readouterr()

    wealth_lines = final.read_text().splitlines()
    assert len(wealth_lines) == 300

    assert cli.main(["gini", "--input", str(final)]) == 0
    out = capsys.readouterr().out.splitlines()
    reported_gini = float(out[0].split()[1])
    reported_cv = float(out[1].split()[1])

    last = traj.read_text().splitlines()[-1].split(",")
    assert reported_gini == pytest.approx(float(last[4]), rel=1e-11)
    assert reported_cv == pytest.approx(float(last[3]), rel=1e-11)


def test_gini_hand_values(tmp_path, capsys):
    path = write(tmp_path / "w.txt", "0\n\n0\n0\n1\n")
    assert cli.main(["gini", "--input", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "gini 0.75"
    assert float(out[1].split()[1]) == pytest.approx(math.sqrt(3.0), rel=1e-11)


def test_gini_of_the_smallest_subnormal(tmp_path, capsys):
    # the mean of 0 and 5e-324 underflows to 0 unless the metrics rescale
    path = write(tmp_path / "tiny.txt", "0\n5e-324\n")
    assert cli.main(["gini", "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["gini 0.5", "cv 1"]


def test_gini_error_paths(tmp_path, capsys):
    assert cli.main(["gini", "--input", str(tmp_path / "nope.txt")]) == 2
    assert "input file not found" in capsys.readouterr().err

    bad = write(tmp_path / "bad.txt", "1.0\nabc\n")
    assert cli.main(["gini", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: not a number: 'abc'" in err

    for text in ("nan", "inf", "-1.5"):
        bad = write(tmp_path / "bad.txt", f"1.0\n\n{text}\n")
        assert cli.main(["gini", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: wealth must be finite and nonnegative: '{text}'" in err

    for text in ("", "5\n", "0\n0\n0\n"):
        short = write(tmp_path / "short.txt", text)
        assert cli.main(["gini", "--input", str(short)]) == 2
        err = capsys.readouterr().err
        assert f"{short}: need at least 2 values with a positive total" in err


def test_verify_bounds_deterministic(tmp_path, capsys):
    cfg = det_config(tmp_path)
    report_path = tmp_path / "report.txt"
    assert cli.main(["verify-bounds", "--config", cfg,
                     "--out", str(report_path)]) == 0
    captured = capsys.readouterr()
    report = report_path.read_text()
    assert captured.out == report + "\n"
    assert "[hypothesis_leak]" in report
    assert "mass_outside_bound: 1" in report  # no density: leak concedes all
    for section in ("cv_growth", "gini_growth", "saturation"):
        assert f"[{section}]" in report
    assert "pass: False" not in report


def test_verify_bounds_calibrates_gamma_once(tmp_path, capsys, monkeypatch):
    # the "pass" run of the pinned verify-bounds reports (tests/test_experiments.py)
    cfg = write(tmp_path / "pass.yaml", "\n".join([
        "kernel: {family: lognormal, alpha: 1.02, beta: 0.5, gamma_disp: 0.25}",
        "population:",
        "  n_agents: 3000",
        "  steps: 250",
        "  initial: {kind: uniform, low: 0.5, high: 1.5}",
        "master_seed: 7",
    ]) + "\n")
    calls = []
    calibrate = config_module.calibrate_log_derivative_bound

    def counted(*args):
        calls.append(args)
        return calibrate(*args)

    monkeypatch.setattr(config_module, "calibrate_log_derivative_bound", counted)
    assert cli.main(["verify-bounds", "--config", cfg]) == 0
    assert len(calls) == 1
    golden = (GOLDEN / "verify_bounds_pass.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_verify_bounds_noisy(tmp_path, capsys):
    cfg = noisy_config(tmp_path)
    assert cli.main(["verify-bounds", "--config", cfg]) == 0
    report = capsys.readouterr().out
    assert "checked: 12" in report
    assert "regime indicator, not gated" in report
    assert "pass: False" not in report


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow the abort reports
@pytest.mark.parametrize("command", ["simulate", "verify-bounds"])
def test_aborted_run_names_its_step(tmp_path, capsys, command):
    lines = [
        "kernel: {family: lognormal, alpha: 1.0e+60, beta: 0.0, gamma_disp: 0.2}",
        "population:",
        "  n_agents: 1000",
        "  steps: 10",
        "  initial: {kind: lognormal, mean: 1.0, cv: 1.0}",
        "master_seed: 42",
    ]
    # relative noise 2e-61 is below float resolution: Gamma cannot be
    # calibrated, so the run stops before step 0 unless the config sets it
    cfg = write(tmp_path / "spike.yaml", "\n".join(lines) + "\n")
    old = write(tmp_path / "out", "old content\n")
    assert cli.main([command, "--config", cfg, "--out", old]) == 1
    assert "cannot calibrate Gamma" in capsys.readouterr().err
    assert (tmp_path / "out").read_text() == "old content\n"  # nothing was opened
    cfg = write(tmp_path / "overflow.yaml",
                "\n".join([*lines, "bounds: {gamma_logderiv: 1.0}"]) + "\n")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    message = "simulation aborted at step 6: population contains non-finite wealth\n"
    err = capsys.readouterr().err
    assert err == (message if command == "simulate" else "error: " + message)
    if command == "simulate":  # the rows of steps 0-5 stay on disk
        assert len((tmp_path / "out").read_text().splitlines()) == 7


def test_verify_integrals_needs_density(tmp_path, capsys):
    cfg = det_config(tmp_path)
    assert cli.main(["verify-integrals", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "hypotheses not met: deterministic kernel has no transition density" in err


def test_verify_integrals_report(tmp_path, capsys):
    cfg = str(CONFIGS / "integrals.yaml")
    report_path = tmp_path / "report.txt"
    assert cli.main(["verify-integrals", "--config", cfg,
                     "--out", str(report_path)]) == 0
    report = format_report(verify_integrals(parse_config(cfg)))
    assert capsys.readouterr().out == report + "\n"
    assert report_path.read_text() == report
    gates = [line for line in report.splitlines() if line.startswith("pass: ")]
    assert gates == ["pass: True"] * 6  # five checks and the overall verdict


def test_search_threshold_csv(tmp_path, capsys):
    cfg = write(tmp_path / "search.yaml", "\n".join([
        "kernel: {family: lognormal, alpha: 1.02, beta: 0.0, gamma_disp: 0.25}",
        "population: {n_agents: 200, steps: 80}",
        "master_seed: 3",
        "search: {c_lo: 1.0e-4, c_hi: 0.2, tol: 0.15, horizon: 150}",
    ]) + "\n")
    out_csv = tmp_path / "search.csv"
    assert cli.main(["search-threshold", "--config", cfg,
                     "--out", str(out_csv)]) == 0
    stdout = capsys.readouterr().out
    assert "c_star " in stdout and "plateau_cv " in stdout
    assert "reference_scale " in stdout and "ratio_to_scale " in stdout

    lines = out_csv.read_text().splitlines()
    assert lines[0] == "scenario,c,final_gini,final_cv,verdict"
    assert lines[1].startswith("probe_c=0.0001,")
    assert lines[1].endswith(",diverging")
    assert lines[2].startswith("probe_c=0.2,")
    assert lines[2].endswith(",stabilized")
    assert lines[-1].startswith("threshold,")
    assert lines[-1].endswith(",,,stabilized")
    c_star = float(lines[-1].split(",")[1])
    assert 1e-4 < c_star < 0.2


def test_search_threshold_requires_section(tmp_path, capsys):
    cfg = noisy_config(tmp_path)
    assert cli.main(["search-threshold", "--config", cfg]) == 2
    assert "config error: search: section required" in capsys.readouterr().err


def test_search_threshold_bad_bracket(tmp_path, capsys):
    cfg = write(tmp_path / "bad_bracket.yaml", "\n".join([
        "kernel: {family: lognormal, alpha: 1.02, beta: 0.0, gamma_disp: 0.25}",
        "population: {n_agents: 150, steps: 60}",
        "master_seed: 3",
        "search: {c_lo: 0.05, c_hi: 0.2, tol: 0.15, horizon: 60}",
    ]) + "\n")
    assert cli.main(["search-threshold", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "error: no sign change: lower bracket" in err


def test_config_errors_exit_2(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "none.yaml")]) == 2
    assert "config error: config file not found" in capsys.readouterr().err
    # argparse usage failures also map to exit 2
    assert cli.main(["simulate"]) == 2
    capsys.readouterr()
    # an infinite kernel coefficient is a config error, not a failed run
    inf_alpha = Path(noisy_config(tmp_path)).read_text().replace("alpha: 1.02", "alpha: .inf")
    path = write(tmp_path / "inf_alpha.yaml", inf_alpha)
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 2
    assert "config error: kernel.alpha: must be finite" in capsys.readouterr().err
    # removed keys, an infinite Gamma, a nan salary fraction and a seed the
    # streams cannot key all stop before any run
    noisy = Path(noisy_config(tmp_path)).read_text()
    kept = write(tmp_path / "kept.csv", "an earlier run\n")
    for argv, old, new, message in [
        (["verify-bounds"], "gamma_disp: 0.2", "gamma_disp: 0.2, delta_logx: 2",
         "kernel: unknown key 'delta_logx'"),
        (["verify-bounds"], "seed: 7", "seed: 7\nbounds: {epsilon: 0.5}",
         "bounds: unknown key 'epsilon'"),
        (["verify-bounds"], "seed: 7", "seed: 7\nbounds: {gamma_logderiv: .inf}",
         "bounds.gamma_logderiv: must be finite"),
        (["simulate", "--out", kept], "beta: 0.1, gamma_disp: 0.2}",
         "beta: 0.0, gamma_disp: 0.2}\npolicy: {mode: proportional, salary_fraction: .nan}",
         "policy.salary_fraction: must be finite"),
    ]:
        path = write(tmp_path / "bad.yaml", noisy.replace(old, new))
        assert cli.main([*argv, "--config", path]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
    assert Path(kept).read_text() == "an earlier run\n"
    # a deterministic kernel has no density to calibrate Gamma from
    det = Path(det_config(tmp_path)).read_text().replace("bounds: {gamma_logderiv: 1.0}\n", "")
    path = write(tmp_path / "det_no_gamma.yaml", det)
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 2
    assert ("config error: bounds.gamma_logderiv: required for a deterministic kernel"
            in capsys.readouterr().err)
    for seed in (str(2**64), "-1"):
        assert cli.main(["simulate", "--config", noisy_config(tmp_path), "--seed", seed,
                         "--out", str(tmp_path / "t.csv")]) == 2
        assert "config error: --seed: must be in [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
@pytest.mark.parametrize("command", ["simulate", "gini"])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, command, unreadable):
    # a directory and undecodable bytes, not permission bits, which root ignores
    path = tmp_path / unreadable
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(bytes(range(128, 256)))
    out = tmp_path / "t.csv"
    argv, prefix = {"simulate": (["simulate", "--out", str(out), "--config"], "config error: "),
                    "gini": (["gini", "--input"], "")}[command]
    assert cli.main([*argv, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"{prefix}{path}: cannot read: ")
    assert not out.exists()


FOOTPRINT_SCRIPT = """\
import sys

import ginisim
import ginisim.cli
from ginisim import cli, experiments, verification
from ginisim.config import load_config

config, out = sys.argv[1:]
assert cli.main(["simulate", "--config", config, "--out", out]) == 0
experiments.gini_cv_series(load_config({
    "kernel": {"family": "lognormal", "alpha": 1.02, "beta": 0.0, "gamma_disp": 0.2},
    "policy": {"mode": "proportional", "salary_fraction": 0.1},
    "population": {"n_agents": 500, "steps": 5},
}))
assert "scipy.integrate" not in sys.modules, "a simulation loaded scipy.integrate"
kernel = ginisim.config.parse_config(config).kernel
verification.pair_split_integral(kernel, 1.0, 2.0)
assert "scipy.integrate" in sys.modules, "the first quadrature did not load scipy.integrate"
"""


def test_simulations_never_load_the_quadrature_stack(tmp_path):
    # a fresh interpreter: this test process has loaded scipy.integrate already
    cfg = write(tmp_path / "five.yaml", Path(noisy_config(tmp_path)).read_text()
                .replace("steps: 12", "steps: 5"))
    src = str(Path(cli.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, cfg, str(tmp_path / "five.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert res.returncode == 0, res.stderr
    assert "final t=5 " in res.stdout
