"""Config schema: defaults, validation messages, file handling."""

import math
from pathlib import Path

import pytest
import yaml

from ginisim import config as config_module
from ginisim import streams, verification
from ginisim.config import ConfigError, RunConfig, load_config, parse_config
from ginisim.kernels import DETERMINISTIC, LOGNORMAL, KernelSpec
from ginisim.verification import verify_integrals

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PARSE_GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_configs.txt"


def base(**over):
    data = {
        "kernel": {"family": "lognormal", "alpha": 1.02, "beta": 0.0,
                   "gamma_disp": 0.2},
        "population": {"n_agents": 100, "steps": 10},
    }
    data.update(over)
    return data


def test_defaults():
    cfg = load_config(base())
    assert cfg.master_seed == 0
    assert cfg.mode == "linear" and cfg.salary_fraction is None
    assert cfg.initial.kind == "point" and cfg.initial.params == {}
    assert cfg.kappas == (0.1, 0.25)
    assert cfg.kappa == 0.25 and cfg.delta_stripe == 0.05
    assert cfg.gamma_logderiv is None  # Gamma is calibrated where it is used
    assert cfg.trajectory_out is None and cfg.final_population_out is None
    assert cfg.snapshot_step == 30 and cfg.n_pairs == 2000 and cfg.n_trials == 6
    assert cfg.a_values == (0.5, 1.0, 10.0)
    assert cfg.delta_values == (0.001, 0.01, 0.05)
    assert cfg.x_diagonal == (1.0, 10.0, 100.0)
    assert cfg.search is None


def counted_calibrations(monkeypatch) -> list:
    calls = []
    calibrate = config_module.calibrate_log_derivative_bound

    def counted(*args):
        calls.append(args)
        return calibrate(*args)

    for module in (config_module, verification):  # each name a caller may use
        monkeypatch.setattr(module, "calibrate_log_derivative_bound", counted)
    return calls


def test_gamma_logderiv_overrides_the_calibration(monkeypatch):
    calls = counted_calibrations(monkeypatch)
    cfg = load_config(base(bounds={"gamma_logderiv": 5.0}))
    assert cfg.gamma_logderiv == 5.0
    assert cfg.bound_params().gamma_inv_logderiv == 5.0
    assert not calls


def test_calibrated_gamma_has_one_source(monkeypatch):
    data = base(integrals={"snapshot_step": 2, "n_pairs": 50, "n_trials": 1,
                           "a_values": [1.0], "delta_values": [0.01],
                           "x_diagonal": [1.0]})
    calls = counted_calibrations(monkeypatch)
    parse_config(str(CONFIGS / "flagship.yaml"))
    cfg = load_config(data)
    assert not calls  # parsing never calibrates
    for seed in (0, 5):
        cfg_at = cfg.with_overrides(seed=seed)
        gamma = cfg_at.bound_params().gamma_inv_logderiv
        assert calls[-1] == (cfg.kernel, 1.0, seed)
        made = len(calls)
        calibration = dict(verify_integrals(cfg_at))["calibration"]
        assert len(calls) == made  # the report reads the config's calibration
        assert gamma == calibration["gamma_inv"]
    assert cfg.with_overrides(seed=5).bound_params() != cfg.bound_params()


def test_bound_params_draws_only_the_calibration_sequence(monkeypatch):
    # Gamma needs TAG_CALIBRATION sequence 0; the mass checks on sequences
    # 1 and 2 belong to the verify-integrals report
    keys = []
    draw = streams.indexed_uniforms

    def recording(master_seed, tag, sequence, n):
        keys.append((tag, sequence))
        return draw(master_seed, tag, sequence, n)

    monkeypatch.setattr(streams, "indexed_uniforms", recording)
    load_config(base(master_seed=3)).bound_params()
    assert keys == [(streams.TAG_CALIBRATION, 0)]


def test_dispersion_free_kernel_needs_explicit_logderiv():
    data = base()
    data["kernel"] = {"family": "deterministic", "alpha": 1.02, "beta": 0.5,
                      "gamma_disp": 0.0}
    with pytest.raises(ConfigError, match=r"^bounds\.gamma_logderiv: required for a "
                       "deterministic kernel, which has no density to calibrate$"):
        load_config(data)
    data["bounds"] = {"gamma_logderiv": 1.0}
    assert load_config(data).bound_params().gamma_inv_logderiv == 1.0
    # a RunConfig built without the loader names the same field
    direct = RunConfig(kernel=KernelSpec(DETERMINISTIC, alpha=1.02, beta=0.5, gamma_disp=0.0),
                       n_agents=10, steps=3)
    with pytest.raises(ConfigError, match=r"^bounds\.gamma_logderiv: required"):
        direct.bound_params()


def test_top_level_structure_errors():
    with pytest.raises(ConfigError, match="unknown key 'run'"):
        load_config(base(run={}))
    with pytest.raises(ConfigError, match="missing required section 'population'"):
        load_config({"kernel": base()["kernel"]})
    with pytest.raises(ConfigError, match="kernel: expected a mapping"):
        load_config(base(kernel=5))


def test_kernel_errors():
    data = base()
    del data["kernel"]["gamma_disp"]
    with pytest.raises(ConfigError, match="missing required key 'gamma_disp'"):
        load_config(data)
    data = base()
    data["kernel"]["family"] = "cauchy"
    with pytest.raises(ConfigError, match="kernel:"):
        load_config(data)
    data = base()
    data["kernel"]["alpha"] = True
    with pytest.raises(ConfigError, match="kernel.alpha: expected a number"):
        load_config(data)
    data = base()
    data["kernel"]["family"] = 3
    with pytest.raises(ConfigError, match="kernel.family: expected a string"):
        load_config(data)

    for key in ("alpha", "beta", "gamma_disp"):
        for value in (".inf", "inf", math.inf, "-inf", "nan"):
            data = base()
            data["kernel"][key] = value
            with pytest.raises(ConfigError, match=rf"^kernel\.{key}: must be finite$"):
                load_config(data)

    # the log-derivative bounds are calibrated by verify-integrals, not claimed
    for key in ("delta_logx", "delta_logxp"):
        data = base()
        data["kernel"][key] = 2.0
        with pytest.raises(ConfigError, match=rf"^kernel: unknown key '{key}'$"):
            load_config(data)


def test_population_errors():
    data = base()
    data["population"]["n_agents"] = 1
    with pytest.raises(ConfigError, match="need at least 2 agents"):
        load_config(data)
    data = base()
    data["population"]["steps"] = -1
    with pytest.raises(ConfigError, match="must be nonnegative"):
        load_config(data)
    data = base()
    data["population"]["steps"] = 2.5
    with pytest.raises(ConfigError, match="expected an integer"):
        load_config(data)


def test_initial_parsing():
    data = base()
    data["population"]["initial"] = {"kind": "uniform", "low": 0.5}
    with pytest.raises(ConfigError, match=r"initial kind 'uniform' needs keys \['high'\]"):
        load_config(data)
    data["population"]["initial"] = {"kind": "pareto"}
    with pytest.raises(ConfigError, match="unknown initial condition 'pareto'"):
        load_config(data)
    data["population"]["initial"] = {"kind": "lognormal", "mean": 2.0, "cv": 1.0}
    cfg = load_config(data)
    assert cfg.initial.params == {"mean": 2.0, "cv": 1.0}
    pop = cfg.build_initial(7)
    assert pop.wealth.size == 100 and (pop.wealth > 0.0).all()

    for initial, match in [
        ({"kind": "lognormal", "value": 2.0, "cv": 1}, r"^population\.initial: unknown key 'value'"),
        ({"kind": "point", "cv": 1}, r"^population\.initial: unknown key 'cv'"),
        ({"kind": "uniform", "low": 3, "high": 1},
         r"^population\.initial\.high: must be greater than low"),
        ({"kind": "uniform", "low": -1, "high": 1},
         r"^population\.initial\.low: must be nonnegative"),
        ({"kind": "point", "value": -1}, r"^population\.initial\.value: must be positive"),
        # an all-zero start has no Gini at t = 0
        ({"kind": "point", "value": 0}, r"^population\.initial\.value: must be positive"),
        ({"kind": "point", "value": "inf"}, r"^population\.initial\.value: must be finite"),
        ({"kind": "lognormal", "mean": -1, "cv": 1},
         r"^population\.initial\.mean: must be positive"),
        ({"kind": "lognormal", "cv": 0}, r"^population\.initial\.cv: must be positive"),
        ({"kind": ["point"]}, r"^population\.initial\.kind: unknown initial condition"),
    ]:
        data["population"]["initial"] = initial
        with pytest.raises(ConfigError, match=match):
            load_config(data)


def test_policy_parsing():
    cfg = load_config(base(policy={"mode": "proportional", "salary_fraction": 0.1}))
    assert cfg.mode == "proportional" and cfg.salary_fraction == 0.1
    assert cfg.build_policy() is not None

    with pytest.raises(ConfigError, match="file configs support 'linear'"):
        load_config(base(policy={"mode": "general"}))
    with pytest.raises(ConfigError, match="needs 'salary_fraction'"):
        load_config(base(policy={"mode": "proportional"}))
    with pytest.raises(ConfigError, match="only meaningful in proportional mode"):
        load_config(base(policy={"mode": "linear", "salary_fraction": 0.1}))
    with pytest.raises(ConfigError, match="must be >= 0"):
        load_config(base(policy={"mode": "proportional", "salary_fraction": -0.1}))


def test_proportional_mode_needs_zero_kernel_beta():
    data = base(policy={"mode": "proportional", "salary_fraction": 0.1})
    data["kernel"]["beta"] = 1.0
    with pytest.raises(ConfigError, match=r"^kernel\.beta: must be 0 in proportional mode"):
        load_config(data)
    data["policy"]["mode"] = "linear"
    del data["policy"]["salary_fraction"]
    assert load_config(data).kernel.beta == 1.0


def test_bounds_parsing():
    cfg = load_config(base(bounds={"kappa_grid": [0.05, 0.3], "kappa": 0.3,
                                   "delta_stripe": 0.02}))
    assert cfg.kappas == (0.05, 0.3) and cfg.kappa == 0.3
    assert cfg.delta_stripe == 0.02

    with pytest.raises(ConfigError, match="thresholds must be positive"):
        load_config(base(bounds={"kappa_grid": [0.0, 0.25]}))
    for value in (0.6, 0.5, 0.0, -0.1):
        with pytest.raises(ConfigError,
                           match=rf"^bounds\.kappa: must be in \(0, 1/2\), got {value}$"):
            load_config(base(bounds={"kappa": value}))
    for value in (2.0, 1.0, 0.0):
        with pytest.raises(ConfigError,
                           match=rf"^bounds\.delta_stripe: must be in \(0, 1\), got {value}$"):
            load_config(base(bounds={"delta_stripe": value}))
    with pytest.raises(ConfigError, match=r"^bounds\.gamma_logderiv: must be positive and finite$"):
        load_config(base(bounds={"gamma_logderiv": -1.0}))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(base(bounds={"gamma": 1.0}))
    # the stripe slack is derived as delta_stripe/Gamma where it is used
    with pytest.raises(ConfigError, match=r"^bounds: unknown key 'epsilon'$"):
        load_config(base(bounds={"epsilon": 0.5}))
    # two thresholds that print alike would share a CSV column and a record name
    with pytest.raises(ConfigError, match=r"^bounds\.kappa_grid: thresholds 0\.1 and "
                                          r"0\.1000001 share the name 0\.1$"):
        load_config(base(bounds={"kappa_grid": [0.1000001, 0.1]}))
    with pytest.raises(ConfigError, match=r"^bounds\.kappa_grid: thresholds 0\.25 and "
                                          r"0\.2500001 share the name 0\.25$"):
        load_config(base(bounds={"kappa_grid": [0.1, 0.25], "kappa": 0.2500001}))
    assert load_config(base(bounds={"kappa_grid": [0.25, 0.1, 0.25]})).kappas == (0.25, 0.1, 0.25)
    # an infinite Gamma would make the Gini growth gate pass vacuously
    for value in (".inf", "inf", math.inf, "nan"):
        with pytest.raises(ConfigError, match=r"^bounds\.gamma_logderiv: must be finite$"):
            load_config(base(bounds={"gamma_logderiv": value}))


def test_output_and_integrals_parsing():
    cfg = load_config(base(output={"trajectory": "t.csv",
                                   "final_population": "w.txt"},
                           integrals={"snapshot_step": 5, "n_pairs": 100,
                                      "a_values": [1.0, 2.0]}))
    assert cfg.trajectory_out == "t.csv"
    assert cfg.final_population_out == "w.txt"
    assert cfg.snapshot_step == 5 and cfg.n_pairs == 100
    assert cfg.a_values == (1.0, 2.0)

    for integrals, match in [
        ({"a_values": []}, "non-empty list"),
        ({"snapshot_step": -1}, r"^integrals\.snapshot_step: must be nonnegative"),
        ({"n_trials": -2}, r"^integrals\.n_trials: must be nonnegative"),
        ({"n_pairs": 0}, r"^integrals\.n_pairs: must be positive"),
        ({"a_values": [1.0, 0]}, r"^integrals\.a_values: values must be positive"),
        ({"x_diagonal": [-1]}, r"^integrals\.x_diagonal: values must be positive"),
        ({"delta_values": [0]}, r"^integrals\.delta_values: values must be in \(0, 0\.2\)"),
        ({"delta_values": [0.3]}, r"^integrals\.delta_values: values must be in"),
    ]:
        with pytest.raises(ConfigError, match=match):
            load_config(base(integrals=integrals))


def test_search_parsing():
    cfg = load_config(base(search={"c_lo": 0.002, "c_hi": 0.05, "tol": 0.01,
                                   "horizon": 100}))
    assert cfg.search.c_lo == 0.002 and cfg.search.horizon == 100
    with pytest.raises(ConfigError, match=r"missing required keys \['horizon', 'tol'\]"):
        load_config(base(search={"c_lo": 0.002, "c_hi": 0.05}))
    with pytest.raises(ConfigError, match="expected an integer"):
        load_config(base(search={"c_lo": 0.002, "c_hi": 0.05, "tol": 0.01,
                                 "horizon": 80.5}))
    for search, match in [
        ({"tol": 0}, r"^search\.tol: must be positive"),
        ({"c_lo": 0.05, "c_hi": 0.002}, r"^search\.c_hi: must be finite and greater than c_lo"),
        ({"c_hi": 0.002}, r"^search\.c_hi: must be finite and greater than c_lo"),
        ({"c_hi": "inf"}, r"^search\.c_hi: must be finite"),
        ({"c_lo": -0.01}, r"^search\.c_lo: must be >= 0"),
        ({"horizon": 0}, r"^search\.horizon: must be at least 1"),
    ]:
        with pytest.raises(ConfigError, match=match):
            load_config(base(search={"c_lo": 0.002, "c_hi": 0.05, "tol": 0.01,
                                     "horizon": 100, **search}))


def test_with_overrides():
    cfg = load_config(base())
    same = cfg.with_overrides()
    assert same.master_seed == 0 and same.trajectory_out is None
    bumped = cfg.with_overrides(seed=9, out="x.csv")
    assert bumped.master_seed == 9 and bumped.trajectory_out == "x.csv"
    assert bumped.kernel is cfg.kernel
    assert cfg.with_overrides(seed=2**64 - 1).master_seed == 2**64 - 1
    for seed in (2**64, -1):
        with pytest.raises(ConfigError, match=r"^--seed: must be in \[0, 2\*\*64\)"):
            cfg.with_overrides(seed=seed)


def test_master_seed_range():
    # the random streams key on 64 bits, so a wider seed would alias another
    assert load_config(base(master_seed=2**64 - 1)).master_seed == 2**64 - 1
    for seed in (2**64, -1):
        with pytest.raises(ConfigError, match=r"^master_seed: must be in \[0, 2\*\*64\)"):
            load_config(base(master_seed=seed))


def test_parse_config_file_handling(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        parse_config(str(tmp_path / "missing.yaml"))

    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty config"):
        parse_config(str(empty))

    broken = tmp_path / "broken.yaml"
    broken.write_text("kernel: [unclosed\n")
    with pytest.raises(ConfigError, match="not parseable"):
        parse_config(str(broken))

    good = tmp_path / "good.yaml"
    good.write_text(
        "kernel:\n"
        "  family: gamma\n"
        "  alpha: 1.05\n"
        "  beta: 0.5\n"
        "  gamma_disp: 0.3\n"
        "population:\n"
        "  n_agents: 50\n"
        "  steps: 5\n"
        "master_seed: 11\n"
    )
    cfg = parse_config(str(good))
    assert cfg.kernel.family == "gamma" and cfg.master_seed == 11


def test_shipped_configs_parse():
    flagship = parse_config(str(CONFIGS / "flagship.yaml"))
    assert flagship.kernel == KernelSpec(LOGNORMAL, alpha=1.02, beta=0.0,
                                         gamma_disp=0.2)
    assert flagship.n_agents == 100000 and flagship.steps == 1500
    assert flagship.master_seed == 42

    proportional = parse_config(str(CONFIGS / "proportional.yaml"))
    assert proportional.mode == "proportional"
    assert proportional.salary_fraction == pytest.approx(0.098039215686, rel=1e-9)

    search = parse_config(str(CONFIGS / "threshold_search.yaml"))
    assert search.search is not None and search.search.horizon == 800


def readme_config() -> dict:
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    return yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])


def test_readme_configuration_block_loads():
    # the documented surface is the schema: a key the README shows must load
    cfg = load_config(readme_config())
    assert cfg.mode == "proportional" and cfg.search is not None


def float_leaves(node, keys=()):
    """The key path of every float in a loaded YAML tree."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from float_leaves(value, (*keys, key))
        elif isinstance(value, float):
            yield (*keys, key)


def test_every_float_of_the_readme_block_must_be_finite():
    leaves = list(float_leaves(readme_config()))
    paths = ["".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]
             for keys in leaves]
    assert {"policy.salary_fraction", "search.tol", "bounds.kappa_grid[0]"} <= set(paths)
    # 10**400 is an integer past the float range
    for keys, path in zip(leaves, paths):
        for value in (math.nan, math.inf, -math.inf, 10**400):
            data = readme_config()
            node = data
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
            with pytest.raises(ConfigError) as raised:
                load_config(data)
            assert str(raised.value) == f"{path}: must be finite"


def edited(name: str, **sections) -> dict:
    """A shipped config with some section fields replaced, as the benchmark edits it."""
    data = yaml.safe_load((CONFIGS / name).read_text(encoding="utf-8"))
    for section, fields in sections.items():
        data.setdefault(section, {}).update(fields)
    return yaml.safe_load(yaml.safe_dump(data, sort_keys=True))


def pinned_configs():
    for path in sorted(CONFIGS.glob("*.yaml")):
        yield path.name, yaml.safe_load(path.read_text(encoding="utf-8"))
    yield "README.md", readme_config()
    yield "flagship.yaml at 200 steps", edited(
        "flagship.yaml", population={"steps": 200},
        output={"final_population": ".perfbench_work/final_population.txt"})
    yield "integrals.yaml with a gamma kernel", edited("integrals.yaml",
                                                       kernel={"family": "gamma"})


def test_parse_golden():
    # every field of every shipped and documented config, as load_config builds it
    text = "".join(f"{name}\n{load_config(data)!r}\n" for name, data in pinned_configs())
    assert text == PARSE_GOLDEN.read_text(encoding="utf-8")
