"""Run configuration: strict YAML parsing into validated dataclasses.

The file is a nested mapping; unknown keys anywhere are errors (no
silent typo acceptance), every number must be finite, and every
violation message carries the field path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import yaml

from .bounds import BoundParams
from .dynamics import GrowthPolicy, make_initial
from .kernels import KernelSpec
from .verification import calibrate_log_derivative_bound


class ConfigError(ValueError):
    """Configuration file invalid; message includes the field path."""


# the keys each initial kind takes besides "kind", and whether each is required
_INITIAL_KEYS = {"point": {"value": False}, "uniform": {"low": True, "high": True},
                 "lognormal": {"mean": False, "cv": True}}
_SEARCH_KEYS = {"c_lo", "c_hi", "tol", "horizon"}


@dataclass(frozen=True)
class InitialSpec:
    kind: str = "point"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SearchSpec:
    c_lo: float
    c_hi: float
    tol: float
    horizon: int


@dataclass(frozen=True)
class RunConfig:
    kernel: KernelSpec
    n_agents: int
    steps: int
    master_seed: int = 0
    mode: str = "linear"
    salary_fraction: float | None = None
    initial: InitialSpec = field(default_factory=InitialSpec)
    kappas: tuple[float, ...] = (0.1, 0.25)
    kappa: float = 0.25
    delta_stripe: float = 0.05
    gamma_logderiv: float | None = None
    trajectory_out: str | None = None
    final_population_out: str | None = None
    snapshot_step: int = 30
    n_pairs: int = 2000
    n_trials: int = 6
    a_values: tuple[float, ...] = (0.5, 1.0, 10.0)
    delta_values: tuple[float, ...] = (0.001, 0.01, 0.05)
    x_diagonal: tuple[float, ...] = (1.0, 10.0, 100.0)
    search: SearchSpec | None = None

    @cached_property
    def calibration(self) -> dict:
        """The kernel's log-derivative calibration at x = 1 under the run's seed.

        Measured once per config object, so a run, the gates that fold its
        rows and the verify-integrals report read one Gamma.
        """
        return calibrate_log_derivative_bound(self.kernel, 1.0, self.master_seed)

    def bound_params(self) -> BoundParams:
        """The bound family's parameters: Gamma is ``gamma_logderiv`` or, if unset, calibrated."""
        gamma = self.gamma_logderiv
        if gamma is None:
            if not self.kernel.has_density:
                raise ConfigError("bounds.gamma_logderiv: required for a deterministic "
                                  "kernel, which has no density to calibrate")
            gamma = self.calibration["gamma_inv"]
        return BoundParams(kappa=self.kappa, delta_stripe=self.delta_stripe,
                           gamma_inv_logderiv=gamma)

    def build_policy(self) -> GrowthPolicy:
        if self.mode == "linear":
            return GrowthPolicy.linear()
        if self.mode == "proportional":
            return GrowthPolicy.proportional(self.salary_fraction)
        raise ConfigError(f"policy.mode: unsupported mode {self.mode!r}")

    def build_initial(self, master_seed: int | None = None):
        seed = self.master_seed if master_seed is None else master_seed
        return make_initial(self.n_agents, self.initial.kind, seed,
                            **self.initial.params)

    def with_overrides(self, seed: int | None = None, out: str | None = None) -> "RunConfig":
        cfg = self
        if seed is not None:
            cfg = replace(cfg, master_seed=_to_seed(seed, "--seed"))
        if out is not None:
            cfg = replace(cfg, trajectory_out=out)
        return cfg


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}" if path else msg)


def _section(node, path: str, optional, required=()) -> dict:
    """``node`` as a mapping with every key of ``required`` and none outside both."""
    if not isinstance(node, dict):
        _fail(path, "expected a mapping")
    for key in node:
        if key not in optional and key not in required:
            _fail(path, f"unknown key {key!r}")
    for key in required:
        if key not in node:
            _fail(path, f"missing required key {key!r}")
    return node


def _in_range(number, path, message, at_least=-math.inf, above=-math.inf, below=math.inf):
    if not (at_least <= number < below and number > above):
        _fail(path, message)
    return number


def _to_float(value, path: str, message: str = "", **rule) -> float:
    """``value`` as a finite float that keeps ``rule`` (see ``_in_range``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:  # YAML spells the non-finite numbers .inf and .nan
        number = float(value.lower().replace(".inf", "inf").replace(".nan", "nan")
                       if isinstance(value, str) else value)
    except ValueError:
        _fail(path, f"expected a number, got {value!r}")
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        _fail(path, "must be finite")
    return _in_range(number, path, message, **rule)


def _to_int(value, path: str, message: str = "", **rule) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return _in_range(value, path, message, **rule)


def _to_seed(value, path: str) -> int:
    seed = _to_int(value, path)  # the streams key on 64 bits: no aliasing
    return _in_range(seed, path, f"must be in [0, 2**64), got {seed}", at_least=0, below=2**64)


def _to_floats(value, path: str, message: str, **rule) -> tuple[float, ...]:
    """A non-empty list of finite floats; ``message`` names the list, not the entry."""
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a non-empty list of numbers")
    return tuple(_in_range(_to_float(v, f"{path}[{i}]"), path, message, **rule)
                 for i, v in enumerate(value))


def _parse_kernel(node, path: str) -> KernelSpec:
    node = _section(node, path, {"beta"}, ("family", "alpha", "gamma_disp"))
    kwargs = {key: _to_float(value, f"{path}.{key}") for key, value in node.items()
              if key != "family"}
    if not isinstance(node["family"], str):
        _fail(f"{path}.family", "expected a string")
    try:
        return KernelSpec(family=node["family"], **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_initial(node, path: str) -> InitialSpec:
    kind = node.get("kind", "point") if isinstance(node, dict) else "point"
    if not isinstance(kind, str) or kind not in _INITIAL_KEYS:
        _fail(f"{path}.kind", f"unknown initial condition {kind!r}")
    keys = _INITIAL_KEYS[kind]
    node = _section(node, path, {"kind", *keys})
    missing = [key for key, required in keys.items() if required and key not in node]
    if missing:
        _fail(path, f"initial kind {kind!r} needs keys {sorted(missing)}")
    params = {}
    for key in (key for key in keys if key in node):
        if kind == "lognormal" or key == "value":  # a zero mean leaves the Gini undefined
            message, rule = "must be positive", {"above": 0.0}
        elif key == "high":
            message, rule = "must be greater than low", {"above": params["low"]}
        else:
            message, rule = "must be nonnegative", {"at_least": 0.0}
        params[key] = _to_float(node[key], f"{path}.{key}", message, **rule)
    return InitialSpec(kind=kind, params=params)


def _parse_search(node, path: str) -> SearchSpec:
    node = _section(node, path, _SEARCH_KEYS)
    missing = _SEARCH_KEYS - node.keys()
    if missing:
        _fail(path, f"missing required keys {sorted(missing)}")
    c_lo = _to_float(node["c_lo"], f"{path}.c_lo", "must be >= 0", at_least=0.0)
    c_hi = _to_float(node["c_hi"], f"{path}.c_hi", "must be finite and greater than c_lo",
                     above=c_lo)
    tol = _to_float(node["tol"], f"{path}.tol", "must be positive", above=0.0)
    horizon = _to_int(node["horizon"], f"{path}.horizon", "must be at least 1", at_least=1)
    return SearchSpec(c_lo=c_lo, c_hi=c_hi, tol=tol, horizon=horizon)


def load_config(data: dict) -> RunConfig:
    """Validate an already-parsed mapping into a RunConfig."""
    data = _section(data, "", {"kernel", "policy", "population", "master_seed", "bounds",
                               "output", "integrals", "search"})
    for key in ("kernel", "population"):
        if key not in data:
            _fail("", f"missing required section {key!r}")
    kernel = _parse_kernel(data["kernel"], "kernel")
    pop = _section(data["population"], "population", {"initial"}, ("n_agents", "steps"))
    kwargs: dict = dict(
        kernel=kernel,
        n_agents=_to_int(pop["n_agents"], "population.n_agents", "need at least 2 agents",
                         at_least=2),
        steps=_to_int(pop["steps"], "population.steps", "must be nonnegative", at_least=0),
        initial=_parse_initial(pop.get("initial", {}), "population.initial"),
    )
    if "master_seed" in data:
        kwargs["master_seed"] = _to_seed(data["master_seed"], "master_seed")

    pol = _section(data.get("policy", {}), "policy", {"mode", "salary_fraction"})
    mode = kwargs["mode"] = pol.get("mode", "linear")
    if mode not in ("linear", "proportional"):
        _fail("policy.mode", f"unsupported mode {mode!r} (file configs support "
              "'linear' and 'proportional')")
    if mode == "proportional":
        if "salary_fraction" not in pol:
            _fail("policy", "proportional mode needs 'salary_fraction'")
        kwargs["salary_fraction"] = _to_float(pol["salary_fraction"], "policy.salary_fraction",
                                              "must be >= 0", at_least=0.0)
        # the simulation sets beta_t = c * mu_t, while verify-integrals
        # would check a kernel with the file's beta
        if kernel.beta != 0.0:
            _fail("kernel.beta", "must be 0 in proportional mode, where "
                  "beta_t = salary_fraction * mean")
    elif "salary_fraction" in pol:
        _fail("policy.salary_fraction", "only meaningful in proportional mode")

    bnd = _section(data.get("bounds", {}), "bounds",
                   {"kappa_grid", "kappa", "delta_stripe", "gamma_logderiv"})
    if "kappa_grid" in bnd:
        kwargs["kappas"] = _to_floats(bnd["kappa_grid"], "bounds.kappa_grid",
                                      "thresholds must be positive", above=0.0)
    for key, interval, below in (("kappa", "(0, 1/2)", 0.5), ("delta_stripe", "(0, 1)", 1.0)):
        if key in bnd:  # the range and message of BoundParams, with the field path
            number = _to_float(bnd[key], f"bounds.{key}")
            kwargs[key] = _in_range(number, f"bounds.{key}",
                                    f"must be in {interval}, got {number}", above=0.0, below=below)
    # a run names each threshold's CSV column and record by its :g form,
    # which is monotone in the value: only neighbours can print alike
    kappas = sorted({*kwargs.get("kappas", RunConfig.kappas), kwargs.get("kappa", RunConfig.kappa)})
    for lo, hi in zip(kappas, kappas[1:]):
        if f"{lo:g}" == f"{hi:g}":
            _fail("bounds.kappa_grid", f"thresholds {lo!r} and {hi!r} share the name {lo:g}")
    if "gamma_logderiv" in bnd:
        kwargs["gamma_logderiv"] = _to_float(bnd["gamma_logderiv"], "bounds.gamma_logderiv",
                                             "must be positive and finite", above=0.0)

    out = _section(data.get("output", {}), "output", {"trajectory", "final_population"})
    for key in out:  # each names a file: the field trajectory_out or final_population_out
        kwargs[f"{key}_out"] = str(out[key])

    integ = _section(data.get("integrals", {}), "integrals", {
        "snapshot_step", "n_pairs", "n_trials", "a_values", "delta_values", "x_diagonal"})
    for key in ("snapshot_step", "n_trials"):
        if key in integ:
            kwargs[key] = _to_int(integ[key], f"integrals.{key}", "must be nonnegative",
                                  at_least=0)
    if "n_pairs" in integ:
        kwargs["n_pairs"] = _to_int(integ["n_pairs"], "integrals.n_pairs", "must be positive",
                                    at_least=1)
    for key in ("a_values", "x_diagonal"):
        if key in integ:
            kwargs[key] = _to_floats(integ[key], f"integrals.{key}",
                                     "values must be positive and finite", above=0.0)
    if "delta_values" in integ:
        # the stripe functional is defined for 0 <= delta < 0.2, and its
        # relative error against the closed form needs delta > 0
        kwargs["delta_values"] = _to_floats(integ["delta_values"], "integrals.delta_values",
                                            "values must be in (0, 0.2)", above=0.0, below=0.2)

    if "search" in data:
        kwargs["search"] = _parse_search(data["search"], "search")

    cfg = RunConfig(**kwargs)
    if not kernel.has_density:  # Gamma is calibrated where a run uses it; here it must be set
        cfg.bound_params()
    return cfg


def parse_config(path: str) -> RunConfig:
    """Read, parse, and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not parseable: {exc}")
    if data is None:
        raise ConfigError(f"{path}: empty config")
    return load_config(data)
