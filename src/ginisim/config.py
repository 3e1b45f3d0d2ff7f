"""Run configuration: strict YAML parsing into validated dataclasses.

The file is a nested mapping; unknown keys anywhere are errors (no
silent typo acceptance), and every violation message carries the field
path.
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


_KERNEL_KEYS = {"family", "alpha", "beta", "gamma_disp"}
_POLICY_KEYS = {"mode", "salary_fraction"}
_POPULATION_KEYS = {"n_agents", "steps", "initial"}
# the keys each initial kind takes besides "kind", and whether each is required
_INITIAL_KEYS = {"point": {"value": False}, "uniform": {"low": True, "high": True},
                 "lognormal": {"mean": False, "cv": True}}
_BOUNDS_KEYS = {"kappa_grid", "kappa", "delta_stripe", "gamma_logderiv"}
_OUTPUT_KEYS = {"trajectory", "final_population"}
_INTEGRALS_KEYS = {"snapshot_step", "n_pairs", "n_trials", "a_values",
                   "delta_values", "x_diagonal"}
_SEARCH_KEYS = {"c_lo", "c_hi", "tol", "horizon"}
_TOP_KEYS = {"kernel", "policy", "population", "master_seed", "bounds", "output",
             "integrals", "search"}


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

    def bound_params(self) -> BoundParams:
        """The bound family's parameters: Gamma is ``gamma_logderiv`` or, if unset, calibrated.

        The calibration runs once per config object, so a run and the gates
        that fold its rows read one Gamma.
        """
        gamma = self.gamma_logderiv
        if gamma is None:
            if not self.kernel.has_density:
                raise ConfigError("bounds.gamma_logderiv: required for a deterministic "
                                  "kernel, which has no density to calibrate")
            gamma = self._calibrated_gamma
        return BoundParams(kappa=self.kappa, delta_stripe=self.delta_stripe,
                           gamma_inv_logderiv=gamma)

    @cached_property
    def _calibrated_gamma(self) -> float:
        return calibrate_log_derivative_bound(self.kernel, 1.0, self.master_seed)["gamma_inv"]

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


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        _fail(path, "expected a mapping")
    return node


def _reject_unknown(node: dict, allowed: set, path: str) -> None:
    for key in node:
        if key not in allowed:
            _fail(path, f"unknown key {key!r}")


def _to_float(value, path: str) -> float:
    if isinstance(value, bool):
        _fail(path, "expected a number")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        if value.strip().lower() in ("inf", "infinity", ".inf"):
            return math.inf
        try:
            return float(value)
        except ValueError:
            _fail(path, f"expected a number, got {value!r}")
    _fail(path, f"expected a number, got {type(value).__name__}")


def _to_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return int(value)


def _to_seed(value, path: str) -> int:
    seed = _to_int(value, path)
    if not 0 <= seed < 1 << 64:  # the streams key on 64 bits: no aliasing
        _fail(path, f"must be in [0, 2**64), got {seed}")
    return seed


def _to_float_tuple(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a non-empty list of numbers")
    return tuple(_to_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _parse_kernel(node, path: str) -> KernelSpec:
    node = _require_mapping(node, path)
    _reject_unknown(node, _KERNEL_KEYS, path)
    for key in ("family", "alpha", "gamma_disp"):
        if key not in node:
            _fail(path, f"missing required key {key!r}")
    kwargs = {"family": node["family"]}
    for key in ("alpha", "beta", "gamma_disp"):
        if key in node:
            kwargs[key] = _to_float(node[key], f"{path}.{key}")
            if not abs(kwargs[key]) < math.inf:
                _fail(f"{path}.{key}", "must be finite")
    if not isinstance(kwargs["family"], str):
        _fail(f"{path}.family", "expected a string")
    try:
        return KernelSpec(**kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_initial(node, path: str) -> InitialSpec:
    node = _require_mapping(node, path)
    kind = node.get("kind", "point")
    if not isinstance(kind, str) or kind not in _INITIAL_KEYS:
        _fail(f"{path}.kind", f"unknown initial condition {kind!r}")
    keys = _INITIAL_KEYS[kind]
    _reject_unknown(node, {"kind", *keys}, path)
    missing = [key for key, required in keys.items() if required and key not in node]
    if missing:
        _fail(path, f"initial kind {kind!r} needs keys {sorted(missing)}")
    params = {key: _to_float(node[key], f"{path}.{key}") for key in keys if key in node}
    for key, value in params.items():
        if not value < math.inf:
            _fail(f"{path}.{key}", "must be finite")
        if kind == "point" and not value >= 0.0:
            _fail(f"{path}.{key}", "must be nonnegative")
        if kind == "lognormal" and not value > 0.0:
            _fail(f"{path}.{key}", "must be positive")
    if kind == "uniform":
        if not params["low"] >= 0.0:
            _fail(f"{path}.low", "must be nonnegative")
        if not params["high"] > params["low"]:
            _fail(f"{path}.high", "must be greater than low")
    return InitialSpec(kind=kind, params=params)


def _parse_search(node, path: str) -> SearchSpec:
    node = _require_mapping(node, path)
    _reject_unknown(node, _SEARCH_KEYS, path)
    missing = _SEARCH_KEYS - node.keys()
    if missing:
        _fail(path, f"missing required keys {sorted(missing)}")
    spec = SearchSpec(
        c_lo=_to_float(node["c_lo"], f"{path}.c_lo"),
        c_hi=_to_float(node["c_hi"], f"{path}.c_hi"),
        tol=_to_float(node["tol"], f"{path}.tol"),
        horizon=_to_int(node["horizon"], f"{path}.horizon"),
    )
    if not spec.c_lo >= 0.0:
        _fail(f"{path}.c_lo", "must be >= 0")
    if not spec.c_lo < spec.c_hi < math.inf:
        _fail(f"{path}.c_hi", "must be finite and greater than c_lo")
    if not spec.tol > 0.0:
        _fail(f"{path}.tol", "must be positive")
    if spec.horizon < 1:
        _fail(f"{path}.horizon", "must be at least 1")
    return spec


def load_config(data: dict) -> RunConfig:
    """Validate an already-parsed mapping into a RunConfig."""
    data = _require_mapping(data, "")
    _reject_unknown(data, _TOP_KEYS, "")
    for key in ("kernel", "population"):
        if key not in data:
            _fail("", f"missing required section {key!r}")

    kernel = _parse_kernel(data["kernel"], "kernel")

    pop = _require_mapping(data["population"], "population")
    _reject_unknown(pop, _POPULATION_KEYS, "population")
    for key in ("n_agents", "steps"):
        if key not in pop:
            _fail("population", f"missing required key {key!r}")
    n_agents = _to_int(pop["n_agents"], "population.n_agents")
    steps = _to_int(pop["steps"], "population.steps")
    if n_agents < 2:
        _fail("population.n_agents", "need at least 2 agents")
    if steps < 0:
        _fail("population.steps", "must be nonnegative")
    initial = _parse_initial(pop["initial"], "population.initial") if "initial" in pop \
        else InitialSpec()

    kwargs: dict = dict(kernel=kernel, n_agents=n_agents, steps=steps, initial=initial)

    if "master_seed" in data:
        kwargs["master_seed"] = _to_seed(data["master_seed"], "master_seed")

    if "policy" in data:
        pol = _require_mapping(data["policy"], "policy")
        _reject_unknown(pol, _POLICY_KEYS, "policy")
        mode = pol.get("mode", "linear")
        if mode not in ("linear", "proportional"):
            _fail("policy.mode", f"unsupported mode {mode!r} (file configs support "
                  "'linear' and 'proportional')")
        kwargs["mode"] = mode
        if mode == "proportional":
            if "salary_fraction" not in pol:
                _fail("policy", "proportional mode needs 'salary_fraction'")
            c = _to_float(pol["salary_fraction"], "policy.salary_fraction")
            if c < 0.0:
                _fail("policy.salary_fraction", "must be >= 0")
            kwargs["salary_fraction"] = c
            # the simulation sets beta_t = c * mu_t, while verify-integrals
            # would check a kernel with the file's beta
            if kernel.beta != 0.0:
                _fail("kernel.beta", "must be 0 in proportional mode, where "
                      "beta_t = salary_fraction * mean")
        elif "salary_fraction" in pol:
            _fail("policy.salary_fraction", "only meaningful in proportional mode")

    if "bounds" in data:
        bnd = _require_mapping(data["bounds"], "bounds")
        _reject_unknown(bnd, _BOUNDS_KEYS, "bounds")
        if "kappa_grid" in bnd:
            kappas = _to_float_tuple(bnd["kappa_grid"], "bounds.kappa_grid")
            if any(not 0.0 < k for k in kappas):
                _fail("bounds.kappa_grid", "thresholds must be positive")
            kwargs["kappas"] = kappas
        if "kappa" in bnd:
            kwargs["kappa"] = _to_float(bnd["kappa"], "bounds.kappa")
        if "delta_stripe" in bnd:
            kwargs["delta_stripe"] = _to_float(bnd["delta_stripe"], "bounds.delta_stripe")
        if "gamma_logderiv" in bnd:
            g = _to_float(bnd["gamma_logderiv"], "bounds.gamma_logderiv")
            if not 0.0 < g < math.inf:  # an infinite Gamma passes every gate
                _fail("bounds.gamma_logderiv", "must be positive and finite")
            kwargs["gamma_logderiv"] = g

    if "output" in data:
        out = _require_mapping(data["output"], "output")
        _reject_unknown(out, _OUTPUT_KEYS, "output")
        if "trajectory" in out:
            kwargs["trajectory_out"] = str(out["trajectory"])
        if "final_population" in out:
            kwargs["final_population_out"] = str(out["final_population"])

    if "integrals" in data:
        integ = _require_mapping(data["integrals"], "integrals")
        _reject_unknown(integ, _INTEGRALS_KEYS, "integrals")
        for key in ("snapshot_step", "n_trials"):
            if key in integ:
                kwargs[key] = _to_int(integ[key], f"integrals.{key}")
                if kwargs[key] < 0:
                    _fail(f"integrals.{key}", "must be nonnegative")
        if "n_pairs" in integ:
            kwargs["n_pairs"] = _to_int(integ["n_pairs"], "integrals.n_pairs")
            if kwargs["n_pairs"] < 1:
                _fail("integrals.n_pairs", "must be positive")
        for key in ("a_values", "x_diagonal"):
            if key in integ:
                kwargs[key] = _to_float_tuple(integ[key], f"integrals.{key}")
                if any(not 0.0 < v < math.inf for v in kwargs[key]):
                    _fail(f"integrals.{key}", "values must be positive and finite")
        if "delta_values" in integ:
            deltas = _to_float_tuple(integ["delta_values"], "integrals.delta_values")
            # the stripe functional is defined for 0 <= delta < 0.2, and its
            # relative error against the closed form needs delta > 0
            if any(not 0.0 < d < 0.2 for d in deltas):
                _fail("integrals.delta_values", "values must be in (0, 0.2)")
            kwargs["delta_values"] = deltas

    if "search" in data:
        kwargs["search"] = _parse_search(data["search"], "search")

    cfg = RunConfig(**kwargs)
    try:  # Gamma is calibrated where a run uses it; without a density it must be set
        BoundParams(kappa=cfg.kappa, delta_stripe=cfg.delta_stripe)
        if not kernel.has_density:
            cfg.bound_params()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_config(path: str) -> RunConfig:
    """Read, parse, and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not parseable: {exc}")
    if data is None:
        raise ConfigError(f"{path}: empty config")
    return load_config(data)
