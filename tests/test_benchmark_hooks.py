"""The benchmark's per-layer metrics read the spans of library functions by
name; a rename would silently zero those metrics, so the names are pinned."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Metrics the tracer derives from counters or several spans, not one function.
DERIVED = {"metrics.sorts_per_step", "metrics.validations_per_step", "experiments.probes",
           "trace.overhead_frac"}
SUFFIXES = (".ms_per_call.threads2", ".ms_per_call", ".s_per_call", ".draws_per_s", ".calls",
            ".ms", ".s")
# Deleted from the library while its metric stays listed (ROADMAP item 11).
GONE = {"streams.probe_uniforms"}


def hooked_names() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = set()
    for metric in bench["per_layer"]:
        name = metric["name"]
        if name in DERIVED or name.endswith(".self_s"):
            continue
        suffix = next(s for s in SUFFIXES if name.endswith(s))
        names.add(name[: -len(suffix)])
    return sorted(names - GONE)


@pytest.mark.parametrize("name", hooked_names())
def test_benchmark_hooked_names_exist(name):
    layer, _, attr = name.rpartition(".")
    module = importlib.import_module(f"ginisim.{layer}")
    obj = getattr(module, attr, None)
    assert obj is not None, f"{name} is gone; its per-layer metric would read 0"
    # the tracer wraps only functions defined in the layer module itself
    assert inspect.isclass(obj) or obj.__module__ == module.__name__
