"""Span tracer that instruments ginisim from outside the package.

`Tracer.install` replaces every public function of each layer module
(plus `metrics._checked`) with a timing wrapper, in every ginisim module
namespace that holds a reference to it, so calls made through
`from .x import f` bindings are caught too.  It also wraps
`PopulationState.__init__` and swaps each module's `np` for a proxy that
counts `np.sort` / `np.argsort`.  `uninstall` puts every original back.

Spans are aggregated in memory as they close: per function the call
count, total time, self time (duration minus the time its direct child
spans cover) and, where defined, an item count.  Each thread keeps its
own span stack; spans opened on worker threads are roots.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np

LAYERS = ("streams", "kernels", "dynamics", "metrics", "bounds",
          "experiments", "verification", "config", "cli")

# Private functions traced anyway: the per-step validation point.
EXTRA = {"metrics._checked"}

# Item counts recorded alongside the span (draws per noise call).
ITEMS = {"kernels.unit_mean_noise": lambda args, kwargs: np.size(args[2] if len(args) > 2
                                                                 else kwargs["u"])}

SORT_COUNTER = "np.sort+argsort"


class Stat:
    __slots__ = ("calls", "total", "self", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.items = 0


class _CountingNumpy:
    """Stands in for `numpy` inside a ginisim module; counts sorts."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __getattr__(self, name):
        value = getattr(np, name)
        self.__dict__[name] = value  # later lookups skip __getattr__
        return value

    def sort(self, *args, **kwargs):
        self._tracer.count(SORT_COUNTER)
        return np.sort(*args, **kwargs)

    def argsort(self, *args, **kwargs):
        self._tracer.count(SORT_COUNTER)
        return np.argsort(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------

    def reset(self) -> None:
        self.stats = {}
        self.counters = {}

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, t0: float, frame: list, stack: list,
               calls: int, items: int) -> None:
        dur = time.perf_counter() - t0
        stack.pop()
        if stack:
            stack[-1][0] += dur
        with self._lock:
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = Stat()
            st.calls += calls
            st.total += dur
            st.self += dur - frame[0]
            st.items += items

    def _wrap(self, name: str, fn):
        items_of = ITEMS.get(name)

        if inspect.isgeneratorfunction(fn):
            # One call per generator created; every resumption is a span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                calls = 1
                try:
                    while True:
                        stack = self._stack()
                        frame = [0.0]
                        stack.append(frame)
                        t0 = time.perf_counter()
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._close(name, t0, frame, stack, calls, 0)
                            calls = 0
                        yield value
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                items = items_of(args, kwargs) if items_of else 0
                self._close(name, t0, frame, stack, 1, items)
        return wrapper

    # --- patching ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        layer_mods = {layer: importlib.import_module(f"ginisim.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in layer_mods.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in EXTRA)):
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        counting_np = _CountingNumpy(self)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ginisim" or mod_name.startswith("ginisim.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
                elif obj is np:
                    self._patch(mod, attr, counting_np)
        state = layer_mods["dynamics"].PopulationState
        self._patch(state, "__init__", self._wrap("dynamics.PopulationState", state.__init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
