"""Layer spans and counters recorded from outside the library.

The tracer replaces a library function by a wrapper everywhere a caller looks
it up: in every loaded ``wickshe`` module namespace that holds it (``cli``
imports names with ``from .x import f``), in ``wickshe.cli.RUNNERS``, and on
the class for methods.  A span records (name, start, end, parent) in memory;
a count-only wrapper just bumps a counter.  ``summary()`` turns the spans into
inclusive and self seconds per layer name.

Standard library only: this module is imported by job processes before any
library code runs.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import math
import os
import sys
import threading
import time
from collections import Counter


def _path_steps(t: float, dt: float) -> int:
    """Number of steps of the library's path time grid (final step may be short)."""
    n_full = int(math.floor(t / dt + 1e-12))
    return n_full + (1 if t - n_full * dt > 1e-12 * max(t, 1.0) else 0)


def _ensemble_size(bound: inspect.BoundArguments) -> int:
    a = bound.arguments
    paths = a.get("n_paths", a.get("n_paths_b"))
    t = a.get("t", a.get("t_hi"))
    return int(paths) * _path_steps(float(t), float(a["dt"]))


def _spectral_steps(field) -> int:
    return len(field.indices) * max(round(t / field.dt) for t in field.snapshots)


# (span name, module, attribute); one name may cover several functions, and a
# span nested inside a span of the same name is not counted twice.
SPANS = [
    ("spectral.run", "wickshe.spectral", "SpectralChaosField.run"),
    ("spectral.eval", "wickshe.spectral", "SpectralChaosField.values_at"),
    ("propagator.sweep", "wickshe.propagator", "propagator_oracle"),
    ("coefficients.level_sweep", "wickshe.coefficients", "_level_sweep"),
    ("coefficients.kernel_matrix", "wickshe.coefficients", "CoefficientQuadrature.kernel_matrix"),
    ("kernels.semigroup", "wickshe.kernels", "apply_heat_semigroup"),
    ("kernels.semigroup", "wickshe.kernels", "apply_heat_semigroup_dx"),
    ("wiener_kernels.eval", "wickshe.wiener_kernels", "WienerKernel.__call__"),
    ("chain_moments.space", "wickshe.chain_moments", "space_increment_masses"),
    ("chain_moments.time", "wickshe.chain_moments", "time_increment_masses"),
    ("regularity.exact_curve", "wickshe.regularity", "exact_increment_curve"),
    ("regularity.lt_temporal", "wickshe.regularity", "local_time_temporal_increment_check"),
    ("regularity.lt_increment", "wickshe.regularity", "local_time_increment_check"),
    ("feynman_kac.fk_estimate", "wickshe.feynman_kac", "fk_conditional_estimate"),
    ("feynman_kac.stransform", "wickshe.feynman_kac", "s_transform_mc"),
    ("feynman_kac.stransform", "wickshe.feynman_kac", "s_transform_dx_mc"),
    ("feynman_kac.localtime", "wickshe.feynman_kac", "local_time_ensemble_stats"),
    ("feynman_kac.psi_law", "wickshe.feynman_kac", "psi_law_stats"),
    ("chaos.s_transform", "wickshe.chaos", "s_transform_chaos"),
    ("chaos.s_transform", "wickshe.chaos", "s_transform_tail_estimate"),
    ("cli.write", "wickshe.cli", "write_csv"),
    ("cli.write", "wickshe.cli", "_write_report"),
    ("config.parse", "wickshe.cli", "parse_config"),
]

# calls too frequent or too small for a span: counted only
COUNTS = [
    ("propagator.solve_calls", "wickshe.propagator", "solve_banded"),
    ("streams.substreams", "wickshe.streams", "substream"),
]

# counters derived from a traced call: name -> (function, args, result) -> int
DERIVED = {
    ("wickshe.spectral", "SpectralChaosField.run"):
        ("spectral.index_steps", lambda b, r: _spectral_steps(b.arguments["self"])),
    ("wickshe.cli", "write_csv"):
        ("cli.bytes_written", lambda b, r: os.path.getsize(r)),
}
for _name in ("fk_conditional_estimate", "s_transform_mc", "s_transform_dx_mc",
              "local_time_ensemble_stats", "psi_law_stats"):
    DERIVED[("wickshe.feynman_kac", _name)] = (
        "feynman_kac.path_steps", lambda b, r: _ensemble_size(b))
for _name in ("local_time_temporal_increment_check", "local_time_increment_check"):
    DERIVED[("wickshe.regularity", _name)] = (
        "feynman_kac.path_steps", lambda b, r: _ensemble_size(b))

# path-ensemble spans whose inclusive time is divided by feynman_kac.path_steps
PATH_SPANS = ("feynman_kac.fk_estimate", "feynman_kac.stransform", "feynman_kac.localtime",
              "feynman_kac.psi_law", "regularity.lt_temporal", "regularity.lt_increment")


class Tracer:
    """In-memory spans (one stack per thread) and locked counters."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1):
        with self._lock:
            self.counters[name] += n

    def span_wrapper(self, fn, name: str, derived=None):
        sig = inspect.signature(fn) if derived else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if derived:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.count(derived[0], int(derived[1](bound, result)))
            return result
        return wrapper

    def count_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def summary(self) -> dict:
        """{'spans': {name: {inclusive_s, self_s, calls}}, 'counters': {...}}."""
        done = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in done:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent = span
            rec = out.setdefault(name, {"inclusive_s": 0.0, "self_s": 0.0, "calls": 0})
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child_time[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and self.spans[p] is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0 or self.spans[p] is None:
                rec["inclusive_s"] += end - start
        return {"spans": out, "counters": dict(self.counters)}


def _patch(module: str, attr: str, make):
    """Replace module.attr by make(original) wherever callers look it up."""
    if module not in sys.modules:  # library jobs never import the CLI
        return
    obj = sys.modules[module]
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    fn = getattr(obj, leaf)
    wrapped = make(fn)
    if inspect.isclass(obj):
        setattr(obj, leaf, wrapped)
        return
    for modname, mod in list(sys.modules.items()):
        if modname == "wickshe" or modname.startswith("wickshe."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


def install(tracer: Tracer):
    """Wrap every SPANS/COUNTS target and every CLI runner."""
    for name, module, attr in SPANS:
        derived = DERIVED.get((module, attr))
        _patch(module, attr, lambda fn, n=name, d=derived: tracer.span_wrapper(fn, n, d))
    for name, module, attr in COUNTS:
        _patch(module, attr, lambda fn, n=name: tracer.count_wrapper(fn, n))
    cli = sys.modules.get("wickshe.cli")
    if cli is not None:
        for sub, fn in list(cli.RUNNERS.items()):
            cli.RUNNERS[sub] = tracer.span_wrapper(fn, "cli." + sub.replace("-", "_"))


class ImportTimer(importlib.abc.MetaPathFinder):
    """Times the execution of chosen module bodies (nested imports included)."""

    def __init__(self, names: dict[str, str]):
        self.names = names              # module -> metric name
        self.seconds: dict[str, float] = {}

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.names:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        loader, metric, seconds = spec.loader, self.names[fullname], self.seconds
        exec_module = loader.exec_module

        def timed_exec(module):
            start = time.perf_counter()
            try:
                exec_module(module)
            finally:
                seconds[metric] = seconds.get(metric, 0.0) + time.perf_counter() - start
        loader.exec_module = timed_exec
        return spec
