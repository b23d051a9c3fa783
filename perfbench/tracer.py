"""Span tracing of the ``adequacy`` package from outside it.

``Tracer.install()`` wraps every public function and public method of each
layer module, and rebinds each wrapped function at every name that refers to
it in any ``adequacy`` module. That matters because ``study``, ``risk``,
``dnw`` and ``cli`` use ``from .x import y``: patching only the defining
module would miss those calls. Each wrapper records a span (name, duration,
time covered by child spans) in memory; ``report()`` returns the totals.

A few spans also record counts taken from their results (``COUNTS``), and
the closure returned by ``study.pooled_pipeline`` is itself traced as
``uncertainty.replication``: it is the per-replication pipeline the block
bootstrap reruns. Spans assume one thread, so the CLI must run with a
single bootstrap worker.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "study", "ingest", "genmodel", "evt", "dnw", "pmf", "risk", "uncertainty")

# span name -> (counter name, amount taken from the span's result)
COUNTS = {
    "evt.fit_gpd": ("evt.fit_gpd.iterations", lambda r: r.iterations),
    "dnw.discretize": ("dnw.discretize.bins", len),
    "pmf.convolve": ("pmf.convolve.out_bins", len),
    "ingest.load_traces": ("ingest.load_traces.rows", lambda r: sum(len(t) for t in r)),
    "genmodel.convolve_fleet": ("genmodel.fleet_bins", len),
    "uncertainty.resample_indices": ("uncertainty.resample_indices.rows", lambda r: r.shape[0]),
}


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations_s": []})
        self.counters = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._keys: list[tuple[str, ...]] = []  # season multisets since the last block bootstrap

    def _record(self, name: str, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            span = self.spans[name]
            span["calls"] += 1
            span["total_s"] += elapsed
            span["self_s"] += elapsed - frame[0]
            span["durations_s"].append(elapsed)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            result = self._record(name, fn, args, kwargs)
            return self._after(name, result)

        return traced

    def _after(self, name: str, result):
        if name in COUNTS:
            counter, amount = COUNTS[name]
            self.counters[counter] += int(amount(result))
        elif name == "uncertainty.block_bootstrap":
            self.counters["uncertainty.block_bootstrap.replications"] += (
                result.replications_used + result.replications_dropped
            )
            self.counters["uncertainty.block_bootstrap.dropped"] += result.replications_dropped
            self.counters["uncertainty.block_bootstrap.distinct"] += len(set(self._keys))
            self._keys.clear()
        elif name == "study.pooled_pipeline":
            return self._replication(result)
        return result

    def _replication(self, pipeline):
        def traced(seasons):
            seasons = list(seasons)
            self._keys.append(tuple(sorted(s.season_label for s in seasons)))
            return self._record("uncertainty.replication", pipeline, (seasons,), {})

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        modules = {short: importlib.import_module(f"adequacy.{short}") for short in LAYERS}
        sites = [m for name, m in sys.modules.items() if name == "adequacy" or name.startswith("adequacy.")]
        wrapped = {}  # id of original -> (original, wrapper)
        for short, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            wrapped[id(fn)] = (fn, self.wrap(f"{short}.{name}.{method}", fn))
                            setattr(obj, method, wrapped[id(fn)][1])
        for site in sites:
            for attr, value in list(vars(site).items()):
                original, wrapper = wrapped.get(id(value), (None, None))
                if original is value:
                    setattr(site, attr, wrapper)
        for site in sites:  # no lookup site may still reach an unwrapped function
            for attr, value in vars(site).items():
                if wrapped.get(id(value), (None,))[0] is value:
                    raise RuntimeError(f"{site.__name__}.{attr} is still the untraced function")

    def report(self) -> dict:
        return {"spans": dict(self.spans), "counters": dict(self.counters)}
