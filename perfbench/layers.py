"""Per-layer timing for the traced run.

:class:`LayerTracer` wraps the public functions of each ``repro`` layer
from outside the package and books, per wrapped function, its call count,
inclusive wall time and self time (wall time minus time spent in other
wrapped functions it called).  It touches no ``repro`` source and turns on
none of the package's own observability (``--profile``/``--telemetry``
move table-mode days off the batched fast path), so the traced run takes
the same code path as the timed run, plus the wrapper cost.

Functions imported by name into other modules are replaced there too, so
every call site sees the wrapper.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter, defaultdict

#: metric stem -> (module, attribute path) of each wrapped public function.
TARGETS = {
    "environment.generate_trace": ("repro.environment.irradiance", "generate_trace"),
    "pv.find_mpp": ("repro.pv.mpp", "find_mpp"),
    "power.solve_operating_point": ("repro.power.operating_point", "solve_operating_point"),
    "power.get_surfaces": ("repro.power.surface", "get_surfaces"),
    "power.surface_operating_point": ("repro.power.surface", "OperatingSurfaces.operating_point"),
    "multicore.total_power_at": ("repro.multicore.chip", "MultiCoreChip.total_power_at"),
    "core.day_engine": ("repro.core.engine", "DayEngine.run"),
    "core.controller_track": ("repro.core.controller", "SolarCoreController.track"),
    "core.run_fast": ("repro.core.fastday", "run_fast"),
    "harness.prefetch": ("repro.harness.runner", "SimulationRunner.prefetch"),
    "harness.compute_task": ("repro.harness.parallel", "compute_task"),
    "harness.disk_store": ("repro.harness.parallel", "DiskResultCache.store"),
    "harness.disk_load": ("repro.harness.parallel", "DiskResultCache.load"),
}

#: Layers whose metric is inclusive wall time rather than self time.
INCLUSIVE = ("harness.prefetch", "harness.compute_task", "harness.disk_store",
             "harness.disk_load", "power.get_surfaces")

#: Every per-layer metric name, in report order.
METRICS = (
    "cli.import_s",
    "environment.generate_trace_s", "environment.generate_trace_calls",
    "pv.find_mpp_s", "pv.find_mpp_calls",
    "power.solve_operating_point_s", "power.solve_operating_point_calls",
    "power.get_surfaces_s",
    "power.surface_operating_point_s", "power.surface_operating_point_calls",
    "multicore.total_power_at_s", "multicore.total_power_at_calls",
    "core.day_engine_s", "core.controller_track_s", "core.controller_track_calls",
    "core.tracking_events", "core.run_fast_s",
    "harness.prefetch_s", "harness.compute_task_s", "harness.sched_s",
    "harness.computes", "harness.disk_store_s", "harness.disk_load_s",
    "harness.disk_hits",
    "service.ack_s", "service.queue_wait_s", "service.run_s",
    "service.cache_hits", "service.coalesced",
    "service.restart_ready_s", "service.journal_replay_s", "service.lease_wait_s",
)

UNITS = {name: ("s" if name.endswith("_s") else "count") for name in METRICS}


class LayerTracer:
    """Call counts, inclusive and self wall time per wrapped function."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.incl_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        #: compute_task wall spent inside a prefetch (for harness.sched_s).
        self.compute_in_prefetch_s = 0.0
        self.disk_hits = 0
        self.tracking_events = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []

    # -- wrapping --------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                in_prefetch = any(f[0] == "harness.prefetch" for f in stack)
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.incl_s[name] += elapsed
                    tracer.self_s[name] += elapsed - frame[1]
                    if name == "harness.compute_task" and in_prefetch:
                        tracer.compute_in_prefetch_s += elapsed
            if name == "harness.disk_load" and result is not None and kwargs.get("count", True):
                with tracer._lock:
                    tracer.disk_hits += 1
            elif name == "core.day_engine":
                with tracer._lock:
                    tracer.tracking_events += getattr(result, "tracking_events", 0)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> "LayerTracer":
        """Wrap every target (imports the layers; idempotent per process)."""
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(name, original))
                self._undo.append((owner, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            # Rebind the name wherever it was imported by value.
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and \
                        getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- report ----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer values for every traced function (zeros where unused)."""
        out: dict[str, float] = {}
        for name in TARGETS:
            seconds = self.incl_s[name] if name in INCLUSIVE else self.self_s[name]
            out[f"{name}_s"] = seconds
            out[f"{name}_calls"] = self.calls[name]
        out["harness.sched_s"] = max(
            0.0, self.incl_s["harness.prefetch"] - self.compute_in_prefetch_s)
        out["harness.computes"] = self.calls["harness.compute_task"]
        out["harness.disk_hits"] = self.disk_hits
        out["core.tracking_events"] = self.tracking_events
        return out


def merge(into: dict[str, float], other: dict[str, float]) -> None:
    """Add ``other``'s per-layer values into ``into``."""
    for name, value in other.items():
        into[name] = into.get(name, 0) + value


def report(values: dict[str, float]) -> dict[str, dict]:
    """The per-layer block of the result line: every metric, 0 if unmeasured."""
    return {
        name: {"value": values.get(name, 0), "unit": UNITS[name]}
        for name in METRICS
    }
