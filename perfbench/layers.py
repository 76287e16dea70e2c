"""Layer tracing from outside the simulator.

:class:`LayerTracer` wraps the public entry points of each ``repro``
module (the *layers*) for the duration of a traced run and restores
them afterwards.  Nothing inside ``src/`` is edited: every span is
recorded by a wrapper installed from here.

Event-level spans (a cache access, an engine callback) are far too many
to keep one by one - ``mshr_stall`` dispatches millions of events - so
each is folded into an aggregate keyed by ``(layer, name, parent
layer)``: call count, total seconds and seconds covered by child spans.
Only *boundary* spans (a closed-loop unit, a ``System`` phase, a
``Session`` call, a service job or grid call) are kept whole, as
``(name, start, end, parent, run id)`` records.  Self time of a layer is
its spans' total minus their child time.

Two wrapping rules follow from how the simulator binds its methods:

* ``Cache.__init__`` rebinds ``access`` on each instance, so a wrapper
  on the class method would catch nothing.  The tracer wraps
  ``System.__init__`` and, once the original has built the machine,
  replaces each cache's instance ``access`` attribute.
* Engine callbacks such as ``Core._tick`` are private.  The tracer wraps
  the public ``Engine.schedule`` instead and substitutes a dispatcher
  that attributes each callback to the layer of the module defining it.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The simulator's modules, in the order reports list them.
LAYERS = ("workloads", "cpu", "cache", "prefetch", "core", "dram", "sim",
          "experiment", "sampling", "adaptive", "service")

#: Spans kept whole (everything else is aggregated).
_BOUNDARY_NAMES = frozenset({
    "unit", "System.run", "System.warm_up", "System.run_sampled",
    "Session.run", "Session.run_one", "Session.run_adaptive",
    "ExperimentService.submit", "ExperimentService.result_set",
    "ExperimentService.drain",
})

#: Entry points wrapped on their class: (module, class, methods, layer).
_METHODS = (
    ("repro.cache.cache", "Cache", ("read", "writeback", "warm_access"),
     "cache"),
    ("repro.prefetch.base", "Prefetcher", ("on_access",), "prefetch"),
    ("repro.core.blp_tracker", "BLPTracker",
     ("mark_writeback", "is_pending", "popcount"), "core"),
    ("repro.sim.memctrl", "MemoryController", ("read", "writeback"), "sim"),
    ("repro.dram.channel", "Channel", ("submit",), "dram"),
    ("repro.dram.subchannel", "SubChannel",
     ("earliest_burst", "tick", "enqueue_read", "enqueue_write"), "dram"),
    ("repro.cpu.core", "Core", ("warm_up", "skip_trace"), "cpu"),
    ("repro.sim.system", "System", ("run", "warm_up"), "sim"),
    ("repro.sim.system", "System", ("run_sampled",), "sampling"),
    ("repro.sim.engine", "Engine", ("run", "run_for"), "sim"),
    ("repro.experiment.session", "Session", ("run", "run_one"),
     "experiment"),
    ("repro.experiment.session", "Session", ("run_adaptive",), "adaptive"),
)

#: Classes whose every public method is an entry point: (module, class,
#: layer).
_PUBLIC_METHODS = (
    ("repro.adaptive.planner", "AdaptivePlanner", "adaptive"),
    ("repro.service.queue", "JobQueue", "service"),
    ("repro.service.store", "ResultStore", "service"),
    ("repro.service.service", "ExperimentService", "service"),
)

_clock = time.perf_counter


def layer_of(module: str) -> str:
    """Layer name for a dotted module path (``repro.cache.cache`` -> cache)."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class _ThreadState(threading.local):
    """One thread's open spans and aggregate table.

    ``threading.local`` runs ``__init__`` once per thread; the table is
    registered with the tracer then, so :meth:`LayerTracer.aggregates`
    can merge every thread's table without a lock on the hot path.
    """

    def __init__(self, tables: List[Dict[Any, List[float]]],
                 lock: threading.Lock) -> None:
        self.stack: List[List[Any]] = []
        self.table: Dict[Tuple[str, str, str], List[float]] = {}
        with lock:
            tables.append(self.table)


class LayerTracer:
    """Aggregating span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: One aggregate table per thread, merged by :meth:`aggregates`.
        self._tables: List[Dict[Tuple[str, str, str], List[float]]] = []
        self._local = _ThreadState(self._tables, self._lock)
        self.spans: List[Dict[str, Any]] = []
        self.run_id = ""
        self.systems: List[Any] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._dispatch_keys: Dict[Any, Tuple[str, str]] = {}

    # -- recording -----------------------------------------------------

    def call(self, layer: str, name: str, fn: Callable[..., Any],
             *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span of ``layer``; returns its result."""
        local = self._local
        stack = local.stack
        parent = stack[-1] if stack else None
        frame = [layer, name, 0.0]
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            key = (layer, name, parent[0] if parent else "root")
            table = local.table
            entry = table.get(key)
            if entry is None:
                entry = table[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += frame[2]
            if parent is not None:
                parent[2] += duration
            if name in _BOUNDARY_NAMES:
                with self._lock:
                    self.spans.append({
                        "name": name, "layer": layer, "start": start,
                        "end": end,
                        "parent": parent[1] if parent else None,
                        "run": self.run_id,
                        "thread": threading.current_thread().name})

    def aggregates(self) -> Dict[Tuple[str, str, str], List[float]]:
        """Every thread's aggregates merged: key -> [count, total, child]."""
        merged: Dict[Tuple[str, str, str], List[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (count, total, child) in table.items():
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += child
        return merged

    def calls(self, layer: str, name: Optional[str] = None) -> int:
        """Calls recorded for a layer (optionally one entry point)."""
        return sum(int(v[0]) for k, v in self.aggregates().items()
                   if k[0] == layer and (name is None or k[1] == name))

    def total_s(self, layer: str, name: str) -> float:
        """Total seconds spent in one named entry point of a layer."""
        return sum(v[1] for k, v in self.aggregates().items()
                   if k[0] == layer and k[1] == name)

    def self_s(self, layer: str) -> float:
        """Seconds spent in a layer's own code (children excluded)."""
        return sum(v[1] - v[2] for k, v in self.aggregates().items()
                   if k[0] == layer)

    # -- patching ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls: type, attr: str, layer: str,
                     name: Optional[str] = None) -> None:
        original = cls.__dict__[attr]
        label = name or f"{cls.__name__}.{attr}"
        call = self.call

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(layer, label, original, *args, **kwargs)

        self._patch(cls, attr, wrapper)

    def _wrap_public(self, cls: type, layer: str) -> None:
        """Wrap every public plain method a class defines itself."""
        for attr, value in list(cls.__dict__.items()):
            if attr.startswith("_") or not callable(value) or \
                    isinstance(value, (staticmethod, classmethod, type)):
                continue
            self._wrap_method(cls, attr, layer)

    def _wrap_instance(self, obj: Any, attr: str, layer: str,
                       label: str) -> None:
        original = getattr(obj, attr)
        call = self.call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(layer, label, original, *args, **kwargs)

        setattr(obj, attr, wrapper)

    def _subclasses(self, cls: type) -> List[type]:
        found, todo = [], [cls]
        while todo:
            current = todo.pop()
            found.append(current)
            todo.extend(current.__subclasses__())
        return found

    def install(self) -> None:
        """Patch every layer boundary the source tree has.

        Entry points an older tree lacks (no experiment layer, no
        service) are skipped, so a reference tree can be traced too.
        """
        for module, cls_name, attrs, layer in _METHODS:
            cls = _find(module, cls_name)
            for attr in attrs:
                if cls is not None and attr in cls.__dict__:
                    self._wrap_method(cls, attr, layer)
        for module, cls_name, layer in _PUBLIC_METHODS:
            cls = _find(module, cls_name)
            if cls is not None:
                self._wrap_public(cls, layer)
        # Policies register as subclasses once their modules are imported.
        importlib.import_module("repro.cache.writeback")
        importlib.import_module("repro.core.bard")
        for cls in self._subclasses(
                _find("repro.cache.writeback.base", "WritebackPolicy")):
            if "choose_victim" in cls.__dict__:
                self._wrap_method(cls, "choose_victim",
                                  layer_of(cls.__module__),
                                  name="WritebackPolicy.choose_victim")
        self._wrap_system_init(_find("repro.sim.system", "System"))
        self._wrap_schedule(_find("repro.sim.engine", "Engine"))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_system_init(self, System: type) -> None:
        original = System.__dict__["__init__"]
        tracer = self

        @functools.wraps(original)
        def __init__(self: Any, config: Any,
                     traces: Callable[[int], Iterator[Any]]) -> None:
            def traced(core_id: int) -> Iterator[Any]:
                return _TracedTrace(tracer, traces(core_id))

            original(self, config, traced)
            for cache in (self.llc, *self.l2s, *self.l1ds, *self.l1is):
                tracer._wrap_instance(cache, "access", "cache",
                                      "Cache.access")
            tracer.systems.append(self)

        self._patch(System, "__init__", __init__)

    def _wrap_schedule(self, Engine: type) -> None:
        original = Engine.__dict__["schedule"]
        keys = self._dispatch_keys
        call = self.call

        def dispatch(key: Tuple[str, str], fn: Callable[..., Any],
                     *args: Any) -> Any:
            return call(key[0], key[1], fn, *args)

        def schedule(engine: Any, tick: int, fn: Callable[..., Any],
                     *args: Any) -> None:
            target = getattr(fn, "__func__", fn)
            # Keyed by code object: a closure made per request (a core's
            # load-completion callback) shares its code with every other.
            code = getattr(target, "__code__", None) or type(target)
            key = keys.get(code)
            if key is None:
                module = getattr(target, "__module__", "") or ""
                key = keys[code] = (
                    layer_of(module),
                    "event:" + getattr(target, "__qualname__", "?"))
            original(engine, tick, dispatch, key, fn, *args)

        self._patch(Engine, "schedule", schedule)

    # -- derived counts ------------------------------------------------

    def event_calls(self, layer: Optional[str] = None,
                    qualname: Optional[str] = None) -> int:
        """Engine callbacks dispatched (optionally one layer/callback)."""
        total = 0
        for (lay, name, _), value in self.aggregates().items():
            if not name.startswith("event:"):
                continue
            if layer is not None and lay != layer:
                continue
            if qualname is not None and name != "event:" + qualname:
                continue
            total += int(value[0])
        return total


class _TracedTrace:
    """A trace iterator whose every record is one ``workloads`` span."""

    __slots__ = ("_tracer", "_inner")

    def __init__(self, tracer: LayerTracer, inner: Iterator[Any]) -> None:
        self._tracer = tracer
        self._inner = inner

    def __iter__(self) -> "_TracedTrace":
        return self

    def __next__(self) -> Any:
        return self._tracer.call("workloads", "trace.next",
                                 self._inner.__next__)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def _find(module: str, name: str) -> Any:
    """``module.name``, or None when the source tree has no such thing."""
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


def layer_metrics(tracer: LayerTracer, unit: Any,
                  workload: Any) -> Dict[str, float]:
    """Per-layer metrics of one traced unit.

    Call counts are per 1k covered instructions and deterministic;
    ``*_s`` values are host seconds of self time (or of one entry point).
    """
    from workloads import model_summary

    kinstr = unit.covered / 1000.0
    results = list(unit.results.values())
    extras = unit.extras

    def per_k(count: float) -> float:
        return count / kinstr

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ticks = tracer.event_calls("cpu", "Core._tick")
    caches = [cache for system in tracer.systems
              for cache in (system.llc, *system.l2s, *system.l1ds,
                            *system.l1is)]
    drops = sum(c.stats.prefetch_drops for c in caches)
    prefetched = sum(c.stats.prefetch_accesses for c in caches)
    dram_ops = sum(r.dram.reads_issued + r.dram.writes_issued
                   for r in results)
    dram_hits = sum(r.dram.read_row_hits + r.dram.write_row_hits
                    for r in results)
    bard = [r.bard_accuracy for r in results if r.bard_accuracy]
    covered_measured = extras.get("sampling.measured_instructions",
                                  sum(r.instructions for r in results))
    metrics = {
        "cpu.tick_events": per_k(ticks),
        # Measured-phase stall cycles over every tick, detailed warmup's
        # included (README.md, "Definitions").
        "cpu.stall_repoll_frac": ratio(
            sum(r.mshr_stall_cycles for r in results), ticks),
        "cpu.self_s": tracer.self_s("cpu"),
        "sim.events_per_kinstr": per_k(tracer.event_calls()),
        "sim.self_s": tracer.self_s("sim"),
        "dram.earliest_burst_per_kinstr": per_k(
            tracer.calls("dram", "SubChannel.earliest_burst")),
        "dram.tick_events": per_k(tracer.event_calls("dram")),
        "dram.self_s": tracer.self_s("dram"),
        "dram.write_blp": statistics.fmean(r.write_blp for r in results),
        "dram.drain_episodes": sum(len(r.dram.episodes) for r in results),
        "dram.row_hit_frac": ratio(dram_hits, dram_ops),
        "cache.access_per_kinstr": per_k(
            tracer.calls("cache", "Cache.access")),
        "cache.warm_access_per_kinstr": per_k(
            tracer.calls("cache", "Cache.warm_access")),
        "cache.self_s": tracer.self_s("cache"),
        "cache.llc_miss_rate": ratio(sum(r.llc.misses for r in results),
                                     sum(r.llc.accesses for r in results)),
        "cache.mshr_stall_cycles": sum(r.mshr_stall_cycles
                                       for r in results),
        "prefetch.calls_per_kinstr": per_k(
            tracer.calls("prefetch", "Prefetcher.on_access")),
        "prefetch.self_s": tracer.self_s("prefetch"),
        "prefetch.drop_frac": ratio(drops, drops + prefetched),
        "core.choose_victim_calls": per_k(
            tracer.calls("core", "WritebackPolicy.choose_victim")),
        "core.self_s": tracer.self_s("core"),
        "core.bard_error_rate": ratio(sum(a.incorrect for a in bard),
                                      sum(a.checked for a in bard)),
        "workloads.records_per_kinstr": per_k(
            tracer.calls("workloads", "trace.next")),
        "workloads.self_s": tracer.self_s("workloads"),
        "experiment.warmups": extras.get("experiment.warmups", 0),
        "experiment.restores": extras.get("experiment.restores", 0),
        "experiment.self_s": tracer.self_s("experiment"),
        "sampling.detailed_instr_frac": ratio(covered_measured,
                                              unit.covered),
        "adaptive.rounds": extras.get("adaptive.rounds", 0),
        "adaptive.self_s": tracer.self_s("adaptive"),
        "service.queue.admit_s": tracer.total_s("service",
                                                "JobQueue.admit"),
        "service.queue.lease_s": tracer.total_s("service",
                                                "JobQueue.lease"),
        "service.queue.complete_s": tracer.total_s("service",
                                                   "JobQueue.complete"),
        "service.store.put_s": tracer.total_s("service", "ResultStore.put"),
        "service.store.get_s": tracer.total_s("service", "ResultStore.get"),
        "service.job_wait_p50_s": extras.get("service.job_wait_p50_s", 0.0),
        "service.state_files": extras.get("service.state_files", 0),
    }
    metrics.update(model_summary(unit.results, workload.baseline_leg,
                                 workload.bard_leg))
    return metrics


def write_trace(directory: Path, workload: str, seed: int,
                tracer: LayerTracer, metrics: Dict[str, float],
                digests: Dict[str, str]) -> Path:
    """Write one traced unit's spans and aggregates as JSON; returns path."""
    path = directory / f"trace-{workload}-{seed}.json"
    payload = {
        "workload": workload,
        "seed": seed,
        "metrics": metrics,
        "digests": digests,
        "aggregates": [
            {"layer": layer, "name": name, "parent": parent,
             "count": int(count), "total_s": total, "child_s": child,
             "self_s": total - child}
            for (layer, name, parent), (count, total, child)
            in sorted(tracer.aggregates().items())],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload, indent=1))
    return path
