"""Per-layer host-time attribution for the traced benchmark run.

The traced run replaces each layer's public boundary methods with a
timing wrapper, from the benchmark's own files: nothing under ``src/``
changes.  Every wrapped call becomes a span on one stack; a layer's
*self time* is a span's duration minus the time of the wrapped calls it
made into other layers.  A call into the layer already on top of the
stack (``ExtFS.write`` calling ``ExtFS.pwrite``) is folded into the
outer span, so it is neither counted nor timed twice.  Wrapper cost
lands in the caller's self time, so shares include the overhead.

:func:`install` must run before any stack is built: constructors hoist
bound methods (``MSSD.__init__`` caches ``firmware.byte_write``), and a
method hoisted before the patch would bypass its wrapper.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Tuple

#: (layer, module, class or None, method patterns).  With a class, the
#: patterns select public functions defined on it and on every subclass;
#: with ``None`` they select public module-level functions.
LAYER_SPEC: Tuple[Tuple[str, str, object, Tuple[str, ...]], ...] = (
    ("fs", "repro.fs.vfs", "BaseFileSystem", ("*",)),
    ("host.page_cache", "repro.host.page_cache", "PageCache",
     ("lookup", "install", "mark_*")),
    ("host.mmap", "repro.host.mmap", "MappedRegion",
     ("load", "store", "msync")),
    ("interconnect", "repro.interconnect.link", "HostLink", ("*",)),
    ("ssd.device", "repro.ssd.device", "MSSD",
     ("load", "store", "read_blocks", "write_blocks", "trim", "commit",
      "flush_all")),
    ("ssd.firmware", "repro.ssd.firmware.bytefs_fw", "ByteFSFirmware",
     ("byte_*", "block_*", "trim*", "commit", "force_clean")),
    ("ssd.firmware", "repro.ssd.firmware.baseline_fw", "BaselineFirmware",
     ("byte_*", "block_*", "trim*", "commit", "force_clean")),
    ("devcache", "repro.devcache.cache", "DeviceCache",
     ("read_page", "read_pages", "write_page", "trim", "trim_many",
      "drain_write_buffer")),
    ("ftl", "repro.ftl.ftl", "FTL",
     ("read_page", "read_pages", "write_page", "trim", "trim_many",
      "is_mapped", "drain_write_buffer")),
    ("nand", "repro.nand.chip", "FlashArray", ("*",)),
    ("sim", "repro.sim.resources", "Resource", ("serve", "occupy")),
    ("sim", "repro.sim.resources", "ChannelArray", ("serve", "occupy")),
    ("sim", "repro.sim.resources", "Pipeline", ("serve", "serve_many")),
    ("stats", "repro.stats.traffic", "TrafficStats", ("record_*", "bump*")),
    ("cluster.kernel", "repro.cluster.kernel", None, ("*",)),
    ("cluster.kernel", "repro.cluster.kernel", "TenantRT", ("*",)),
    ("cluster.kernel", "repro.cluster.shard", "ShardedBackend", ("*",)),
    ("cluster.sched", "repro.cluster.sched", "AdmissionQueue", ("*",)),
    ("cluster.sched", "repro.cluster.sched", "Scheduler", ("*",)),
    ("cluster.sched", "repro.cluster.sched", None, ("make_scheduler",)),
    ("cluster.tenant", "repro.cluster.tenant", "SyntheticTenantWorkload",
     ("setup", "thread_ops", "attach_oracle")),
    ("cluster.tenant", "repro.cluster.tenant", "NamespacedFS", ("*",)),
    ("cluster.tenant", "repro.cluster.tenant", None,
     ("make_tenant_workload",)),
    ("faults.oracle", "repro.faults.oracle", "OracleFS", ("*",)),
    ("faults.recovery", "repro.ssd.device", "MSSD",
     ("power_fail", "recover")),
    ("faults.recovery", "repro.ssd.firmware.bytefs_fw", "ByteFSFirmware",
     ("power_fail", "recover")),
    ("faults.recovery", "repro.ssd.firmware.baseline_fw", "BaselineFirmware",
     ("power_fail", "recover")),
    ("core.build_stack", "repro.core.bytefs", None, ("build_stack",)),
)

#: Counters :meth:`LayerTracer.fold_stacks` sums over stacks: keys of
#: ``MSSD.gauges()``, the host page cache's hits and misses, and the
#: firmware's log-cleaning counter.
_GAUGES = (
    "page_cache_hits", "page_cache_misses", "fw_log_cleanings",
    "devcache_hits", "devcache_misses", "devcache_prefetch_issued",
    "devcache_prefetch_hits", "gc_runs", "nand_writes", "nand_erases",
)

#: Every layer, in report order; ``unattributed`` is derived.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(s[0] for s in LAYER_SPEC))

#: Modules imported before patching so that subclasses and by-name
#: imports of patched functions exist when :func:`install` scans them.
_PRELOAD = (
    "repro.core", "repro.fs.extfs", "repro.fs.f2fs", "repro.fs.nova",
    "repro.fs.pmfs", "repro.bench.harness", "repro.cluster.serve",
    "repro.cluster.worker", "repro.faults.sweep",
)


class LayerTracer:
    """Span stack plus per-layer call counts and self time."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: pages handed to ``MSSD.write_blocks`` (outer calls only)
        self.write_blocks_calls = 0
        self.write_blocks_pages = 0
        #: device and host cache counters, summed over folded stacks
        self.gauges: Dict[str, float] = {}
        #: stacks built since the last :meth:`fold_stacks`
        self.stacks: List[tuple] = []
        #: [layer, child seconds] frames of the open spans
        self._stack: List[list] = []

    def fold_stacks(self) -> None:
        """Add the counters of every stack built so far to
        :attr:`gauges`, then drop the stacks (a crash sweep builds one
        per replay)."""
        for _clock, stats, device, fs in self.stacks:
            found = dict(device.gauges())
            cache = getattr(fs, "page_cache", None)
            if cache is not None:
                found["page_cache_hits"] = cache.hits
                found["page_cache_misses"] = cache.misses
            found["fw_log_cleanings"] = stats.counters.get(
                "fw_log_cleanings", 0)
            for key in _GAUGES:
                self.gauges[key] = self.gauges.get(key, 0) + found.get(key, 0)
        self.stacks.clear()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, fn)
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_generator(self, layer: str, fn: Callable) -> Callable:
        # A generator's work runs in next(), not in the call that makes it.
        step = self.wrap(layer, next)

        class _Timed:
            def __init__(self, gen) -> None:
                self.gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                return step(self.gen)

        def make(*args, **kwargs):
            return _Timed(fn(*args, **kwargs))

        make.__name__ = fn.__name__
        return make


def _targets(module, cls_name, patterns):
    """(owner, attribute name, function) triples a spec entry selects."""

    def pick(names):
        return [
            n for n in names
            if not n.startswith("_")
            and any(fnmatch.fnmatchcase(n, p) for p in patterns)
        ]

    if cls_name is None:
        return [
            (module, n, getattr(module, n))
            for n in pick(vars(module))
            if inspect.isfunction(getattr(module, n))
            and getattr(module, n).__module__ == module.__name__
        ]
    out = []
    todo = [getattr(module, cls_name)]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        for n in pick(vars(cls)):
            if inspect.isfunction(vars(cls)[n]):
                out.append((cls, n, vars(cls)[n]))
    return out


def install(tracer: LayerTracer) -> None:
    """Wrap every boundary method in :data:`LAYER_SPEC`."""
    for name in _PRELOAD:
        importlib.import_module(name)
    replaced: Dict[int, Callable] = {}
    for layer, mod_name, cls_name, patterns in LAYER_SPEC:
        module = importlib.import_module(mod_name)
        for owner, attr, fn in _targets(module, cls_name, patterns):
            if id(fn) in replaced:
                continue
            wrapped = tracer.wrap(layer, fn)
            if (cls_name, attr) == ("MSSD", "write_blocks"):
                wrapped = _count_pages(tracer, wrapped)
            elif attr == "build_stack":
                wrapped = _keep_stack(tracer, wrapped)
            replaced[id(fn)] = wrapped
            setattr(owner, attr, wrapped)
    # Modules that imported a patched function by name hold the original.
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replaced and inspect.isfunction(value):
                setattr(module, attr, replaced[id(value)])


def _count_pages(tracer: LayerTracer, wrapped: Callable) -> Callable:
    def write_blocks(self, lba, data, *args, **kwargs):
        tracer.write_blocks_calls += 1
        tracer.write_blocks_pages += len(data) // self.page_size
        return wrapped(self, lba, data, *args, **kwargs)

    return write_blocks


def _keep_stack(tracer: LayerTracer, wrapped: Callable) -> Callable:
    def build_stack(*args, **kwargs):
        stack = wrapped(*args, **kwargs)
        tracer.stacks.append(stack)
        return stack

    return build_stack
