"""The shard protocol of the serving layer, in-process or in workers.

:func:`~repro.cluster.serve.serve_cluster` splits the cluster's device
shards into :class:`ShardTask` groups and runs each through
:func:`_run_shard`.  ``workers=N`` runs ``min(N, n_devices)`` groups in
spawned OS processes (:func:`run_shard_workers`); ``workers=0`` runs the
one group that owns every device in the calling process
(:func:`run_shard_inline`).  Both execute the same code.

A shard owns a disjoint set of devices end to end: it builds the full
backend (so the shared-clock setup offset of device construction
replays bit-exactly), sets up and drains only the tenants placed on its
devices, samples its devices' telemetry, and returns a
:class:`ShardResult` fragment.  Shards never share memory; the only
cross-shard couplings are two scalar barriers, exchanged over a link
(a pipe to the parent, or :class:`_InlineLink` in-process):

1. **setup barrier** — each shard reports its local post-setup clock
   maximum and adopts the global maximum ``t0`` via
   :meth:`~repro.sim.clock.VirtualClock.sync_to` (the measurement
   epoch);
2. **end barrier** — each shard reports its local post-drain elapsed
   time and receives the global maximum ``t_end``, so every shard
   closes its telemetry series at the same instant.

The in-process link answers each barrier with the shard's own value,
which is the global maximum when one shard owns every device.

Tenants never span devices, so between those barriers the per-shard
event streams are causally independent (the property the CONC001–003
lint passes certify); a faulted-but-tenant-less device is assigned to
the shard that owns tenant 0's device, because its drain-end power
cycle runs on clock thread 0.  The deterministic reducer
(:mod:`repro.cluster.merge`) reassembles the fragments into documents
byte-identical for every worker count, regardless of completion order.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import fssan
from repro.faults.plan import DeviceCrash, plan_by_device
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import TimingModel
from repro.sim.clock import SEC, VirtualClock
from repro.stats.traffic import LatencyRecorder
from repro.telemetry import sampler as telem
from repro.trace import tracer as trace
from repro.trace.tracer import Tracer

from repro.cluster.kernel import (
    DeviceFault,
    TenantRT,
    gen_arrivals,
    run_device_drain,
    run_orphan_crash,
    sanity,
    setup_tenant,
)
from repro.cluster.result import TenantResult
from repro.cluster.sched import make_scheduler
from repro.cluster.shard import ShardedBackend
from repro.cluster.tenant import TenantSpec
from repro.devcache import DevCacheConfig


@dataclass(frozen=True)
class ShardTask:
    """Everything one shard needs, picklable for spawn."""

    worker_id: int
    fs_name: str
    n_devices: int
    n_tenants: int
    #: (global index, spec, device) for every tenant in the cluster;
    #: the worker sets up and serves only those on its owned devices
    tenants: Tuple[Tuple[int, TenantSpec, int], ...]
    owned_devices: Tuple[int, ...]
    sched: str
    seed: int
    queue_depth: int
    max_queue: int
    quantum_ns: Optional[float]
    geometry: Optional[FlashGeometry]
    timing: Optional[TimingModel]
    log_bytes: int
    device_cache_bytes: int
    page_cache_pages: int
    #: optional device-DRAM cache tier config (repro.devcache); frozen
    #: and picklable, so it crosses the spawn boundary verbatim
    devcache: Optional["DevCacheConfig"]
    #: the full fault plan — every worker builds an identical backend
    #: (injector wiring included) so device construction replays exactly
    faults: Tuple[DeviceCrash, ...]
    outage_policy: str
    sample_every_ns: Optional[float]
    keep_dispatch_log: bool
    #: keep one span tracer over the drain (in-process shard only)
    traced: bool
    #: the parent's trace.AUTO decision; the worker must not re-read the
    #: environment (the parent's flag may have been toggled in-process)
    auto_trace: bool


@dataclass
class ShardResult:
    """One shard's fragment of the cluster run, picklable."""

    worker_id: int
    #: (global index, result) for every tenant this worker served
    tenants: List[Tuple[int, TenantResult]] = field(default_factory=list)
    device_summaries: Dict[int, Dict] = field(default_factory=dict)
    #: recovery records of owned faulted devices (live wall_s included)
    recovery: Dict[int, Dict] = field(default_factory=dict)
    #: telemetry fragments of owned devices (None when sampling is off)
    telemetry_rows: Optional[List[Dict]] = None
    telemetry_outages: Optional[List[Dict]] = None
    #: per-device metrics registries (auto-trace runs only)
    metrics: Dict[int, object] = field(default_factory=dict)
    #: per-device dispatch-log fragments (None unless kept)
    dispatch_log: Optional[Dict[int, List[Dict]]] = None
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    #: the span-keeping tracer of a ``traced`` shard
    trace: Optional[Tracer] = None


def shard_worker_main(conn, task: ShardTask) -> None:
    """Child-process entry: run the shard protocol, ship the fragment."""
    try:
        result = _run_shard(conn, task)
        conn.send(("result", result))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def _run_shard(conn, task: ShardTask) -> ShardResult:
    """Run one shard through setup, both barriers and the drain."""
    fault_for = plan_by_device(task.faults)
    clock = VirtualClock(task.n_tenants)
    backend = ShardedBackend(
        task.fs_name,
        task.n_devices,
        clock,
        geometry=task.geometry,
        timing=task.timing,
        log_bytes=task.log_bytes,
        device_cache_bytes=task.device_cache_bytes,
        page_cache_pages=task.page_cache_pages,
        devcache=task.devcache,
        queue_depth=task.queue_depth,
        fault_devices=fault_for,
    )
    owned = sorted(task.owned_devices)
    owned_set = set(owned)
    # ------------------ setup phase (global index order) ------------------ #
    runtime: Dict[int, TenantRT] = {}
    device_of: Dict[int, int] = {}
    for index, spec, dev in task.tenants:
        device_of[index] = dev
        if dev in owned_set:
            runtime[index] = setup_tenant(
                backend, clock, index, spec, dev, dev in fault_for,
                task.seed,
            )
    # Setup barrier: local maximum out, global epoch t0 back.
    conn.send(("setup", clock.elapsed_ns))
    t0 = conn.recv()
    clock.sync_to(t0)
    backend.reset_epoch()
    fault_rt: Dict[int, DeviceFault] = {}
    for dev in owned:
        fspec = fault_for.get(dev)
        if fspec is None:
            continue
        frt = DeviceFault(spec=fspec, injector=backend.injectors[dev])
        if fspec.at_s is not None:
            frt.t_crash = t0 + fspec.at_s * SEC
        fault_rt[dev] = frt
    for index in sorted(runtime):
        gen_arrivals(runtime[index], task.seed, t0)
    by_device: Dict[int, List[TenantRT]] = {dev: [] for dev in owned}
    for index in sorted(runtime):
        by_device[device_of[index]].append(runtime[index])
    scheds = {
        dev: make_scheduler(task.sched, by_device[dev], task.quantum_ns)
        for dev in owned
    }
    cluster_latency = LatencyRecorder()
    dispatch_log: Optional[Dict[int, List[Dict]]] = (
        {dev: [] for dev in owned} if task.keep_dispatch_log else None
    )
    sampler: Optional[telem.TelemetrySampler] = None
    if task.sample_every_ns is not None:
        sampler = telem.TelemetrySampler(t0, task.sample_every_ns)
        for dev in owned:
            sampler.add_device(
                dev,
                gauges=backend.devices[dev].gauges,
                queue=backend.queues[dev],
                tenants=by_device[dev],
                stats=backend.stats[dev],
                time_of=clock.time_of,
            )
    tracer = Tracer(clock, keep_spans=True) if task.traced else None
    metrics_by_device: Dict[int, object] = {}
    # ------------------------- measured phase ------------------------- #
    with ExitStack() as active:
        if sampler is not None:
            telem.activate(sampler)
            active.callback(telem.deactivate)
        if tracer is not None:
            active.enter_context(trace.activated(tracer))
        for dev in owned:
            if by_device[dev]:
                reg = run_device_drain(
                    clock, dev, by_device[dev], scheds[dev],
                    backend.queues[dev], backend.stats[dev],
                    task.max_queue, cluster_latency,
                    dispatch_log[dev] if dispatch_log is not None else None,
                    backend.devices[dev], backend.filesystems[dev],
                    fault_rt.get(dev), task.outage_policy, task.seed,
                    tracer, task.auto_trace,
                )
                if reg is not None:
                    metrics_by_device[dev] = reg
        # Owned faulted devices with no tenants power-cycle after the
        # populated shards drained (on thread 0, whose post-drain time
        # is exact here: orphan devices are owned by tenant 0's shard).
        for dev in owned:
            frt = fault_rt.get(dev)
            if frt is not None and not frt.done and not by_device[dev]:
                reg = run_orphan_crash(
                    clock, dev, backend.devices[dev],
                    backend.filesystems[dev], backend.queues[dev],
                    backend.stats[dev], frt, task.outage_policy,
                    tracer, task.auto_trace,
                )
                if reg is not None:
                    metrics_by_device[dev] = reg
    if tracer is not None:
        tracer.close_all()
    # End barrier: local elapsed out, global run end t_end back.
    conn.send(("ran", clock.elapsed_ns))
    t_end = conn.recv()
    if sampler is not None:
        for dev in owned:
            sampler.advance(dev, t_end)
    # Final queue-accounting audit, sanitizer or not: a broken invariant
    # here means the result's counters are lies.
    for index in sorted(runtime):
        with fssan.sanitized():
            sanity(runtime[index])
    elapsed_s = (t_end - t0) / SEC
    return ShardResult(
        worker_id=task.worker_id,
        tenants=[
            (index, _tenant_result(runtime[index], device_of[index]))
            for index in sorted(runtime)
        ],
        device_summaries={
            dev: backend.device_summary(dev, elapsed_s) for dev in owned
        },
        recovery={
            dev: frt.record
            for dev, frt in sorted(fault_rt.items())
            if frt.record is not None
        },
        telemetry_rows=list(sampler.rows) if sampler is not None else None,
        telemetry_outages=(
            sampler.outages if sampler is not None else None
        ),
        metrics=metrics_by_device,
        dispatch_log=dispatch_log,
        latency=cluster_latency,
        trace=tracer,
    )


def _tenant_result(tn: TenantRT, device: int) -> TenantResult:
    return TenantResult(
        spec=tn.spec.to_json(),
        device=device,
        ops=tn.served,
        submitted=tn.submitted(),
        rejected=tn.rejected,
        dropped=tn.dropped,
        slo_violations=tn.slo_violations,
        latency=tn.latency,
        traffic=dict(tn.traffic),
        lost_to_crash=tn.lost_to_crash,
        outage_rejected=tn.outage_rejected,
        slo_violations_outage=tn.slo_violations_outage,
    )


# ---------------------------------------------------------------------- #
# orchestration: in-process or one spawned process per task
# ---------------------------------------------------------------------- #

class _InlineLink:
    """The in-process end of both barriers: with one shard, each global
    maximum is the shard's own value.  Records when each barrier was
    crossed, so ``wall_s`` spans the drain exactly as in workers."""

    def __init__(self) -> None:
        self.sent: Dict[str, Tuple[float, float]] = {}
        self._last = 0.0

    def send(self, msg: Tuple[str, float]) -> None:
        tag, value = msg
        self.sent[tag] = (value, time.perf_counter())
        self._last = value

    def recv(self) -> float:
        return self._last


def run_shard_inline(
    tasks: List[ShardTask],
) -> Tuple[float, float, float, List[ShardResult]]:
    """Run the single task that owns every device in this process.

    Same return contract as :func:`run_shard_workers`.
    """
    (task,) = tasks
    link = _InlineLink()
    result = _run_shard(link, task)
    (t0, wall0), (t_end, wall1) = link.sent["setup"], link.sent["ran"]
    return t0, t_end, wall1 - wall0, [result]


def run_shard_workers(
    tasks: List[ShardTask],
) -> Tuple[float, float, float, List[ShardResult]]:
    """Run one process per task through the three-phase shard protocol.

    Returns ``(t0, t_end, wall_s, results)`` where ``wall_s`` measures
    only the drain (t0 broadcast to the last "ran" ack) — process
    spawn, device construction and tenant setup are excluded.
    """
    ctx = mp.get_context("spawn")
    procs: List = []
    conns: List = []
    try:
        for task in tasks:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=shard_worker_main,
                args=(child_conn, task),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        t0 = max(
            _recv(conns[i], procs[i], "setup") for i in range(len(tasks))
        )
        for conn in conns:
            conn.send(t0)
        wall0 = time.perf_counter()
        t_end = max(
            _recv(conns[i], procs[i], "ran") for i in range(len(tasks))
        )
        wall_s = time.perf_counter() - wall0
        for conn in conns:
            conn.send(t_end)
        results = [
            _recv(conns[i], procs[i], "result") for i in range(len(tasks))
        ]
        for proc in procs:
            proc.join(timeout=30)
        return t0, t_end, wall_s, results
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)


def _recv(conn, proc, expect: str):
    try:
        tag, payload = conn.recv()
    except EOFError:
        raise RuntimeError(
            f"shard worker pid={proc.pid} died before sending "
            f"{expect!r} (exit code {proc.exitcode})"
        ) from None
    if tag == "error":
        raise RuntimeError(f"shard worker failed:\n{payload}")
    if tag != expect:
        raise RuntimeError(
            f"shard protocol violation: expected {expect!r}, got {tag!r}"
        )
    return payload
