"""The per-shard dispatch kernel of the serving layer.

One :func:`serve_device` call drains one device shard's tenants to
completion on the shared virtual clock — the self-contained unit that
:func:`repro.cluster.serve.serve_cluster` runs in-process for every
shard (``--workers 0``) and that :mod:`repro.cluster.worker` runs in
one OS process per shard group (``--workers N``).  The dispatch
semantics are documented on :mod:`repro.cluster.serve`; this module is
the mechanism.

**O(1) idle-time skip.**  The kernel never scans tenants to find the
next decision instant.  Two lazy min-heaps bound the next event:

* a *ready heap* of ``(r, tenant_index)`` where ``r = max(head-of-queue
  or next-unpumped-arrival, client-thread time)`` — the earliest
  instant the tenant could dispatch;
* an *arrivals heap* of ``(next_arrival, tenant_index)`` driving
  targeted arrival pumping (and the token-bucket hold-vs-next-arrival
  race).

Both follow the :meth:`repro.sim.clock.VirtualClock.next_thread`
discipline: every per-tenant quantity above is non-decreasing over the
run (queues carry sorted arrival times, client threads only move
forward, admission rejections only advance the arrival cursor), so a
stale top entry *under*-estimates its tenant and is revalidated in
place on pop.  An idle stretch of virtual time — every tenant's next
arrival far in the future — costs one heap peek instead of a scan per
tenant, and each heap holds at most one entry per tenant.

The kernel also owns the runtime state the loop mutates
(:class:`TenantRT`, :class:`DeviceFault`) and the crash/recovery
protocol (:func:`crash_and_recover`), so a worker process can import
everything it executes without pulling in the cluster orchestration.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import fssan
from repro.faults.injector import FaultInjector
from repro.faults.oracle import OracleFS
from repro.faults.plan import DeviceCrash
from repro.sim.clock import MSEC, SEC, VirtualClock
from repro.sim.rng import make_rng
from repro.stats.traffic import Direction, LatencyRecorder, TrafficStats
from repro.telemetry import sampler as telem
from repro.trace import tracer as trace
from repro.trace.tracer import Tracer

from repro.cluster.result import ALL_OPS
from repro.cluster.sched import AdmissionQueue, Scheduler
from repro.cluster.tenant import CRASHED, TenantSpec, make_tenant_workload

_INF = float("inf")


@dataclass
class TenantRT:
    """Mutable per-tenant serving state."""

    index: int                       # global index == clock thread id
    spec: TenantSpec
    gen: object                      # the workload's op generator
    arrivals: List[float]            # absolute arrival times (ns)
    next_i: int = 0                  # first arrival not yet pumped
    queue: deque = field(default_factory=deque)
    deficit: float = 0.0             # DRR bookkeeping
    served: int = 0
    rejected: int = 0
    dropped: int = 0
    lost_to_crash: int = 0           # in flight when the shard lost power
    outage_rejected: int = 0         # rejections attributed to an outage
    slo_violations: int = 0
    slo_violations_outage: int = 0   # violations overlapping the outage
    done: bool = False               # workload generator exhausted
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    traffic: Dict[str, int] = field(default_factory=dict)
    #: namespace view and oracle mirror (faulted shards only)
    ns: Optional[object] = None
    oracle: Optional[OracleFS] = None
    #: arrivals inside [reject_from, reject_to) bounce ("reject" policy)
    reject_from: float = _INF
    reject_to: float = -_INF

    @property
    def tid(self) -> int:
        return self.index

    def submitted(self) -> int:
        return self.next_i

    def pump(self, t: float, max_queue: int) -> None:
        """Move arrivals up to ``t`` into the queue (admission control)."""
        arrivals = self.arrivals
        i = self.next_i
        n = len(arrivals)
        while i < n and arrivals[i] <= t:
            a = arrivals[i]
            if self.reject_from <= a < self.reject_to:
                # Arrived while the shard was down (policy "reject").
                self.rejected += 1
                self.outage_rejected += 1
            elif len(self.queue) >= max_queue:
                self.rejected += 1
            else:
                self.queue.append(a)
            i += 1
        self.next_i = i

    def finish(self) -> None:
        """Workload exhausted: abandon backlog and future arrivals."""
        self.done = True
        self.dropped += len(self.queue)
        self.queue.clear()
        del self.arrivals[self.next_i:]


_TRAFFIC_KEYS = (
    "host_write", "host_read", "flash_write", "flash_read",
    "app_write", "app_read",
)


def _traffic_totals(stats: TrafficStats) -> Tuple[float, ...]:
    hw = hr = 0
    for (_k, d, _i), n in stats.host_ssd.items():
        if d is Direction.WRITE:
            hw += n
        else:
            hr += n
    fw = fr = 0
    for (_k, d), n in stats.flash.items():
        if d is Direction.WRITE:
            fw += n
        else:
            fr += n
    return (
        hw, hr, fw, fr,
        stats.app.get(Direction.WRITE, 0),
        stats.app.get(Direction.READ, 0),
    )


def _attribute(tn: TenantRT, before: Tuple, after: Tuple) -> None:
    for key, b, a in zip(_TRAFFIC_KEYS, before, after):
        tn.traffic[key] = tn.traffic.get(key, 0) + (a - b)


def sanity(tn: TenantRT) -> None:
    fssan.check_queue_accounting(
        tn.spec.name, tn.submitted(), tn.served, len(tn.queue),
        tn.rejected, tn.dropped, tn.lost_to_crash,
    )


@dataclass
class DeviceFault:
    """Mutable runtime state of one planned device crash."""

    spec: DeviceCrash
    injector: FaultInjector
    t_crash: float = _INF            # absolute trigger time (ns); inf = ops
    armed: bool = False              # injector armed, crash op pending
    done: bool = False               # power-cycled and recovered
    dispatched: int = 0              # grants on this device so far
    t_down: float = 0.0
    t_up: float = 0.0
    wall_s: float = 0.0              # measured host time in recovery
    record: Optional[Dict] = None    # the result document's entry

    def due(self, t_dec: float) -> bool:
        if self.spec.after_ops is not None:
            return self.dispatched >= self.spec.after_ops
        return t_dec >= self.t_crash


def crash_and_recover(
    clock: VirtualClock,
    device: int,
    device_obj,
    fs,
    tenants: List[TenantRT],
    queue: AdmissionQueue,
    sched: Optional[Scheduler],
    stats: TrafficStats,
    fault: DeviceFault,
    outage_policy: str,
    tracer: Optional[Tracer],
) -> None:
    """Power-cycle one shard and bring it back on the virtual timeline.

    Runs synchronously on the current clock thread, at the instant power
    dropped: device DRAM state replays from its power-loss log, the file
    system runs its crash-recovery path (journal replay / log scan), and
    the durability oracle then scrubs every mirrored tenant namespace —
    the scrub's reads cost virtual time like a real verification pass,
    so recovery time includes it.  Other tenants see the outage through
    the admission queue: every slot is busy until recovery completes.
    """
    inj = fault.injector
    fired = inj.fired
    inj.disarm()
    t_down = clock.now
    smp = telem.active() if telem.ENABLED else None
    if smp is not None:
        # Pre-crash boundaries sample with up=1 before the window opens.
        smp.advance(device, t_down)
    stats.bump_fault("fault_power_cycles")
    if trace.ENABLED:
        trace.event(
            "cluster", "crash", device=device,
            site=fired.label if fired is not None else None,
        )
    span = (
        trace.begin("cluster", "recovery", device=device)
        if tracer is not None else None
    )
    wall0 = time.perf_counter()
    device_obj.power_fail()
    fs.crash()
    fw = fs.remount()
    checked: List[str] = []
    errors: Dict[str, List[str]] = {}
    for tn in sorted(tenants, key=lambda t: t.index):
        if tn.oracle is None:
            continue
        checked.append(tn.spec.name)
        bad = tn.oracle.check(tn.ns)
        if bad:
            errors[tn.spec.name] = bad
    fault.wall_s = time.perf_counter() - wall0
    t_up = clock.now
    if span is not None:
        trace.end(span)
    fault.done = True
    fault.t_down = t_down
    fault.t_up = t_up
    queue.outage_until(t_up)
    if sched is not None:
        sched.on_outage(t_down, t_up)
    if outage_policy == "reject":
        for tn in tenants:
            tn.reject_from = t_down
            tn.reject_to = t_up
    if smp is not None:
        # Boundaries inside [t_down, t_up) emit up=0: the crash and the
        # recovery show up as gauge transitions in the series.
        smp.mark_outage(device, t_down, t_up)
    fault.record = {
        "device": device,
        "trigger": fault.spec.to_json(),
        "fired": (
            {
                "site": fired.site,
                "label": fired.label,
                "nbytes": fired.nbytes,
                "torn_bytes": fired.torn_bytes,
            }
            if fired is not None else None
        ),
        "t_down_ns": t_down,
        "t_up_ns": t_up,
        "virtual_ns": t_up - t_down,
        "wall_s": fault.wall_s,
        "fw": {k: fw[k] for k in sorted(fw)},
        "oracle": {
            "checked": checked,
            "clean": not errors,
            "errors": errors,
        },
    }


def _live_ready(tn: TenantRT, time_of) -> Optional[float]:
    """The earliest instant ``tn`` could dispatch, or None if it never
    will again (no backlog, no future arrivals)."""
    if tn.queue:
        r = tn.queue[0]
    elif tn.next_i < len(tn.arrivals):
        r = tn.arrivals[tn.next_i]
    else:
        return None
    avail = time_of(tn.tid)
    return avail if avail > r else r


def serve_device(
    clock: VirtualClock,
    device: int,
    tenants: List[TenantRT],
    sched: Scheduler,
    queue: AdmissionQueue,
    stats: TrafficStats,
    max_queue: int,
    cluster_latency: LatencyRecorder,
    dispatch_log: Optional[List],
    tracer: Optional[Tracer],
    device_obj=None,
    fs=None,
    fault: Optional[DeviceFault] = None,
    outage_policy: str = "requeue",
    fault_seed: int = 0,
) -> None:
    """Drain one device's tenants to completion (see module docstring)."""
    time_of = clock.time_of
    smp = telem.active() if telem.ENABLED else None
    by_index = {tn.index: tn for tn in tenants}
    #: tenants with a non-empty queue, keyed by global index
    backlog: Dict[int, TenantRT] = {
        tn.index: tn for tn in tenants if tn.queue
    }
    ready: List[Tuple[float, int]] = []
    arrivals_heap: List[Tuple[float, int]] = []
    for tn in tenants:
        r = _live_ready(tn, time_of)
        if r is not None:
            ready.append((r, tn.index))
        if tn.next_i < len(tn.arrivals):
            arrivals_heap.append((tn.arrivals[tn.next_i], tn.index))
    heapq.heapify(ready)
    heapq.heapify(arrivals_heap)

    def _peek_ready() -> float:
        """Exact ``min(live r)`` over candidate tenants, or inf.

        Lazy revalidation: a top entry matching its tenant's live value
        is the true minimum because every other entry underestimates.
        """
        while ready:
            r, idx = ready[0]
            tn = by_index[idx]
            if tn.done:
                heapq.heappop(ready)
                continue
            live = _live_ready(tn, time_of)
            if live is None:
                heapq.heappop(ready)
                continue
            if live == r:
                return r
            heapq.heapreplace(ready, (live, idx))
        return _INF

    def _next_arrival() -> float:
        """Exact earliest unpumped arrival across tenants, or inf."""
        while arrivals_heap:
            a, idx = arrivals_heap[0]
            tn = by_index[idx]
            if tn.done or tn.next_i >= len(tn.arrivals):
                heapq.heappop(arrivals_heap)
                continue
            live = tn.arrivals[tn.next_i]
            if live != a:
                heapq.heapreplace(arrivals_heap, (live, idx))
                continue
            return a
        return _INF

    def _pump_until(t: float) -> None:
        """Pump exactly the tenants whose next arrival is <= ``t``.

        Per-tenant pumping is independent (admission control reads only
        the tenant's own queue and reject window), so pumping in global
        arrival order leaves the same state as a pump-every-tenant scan.
        """
        while arrivals_heap:
            a, idx = arrivals_heap[0]
            tn = by_index[idx]
            if tn.done or tn.next_i >= len(tn.arrivals):
                heapq.heappop(arrivals_heap)
                continue
            live = tn.arrivals[tn.next_i]
            if live != a:
                heapq.heapreplace(arrivals_heap, (live, idx))
                continue
            if a > t:
                break
            tn.pump(t, max_queue)
            if tn.queue and idx not in backlog:
                backlog[idx] = tn
            if tn.next_i < len(tn.arrivals):
                heapq.heapreplace(
                    arrivals_heap, (tn.arrivals[tn.next_i], idx)
                )
            else:
                heapq.heappop(arrivals_heap)

    while True:
        # 1. The earliest dispatchable request across tenants: arrived
        # AND the tenant's (single-threaded) client is free again.  One
        # heap peek — idle virtual time costs O(1), not a tenant scan.
        t_req = _peek_ready()
        if t_req == _INF:
            break
        t_free = queue.earliest_free()
        t_dec = t_req if t_req > t_free else t_free
        if smp is not None:
            # Pull-based sampling: emit every boundary crossed since the
            # last decision, stamped with the boundary's virtual time.
            smp.advance(device, t_dec)
        # Fault trigger check at the decision instant: the next dispatch
        # is the one in flight when power drops.
        if fault is not None and not fault.done and not fault.armed:
            if fault.due(t_dec):
                fault.injector.arm_next(
                    torn=fault.spec.torn, seed=fault_seed
                )
                fault.armed = True
        # 2. Pump arrivals (admission control) up to the decision instant.
        _pump_until(t_dec)
        eligible = [
            backlog[i] for i in sorted(backlog)
            if backlog[i].queue[0] <= t_dec
        ]
        if not eligible:
            # The min-r tenant's arrival was rejected at the full queue;
            # recompute from the new state.
            continue
        # 3. Policy decision.  A tenant with an op still in flight stays
        # schedulable — its queued requests live in the device queue, not
        # the client — but its grant can only *start* once the in-flight
        # op completes (per-tenant request ordering).  Under FIFO this is
        # exactly head-of-line blocking: later arrivals from everyone
        # else wait behind a backlogged tenant's older requests.
        tn = sched.pick(eligible, t_dec)
        start = t_dec
        avail = time_of(tn.tid)
        if avail > start:
            start = avail
        rel = sched.release(tn, t_dec)
        if rel > start:
            # Non-work-conserving hold: if any arrival lands before the
            # hold ends, it may belong to an unthrottled tenant — pump to
            # it and re-decide.
            nxt = _next_arrival()
            if nxt < rel:
                _pump_until(nxt)
                continue
            start = rel
        arrival = tn.queue.popleft()
        if not tn.queue:
            del backlog[tn.index]
        slot, grant = queue.admit(start)
        if fault is not None:
            fault.dispatched += 1
        clock.switch(tn.tid)
        clock.advance_to(grant)
        root = (
            trace.begin("cluster", "op", tenant=tn.spec.name, device=device)
            if tracer is not None else None
        )
        if root is not None and grant > arrival:
            trace.note_wait(queue.group, grant - arrival, 0.0)
        before = _traffic_totals(stats)
        try:
            op_name = next(tn.gen)
        except StopIteration:
            if root is not None:
                root.op = "drain"
                trace.end(root)
            tn.dropped += 1
            tn.finish()
            backlog.pop(tn.index, None)
            if fssan.ENABLED:
                sanity(tn)
            continue
        end = clock.now
        if root is not None:
            root.op = op_name
            trace.end(root)
        queue.complete(slot, grant, end)
        _attribute(tn, before, _traffic_totals(stats))
        if op_name == CRASHED:
            # The dispatched op was in flight when the shard lost power:
            # it was submitted but never served (lost to crash), and the
            # recovery protocol runs right here, at t_down = `end`.
            tn.lost_to_crash += 1
            if dispatch_log is not None:
                dispatch_log.append({
                    "device": device,
                    "tenant": tn.spec.name,
                    "op": op_name,
                    "arrival": arrival,
                    "begin": grant,
                    "end": end,
                })
            crash_and_recover(
                clock, device, device_obj, fs, tenants, queue, sched,
                stats, fault, outage_policy, tracer,
            )
            if fssan.ENABLED:
                sanity(tn)
            continue
        sched.on_dispatch(tn, grant)
        sched.charge(tn, end - grant)
        lat = end - arrival
        tn.served += 1
        tn.latency.record(op_name, lat)
        tn.latency.record(ALL_OPS, lat)
        cluster_latency.record(op_name, lat)
        cluster_latency.record(ALL_OPS, lat)
        if lat > tn.spec.slo_ms * MSEC:
            tn.slo_violations += 1
            if (
                fault is not None and fault.done
                and arrival < fault.t_up and end > fault.t_down
            ):
                tn.slo_violations_outage += 1
        if dispatch_log is not None:
            dispatch_log.append({
                "device": device,
                "tenant": tn.spec.name,
                "op": op_name,
                "arrival": arrival,
                "begin": grant,
                "end": end,
            })
        if fssan.ENABLED:
            sanity(tn)
        if fault is not None and fault.armed and not fault.done:
            # The crash op completed without reaching a device-visible
            # mutation (e.g. a cache-hit read): power drops at the op
            # boundary instead, with nothing in flight.
            crash_and_recover(
                clock, device, device_obj, fs, tenants, queue, sched,
                stats, fault, outage_policy, tracer,
            )
    if fault is not None and not fault.done:
        # The drain finished before the trigger was reached (or the
        # armed crash never saw another dispatch): the planned fault
        # still executes, as a between-ops power-off at drain end, so a
        # matrix cell always exercises the recovery path.
        tmax = max(time_of(tn.tid) for tn in tenants)
        clock.switch(tenants[0].tid)
        clock.advance_to(tmax)
        crash_and_recover(
            clock, device, device_obj, fs, tenants, queue, sched,
            stats, fault, outage_policy, tracer,
        )


# ---------------------------------------------------------------------- #
# shared setup / drain building blocks (serial path and shard workers)
# ---------------------------------------------------------------------- #

def setup_tenant(
    backend,
    clock: VirtualClock,
    index: int,
    spec: TenantSpec,
    device: int,
    faulted: bool,
    seed: int,
) -> TenantRT:
    """Mount, prepare and oracle-mirror one tenant on its shard.

    Runs on the tenant's own clock thread.  Setups of tenants on
    different devices touch disjoint state (per-device file system,
    resources, stats) and distinct clock threads, so any subset of them
    replays identically in a worker process.
    """
    clock.switch(index)
    ns = backend.mount_namespace(spec, device)
    workload = make_tenant_workload(spec, seed)
    oracle: Optional[OracleFS] = None
    if faulted:
        if not hasattr(workload, "attach_oracle"):
            raise ValueError(
                f"tenant {spec.name!r} runs workload "
                f"{spec.workload!r} on faulted device {device}; only "
                "profile/'synthetic' workloads can be oracle-"
                "mirrored through a crash"
            )
        oracle = OracleFS()
        workload.attach_oracle(oracle)
    workload.setup(ns)
    gen = workload.make_threads(ns)[0]
    return TenantRT(
        index=index, spec=spec, gen=gen, arrivals=[], ns=ns, oracle=oracle,
    )


def gen_arrivals(tn: TenantRT, seed: int, t0: float) -> None:
    """Seed the tenant's open-loop Poisson arrival stream from ``t0``."""
    rng = make_rng(seed, f"arrivals:{tn.spec.name}")
    t = t0
    rate = tn.spec.rate_ops_s
    if rate <= 0:
        raise ValueError(
            f"tenant {tn.spec.name!r} needs a positive rate_ops_s"
        )
    for _ in range(tn.spec.n_ops):
        t += rng.expovariate(rate) * SEC
        tn.arrivals.append(t)


def run_device_drain(
    clock: VirtualClock,
    device: int,
    tenants: List[TenantRT],
    sched: Scheduler,
    queue: AdmissionQueue,
    stats: TrafficStats,
    max_queue: int,
    cluster_latency: LatencyRecorder,
    dispatch_log: Optional[List],
    device_obj,
    fs,
    fault: Optional[DeviceFault],
    outage_policy: str,
    fault_seed: int,
    span_tracer: Optional[Tracer],
    auto_trace: bool,
):
    """Drain one device, under the right tracing regime.

    ``span_tracer`` (``traced=True`` runs) is a single span-keeping
    tracer already activated by the caller.  Otherwise, when
    ``auto_trace`` is set, the drain runs under its own metrics-only
    tracer and its registry is returned — per-device registries merged
    in device-index order are how the serial path and the sharded path
    produce bit-identical layer aggregates.
    """
    kwargs = dict(
        device_obj=device_obj, fs=fs, fault=fault,
        outage_policy=outage_policy, fault_seed=fault_seed,
    )
    if span_tracer is not None:
        serve_device(
            clock, device, tenants, sched, queue, stats, max_queue,
            cluster_latency, dispatch_log, span_tracer, **kwargs,
        )
        return None
    if auto_trace:
        tr = Tracer(clock, keep_spans=False)
        with trace.activated(tr):
            serve_device(
                clock, device, tenants, sched, queue, stats, max_queue,
                cluster_latency, dispatch_log, tr, **kwargs,
            )
        tr.close_all()
        return tr.metrics
    serve_device(
        clock, device, tenants, sched, queue, stats, max_queue,
        cluster_latency, dispatch_log, None, **kwargs,
    )
    return None


def run_orphan_crash(
    clock: VirtualClock,
    device: int,
    device_obj,
    fs,
    queue: AdmissionQueue,
    stats: TrafficStats,
    fault: DeviceFault,
    outage_policy: str,
    span_tracer: Optional[Tracer],
    auto_trace: bool,
):
    """Power-cycle a faulted device that served no tenants.

    Runs on thread 0 after the populated shards drained, so its
    recovery work never delays a tenant's timeline.  Same tracing
    regimes as :func:`run_device_drain`.
    """
    clock.switch(0)
    if span_tracer is not None:
        crash_and_recover(
            clock, device, device_obj, fs, [], queue, None, stats,
            fault, outage_policy, span_tracer,
        )
        return None
    if auto_trace:
        tr = Tracer(clock, keep_spans=False)
        with trace.activated(tr):
            crash_and_recover(
                clock, device, device_obj, fs, [], queue, None, stats,
                fault, outage_policy, tr,
            )
        tr.close_all()
        return tr.metrics
    crash_and_recover(
        clock, device, device_obj, fs, [], queue, None, stats,
        fault, outage_policy, None,
    )
    return None
