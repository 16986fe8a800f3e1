"""The multi-tenant serving harness.

:func:`serve_cluster` runs N tenants against a :class:`ShardedBackend`
under a pluggable I/O scheduler and returns a
:class:`~repro.cluster.result.ClusterRunResult`.

Unlike the single-tenant bench harness (closed loop: each thread issues
its next op the instant the previous one returns), tenants here are
**open loop**: each tenant's requests arrive by a seeded Poisson process
at ``spec.rate_ops_s`` on the virtual timeline, independent of service
progress.  Arrivals queue per tenant; backlog is what gives the
scheduler real choices, and per-op latency = queueing delay + service
time, measured from *arrival* to completion — so a noisy neighbour's
backlog shows up in its victims' tail latencies, which is the effect the
DRR and token-bucket policies exist to bound.

Dispatch semantics (per device, deterministic):

1. The next *decision instant* ``t_dec`` is the earliest virtual time at
   which some tenant has a dispatchable request (arrived, client thread
   free) **and** the admission queue has a free slot.
2. Arrivals up to ``t_dec`` are pumped into per-tenant queues;
   admission control rejects arrivals beyond ``max_queue``.
3. The scheduler picks among eligible backlogged tenants; the grant
   starts at ``t_dec`` (work-conserving policies) or at the tenant's
   token-release time (token bucket), and the op runs on the tenant's
   own clock thread so device-level contention is shared with any
   overlapping ops admitted through other queue slots.

The dispatch loop itself lives in :mod:`repro.cluster.kernel`
(:func:`~repro.cluster.kernel.serve_device`): a per-shard event kernel
that finds each decision instant with lazy min-heaps instead of tenant
scans, so idle virtual time is skipped in O(1).

**Process-parallel serving** (``workers=N`` / ``repro serve --workers``):
device shards are causally independent between two sync points (the
post-setup epoch ``t0`` and the run end ``t_end``), so the cluster can
run one worker process per shard group — see
:mod:`repro.cluster.worker` for the protocol and
:mod:`repro.cluster.merge` for the deterministic reducer.  ``workers=0``
(the default) keeps the in-process serial path, which is the reference:
``workers=K`` produces byte-identical result and telemetry documents
for every K.  ``traced=True`` (span-keeping) requires the serial path;
metrics-only auto tracing (``REPRO_TRACE=1``) works under both.

**Faults under load** (``faults=`` / ``repro serve --fault``): a
:class:`~repro.faults.plan.DeviceCrash` powers one shard off mid-run —
at a virtual time or after N dispatched requests — while tenants keep
arriving.  The crash lands on the first dispatch at/after the trigger:
if that op reaches a device-visible mutation the shard's injector fires
a :class:`~repro.faults.injector.CrashPoint` (optionally torn) with the
op in flight; an op that mutates nothing (e.g. a cache-hit read) has
power drop at the op boundary instead.  The in-flight op counts as
*lost to crash* (submitted, never served), the device queue is down
until recovery completes, and the file system's own crash-recovery path
(``fs.crash()`` + ``fs.remount()``) runs inside the outage window,
followed by a durability-oracle scrub of every tenant namespace on the
shard.  Arrivals landing inside the outage either wait (``requeue``,
the default — SLO damage accrues) or bounce (``reject``).  A trigger
the run never reaches fires at drain, so a planned fault always
executes.  The extended request ledger — checked by FSSAN-QUEUE — is
``submitted == served + pending + rejected + dropped + lost_to_crash``.

Everything is a pure function of (seed, config): two identical
``serve_cluster`` calls produce byte-identical result JSON.  The
measured wall-clock quantities (recovery ``wall_s``, the drain-phase
``result.wall_s``) therefore live only on the live result object; the
former serializes as ``null``, the latter not at all.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.analysis import fssan
from repro.faults.plan import DeviceCrash, check_fault_plan, plan_by_device
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import TimingModel
from repro.sim.clock import SEC, VirtualClock
from repro.stats.traffic import LatencyRecorder
from repro.telemetry import sampler as telem
from repro.trace import tracer as trace
from repro.trace.metrics import MetricsRegistry
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
from repro.cluster.merge import merge_shard_results
from repro.cluster.result import ClusterRunResult, TenantResult
from repro.cluster.sched import Scheduler, make_scheduler
from repro.cluster.shard import ShardedBackend, place_tenant
from repro.cluster.tenant import TenantSpec, make_tenant_workload
from repro.cluster.worker import ShardTask, run_shard_workers

#: outage policies for arrivals landing inside [t_down, t_up)
OUTAGE_POLICIES = ("requeue", "reject")


def _devcache_echo(devcache) -> Optional[Dict]:
    # Config echo of the device-DRAM cache tier; None (cache off) keeps
    # the result document byte-identical to pre-devcache runs.
    if devcache is None:
        return None
    return {
        "cache_bytes": devcache.cache_bytes,
        "policy": devcache.policy,
        "prefetch": devcache.prefetch,
    }


def _sampler_meta(
    fs_name: str, sched: str, n_devices: int, queue_depth: int,
    max_queue: int, seed: int,
) -> Dict:
    return {
        "fs": fs_name,
        "scheduler": sched,
        "n_devices": n_devices,
        "queue_depth": queue_depth,
        "max_queue": max_queue,
        "seed": seed,
    }


def serve_cluster(
    tenants: List[TenantSpec],
    fs_name: str = "bytefs",
    n_devices: int = 1,
    sched: str = "drr",
    seed: int = 42,
    queue_depth: int = 4,
    max_queue: int = 64,
    quantum_ns: Optional[float] = None,
    geometry: Optional[FlashGeometry] = None,
    timing: Optional[TimingModel] = None,
    log_bytes: int = 1 << 20,
    device_cache_bytes: int = 1 << 20,
    page_cache_pages: int = 512,
    devcache=None,
    traced: bool = False,
    keep_dispatch_log: bool = False,
    unmount: bool = False,
    faults: Optional[Sequence[DeviceCrash]] = None,
    outage_policy: str = "requeue",
    sample_every_ns: Optional[float] = None,
    workers: int = 0,
) -> ClusterRunResult:
    """Run ``tenants`` against a sharded backend under scheduler ``sched``.

    Setup (namespace creation, file-set preparation) happens before the
    measurement epoch, exactly like the single-tenant harness: traffic
    stats reset and arrival processes start after all tenants are set up
    and every timeline is synchronized.

    ``faults`` crashes and recovers devices mid-run (see the module
    docstring); every tenant placed on a faulted device must use a
    profile/``synthetic`` workload, because only those can be mirrored
    into the durability oracle across a crash.

    ``sample_every_ns`` turns on live telemetry: a
    :class:`~repro.telemetry.sampler.TelemetrySampler` samples every
    shard at that virtual-time interval during the measured phase and is
    returned on the live-only ``result.telemetry`` field (serialize it
    with :func:`repro.telemetry.series.write_series`).  ``None`` (the
    default) leaves the serve loop's telemetry hooks dormant.

    ``workers`` > 0 runs ``min(workers, n_devices)`` shard worker
    processes and reduces their fragments deterministically; the
    returned result (and its telemetry series) is byte-identical to the
    in-process ``workers=0`` run.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError("tenant names must be unique")
    if outage_policy not in OUTAGE_POLICIES:
        raise ValueError(
            f"unknown outage policy {outage_policy!r}; choose from "
            f"{', '.join(OUTAGE_POLICIES)}"
        )
    if workers < 0:
        raise ValueError("workers must be >= 0")
    fault_specs = check_fault_plan(list(faults or ()), n_devices)
    fault_for = plan_by_device(fault_specs)
    auto_trace = bool(trace.AUTO) and not traced
    if workers > 0:
        return _serve_parallel(
            tenants=tenants, fs_name=fs_name, n_devices=n_devices,
            sched=sched, seed=seed, queue_depth=queue_depth,
            max_queue=max_queue, quantum_ns=quantum_ns,
            geometry=geometry, timing=timing, log_bytes=log_bytes,
            device_cache_bytes=device_cache_bytes,
            page_cache_pages=page_cache_pages, devcache=devcache,
            traced=traced,
            keep_dispatch_log=keep_dispatch_log, unmount=unmount,
            fault_specs=fault_specs, outage_policy=outage_policy,
            sample_every_ns=sample_every_ns, workers=workers,
            auto_trace=auto_trace,
        )
    clock = VirtualClock(len(tenants))
    backend = ShardedBackend(
        fs_name,
        n_devices,
        clock,
        geometry=geometry,
        timing=timing,
        log_bytes=log_bytes,
        device_cache_bytes=device_cache_bytes,
        page_cache_pages=page_cache_pages,
        devcache=devcache,
        queue_depth=queue_depth,
        fault_devices=fault_for,
    )
    # -------------------- setup phase (un-measured) -------------------- #
    runtime: List[TenantRT] = []
    placement: List[int] = []
    for i, spec in enumerate(tenants):
        dev = backend.place(spec)
        placement.append(dev)
        runtime.append(setup_tenant(
            backend, clock, i, spec, dev, dev in fault_for, seed,
        ))
    # Measurement epoch: sync every timeline, zero every shard's stats.
    t0 = clock.sync_all()
    backend.reset_epoch()
    fault_rt: List[Optional[DeviceFault]] = [None] * n_devices
    for dev in sorted(fault_for):
        fspec = fault_for[dev]
        frt = DeviceFault(spec=fspec, injector=backend.injectors[dev])
        if fspec.at_s is not None:
            frt.t_crash = t0 + fspec.at_s * SEC
        fault_rt[dev] = frt
    # Open-loop Poisson arrivals, one independent stream per tenant.
    for tn in runtime:
        gen_arrivals(tn, seed, t0)
    # ------------------------- measured phase -------------------------- #
    by_device: List[List[TenantRT]] = [[] for _ in range(n_devices)]
    for tn, dev in zip(runtime, placement):
        by_device[dev].append(tn)
    scheds: List[Scheduler] = [
        make_scheduler(sched, group, quantum_ns) for group in by_device
    ]
    cluster_latency = LatencyRecorder()
    dispatch_log: Optional[List] = [] if keep_dispatch_log else None
    tracer: Optional[Tracer] = None
    if traced:
        tracer = Tracer(clock, keep_spans=True)
    #: per-device metrics registries (auto-trace runs; merged in device
    #: order so serial and sharded layer aggregates are bit-identical)
    metrics_by_device: Dict[int, MetricsRegistry] = {}
    sampler: Optional[telem.TelemetrySampler] = None
    if sample_every_ns is not None:
        sampler = telem.TelemetrySampler(
            t0, sample_every_ns,
            meta=_sampler_meta(
                fs_name, sched, n_devices, queue_depth, max_queue, seed,
            ),
        )
        for dev in range(n_devices):
            sampler.add_device(
                dev,
                gauges=backend.devices[dev].gauges,
                queue=backend.queues[dev],
                tenants=by_device[dev],
                stats=backend.stats[dev],
                time_of=clock.time_of,
            )

    def _drain() -> None:
        # Tenants never span devices, so shards are causally independent
        # and can be drained one after another on the shared clock.
        for dev in range(n_devices):
            if by_device[dev]:
                reg = run_device_drain(
                    clock, dev, by_device[dev], scheds[dev],
                    backend.queues[dev], backend.stats[dev], max_queue,
                    cluster_latency, dispatch_log,
                    backend.devices[dev], backend.filesystems[dev],
                    fault_rt[dev], outage_policy, seed,
                    tracer, auto_trace,
                )
                if reg is not None:
                    metrics_by_device[dev] = reg
        # A faulted device with no tenants still power-cycles (after the
        # populated shards drained, so its recovery work never delays a
        # tenant's timeline).
        for dev in range(n_devices):
            frt = fault_rt[dev]
            if frt is not None and not frt.done and not by_device[dev]:
                reg = run_orphan_crash(
                    clock, dev, backend.devices[dev],
                    backend.filesystems[dev], backend.queues[dev],
                    backend.stats[dev], frt, outage_policy,
                    tracer, auto_trace,
                )
                if reg is not None:
                    metrics_by_device[dev] = reg

    wall0 = time.perf_counter()
    if sampler is not None:
        telem.activate(sampler)
    try:
        if tracer is not None:
            with trace.activated(tracer):
                _drain()
            tracer.close_all()
        else:
            _drain()
    finally:
        if sampler is not None:
            telem.deactivate()
    wall_s = time.perf_counter() - wall0
    # Final queue-accounting audit, sanitizer or not: a broken invariant
    # here means the result's counters are lies.
    for tn in runtime:
        with fssan.sanitized():
            sanity(tn)
    result_tracer = tracer
    merged_metrics: Optional[MetricsRegistry] = None
    if auto_trace:
        merged_metrics = MetricsRegistry()
        for dev in sorted(metrics_by_device):
            merged_metrics.merge(metrics_by_device[dev])
        result_tracer = Tracer(clock, keep_spans=False,
                               metrics=merged_metrics)
    elapsed_s = (clock.elapsed_ns - t0) / SEC
    if sampler is not None:
        # Close every shard's timeline at the run end (equal-length
        # series per device) and bridge the per-layer latency histograms
        # into end-of-run layer rows.
        t_end = clock.elapsed_ns
        for dev in range(n_devices):
            sampler.advance(dev, t_end)
        sampler.finalize(
            t_end,
            tracer.metrics if tracer is not None else merged_metrics,
        )
    if unmount:
        backend.unmount()
    return ClusterRunResult(
        fs_name=fs_name,
        scheduler=scheds[0].config_json(),
        n_devices=n_devices,
        queue_depth=queue_depth,
        max_queue=max_queue,
        seed=seed,
        elapsed_s=elapsed_s,
        tenants=[
            TenantResult(
                spec=tn.spec.to_json(),
                device=placement[tn.index],
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
            for tn in runtime
        ],
        devices=[
            backend.device_summary(k, elapsed_s) for k in range(n_devices)
        ],
        latency=cluster_latency,
        trace=result_tracer,
        dispatch_log=dispatch_log,
        outage_policy=outage_policy,
        fault_plan=(
            [f.to_json() for f in fault_specs] if fault_specs else None
        ),
        devcache=_devcache_echo(devcache),
        recovery=[
            frt.record for frt in fault_rt
            if frt is not None and frt.record is not None
        ],
        telemetry=sampler,
        wall_s=wall_s,
    )


def _serve_parallel(
    *,
    tenants: List[TenantSpec],
    fs_name: str,
    n_devices: int,
    sched: str,
    seed: int,
    queue_depth: int,
    max_queue: int,
    quantum_ns: Optional[float],
    geometry: Optional[FlashGeometry],
    timing: Optional[TimingModel],
    log_bytes: int,
    device_cache_bytes: int,
    page_cache_pages: int,
    devcache,
    traced: bool,
    keep_dispatch_log: bool,
    unmount: bool,
    fault_specs: List[DeviceCrash],
    outage_policy: str,
    sample_every_ns: Optional[float],
    workers: int,
    auto_trace: bool,
) -> ClusterRunResult:
    """Shard the cluster over worker processes and reduce the fragments.

    Everything the serial path would reject with a ``ValueError`` is
    rejected here, before any process spawns, so the caller-visible
    error contract does not depend on ``workers``.
    """
    if traced:
        raise ValueError(
            "traced=True keeps one span tree on one tracer and requires "
            "the in-process serial path (workers=0); metrics-only auto "
            "tracing works with workers"
        )
    if sample_every_ns is not None and sample_every_ns <= 0:
        raise ValueError("sample_every_ns must be positive")
    # The scheduler name and the placement pins validate parent-side.
    scheduler_echo = make_scheduler(sched, [], quantum_ns).config_json()
    placement = [place_tenant(spec, n_devices) for spec in tenants]
    fault_for = plan_by_device(fault_specs)
    for spec, dev in zip(tenants, placement):
        if dev in fault_for and not hasattr(
            make_tenant_workload(spec, seed), "attach_oracle"
        ):
            raise ValueError(
                f"tenant {spec.name!r} runs workload "
                f"{spec.workload!r} on faulted device {dev}; only "
                "profile/'synthetic' workloads can be oracle-"
                "mirrored through a crash"
            )
        if spec.rate_ops_s <= 0:
            raise ValueError(
                f"tenant {spec.name!r} needs a positive rate_ops_s"
            )
    n_workers = min(workers, n_devices)
    populated = set(placement)
    owner = {dev: dev % n_workers for dev in range(n_devices)}
    # A faulted device with no tenants power-cycles on clock thread 0 at
    # drain end; only the worker serving tenant 0's device knows that
    # thread's post-drain time, so such devices move to that worker.
    home = owner[placement[0]]
    for dev in sorted(fault_for):
        if dev not in populated:
            owner[dev] = home
    tenant_entries = tuple(
        (i, spec, placement[i]) for i, spec in enumerate(tenants)
    )
    tasks = [
        ShardTask(
            worker_id=w,
            fs_name=fs_name,
            n_devices=n_devices,
            n_tenants=len(tenants),
            tenants=tenant_entries,
            owned_devices=tuple(
                dev for dev in range(n_devices) if owner[dev] == w
            ),
            sched=sched,
            seed=seed,
            queue_depth=queue_depth,
            max_queue=max_queue,
            quantum_ns=quantum_ns,
            geometry=geometry,
            timing=timing,
            log_bytes=log_bytes,
            device_cache_bytes=device_cache_bytes,
            page_cache_pages=page_cache_pages,
            devcache=devcache,
            faults=tuple(fault_specs),
            outage_policy=outage_policy,
            sample_every_ns=sample_every_ns,
            keep_dispatch_log=keep_dispatch_log,
            unmount=unmount,
            auto_trace=auto_trace,
        )
        for w in range(n_workers)
    ]
    t0, t_end, wall_s, results = run_shard_workers(tasks)
    return merge_shard_results(
        results,
        fs_name=fs_name,
        scheduler=scheduler_echo,
        n_devices=n_devices,
        n_tenants=len(tenants),
        queue_depth=queue_depth,
        max_queue=max_queue,
        seed=seed,
        outage_policy=outage_policy,
        fault_plan=(
            [f.to_json() for f in fault_specs] if fault_specs else None
        ),
        devcache_echo=_devcache_echo(devcache),
        populated=populated,
        t0=t0,
        t_end=t_end,
        wall_s=wall_s,
        sample_every_ns=sample_every_ns,
        sampler_meta=(
            _sampler_meta(
                fs_name, sched, n_devices, queue_depth, max_queue, seed,
            )
            if sample_every_ns is not None else None
        ),
        auto_trace=auto_trace,
    )
