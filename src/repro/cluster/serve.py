"""The multi-tenant serving harness.

:func:`serve_cluster` runs N tenants against K sharded device stacks
(:mod:`repro.cluster.shard`) under a pluggable I/O scheduler and returns
a :class:`~repro.cluster.result.ClusterRunResult`.

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

**One serve path, in-process or sharded** (``workers=N`` /
``repro serve --workers``): device shards are causally independent
between two sync points (the post-setup epoch ``t0`` and the run end
``t_end``), so the cluster always runs as shard groups through one
protocol — see :mod:`repro.cluster.worker` for the protocol and
:mod:`repro.cluster.merge` for the deterministic reducer.  ``workers=0``
(the default) runs the one group that owns every device in this
process; ``workers=K`` spawns ``min(K, n_devices)`` worker processes.
Result and telemetry documents are byte-identical for every K.
``traced=True`` (span-keeping) requires ``workers=0``; metrics-only
auto tracing (``REPRO_TRACE=1``) works under both.

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
former serializes as ``null``, the latter not at all.  So does the
span tracer of a ``traced=True`` run (``result.trace``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.faults.plan import DeviceCrash, check_fault_plan, plan_by_device
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import TimingModel
from repro.trace import tracer as trace

from repro.cluster.merge import merge_shard_results
from repro.cluster.result import ClusterRunResult
from repro.cluster.sched import make_scheduler
from repro.cluster.shard import place_tenant
from repro.cluster.tenant import TenantSpec, make_tenant_workload
from repro.cluster.worker import (
    ShardTask,
    run_shard_inline,
    run_shard_workers,
)

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

    ``workers`` > 0 runs the shards in ``min(workers, n_devices)``
    worker processes; 0 runs one shard owning every device in this
    process.  Every input check runs here, before any shard starts, so
    the ``ValueError`` contract does not depend on ``workers``.
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
    if n_devices < 1:
        raise ValueError("need at least one device")
    if traced and workers > 0:
        raise ValueError(
            "traced=True keeps one span tree on one tracer and requires "
            "the in-process serial shard (workers=0); metrics-only auto "
            "tracing works with workers"
        )
    if sample_every_ns is not None and sample_every_ns <= 0:
        raise ValueError("sample_every_ns must be positive")
    fault_specs = check_fault_plan(list(faults or ()), n_devices)
    fault_for = plan_by_device(fault_specs)
    # Decided here: a worker must not re-read the environment (the flag
    # may have been toggled in-process).
    auto_trace = bool(trace.AUTO) and not traced
    # The scheduler name and the placement pins validate here too.
    scheduler_echo = make_scheduler(sched, [], quantum_ns).config_json()
    placement = [place_tenant(spec, n_devices) for spec in tenants]
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
    n_shards = max(1, min(workers, n_devices))
    populated = set(placement)
    owner = {dev: dev % n_shards for dev in range(n_devices)}
    # A faulted device with no tenants power-cycles on clock thread 0 at
    # drain end; only the shard serving tenant 0's device knows that
    # thread's post-drain time, so such devices move to that shard.
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
            traced=traced,
            auto_trace=auto_trace,
        )
        for w in range(n_shards)
    ]
    run = run_shard_workers if workers > 0 else run_shard_inline
    t0, t_end, wall_s, results = run(tasks)
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
        sampler_meta={
            "fs": fs_name,
            "scheduler": sched,
            "n_devices": n_devices,
            "queue_depth": queue_depth,
            "max_queue": max_queue,
            "seed": seed,
        },
        auto_trace=auto_trace,
    )
