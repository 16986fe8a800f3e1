"""The deterministic reducer of the process-parallel serving path.

:func:`merge_shard_results` reassembles per-worker
:class:`~repro.cluster.worker.ShardResult` fragments into one
:class:`~repro.cluster.result.ClusterRunResult` whose serialized
``repro.cluster.run/v2`` document — and whose telemetry
``repro.telemetry.series/v1`` output — is byte-identical to the serial
(``workers=0``) run, regardless of worker count or completion order.

Why byte identity is achievable at all:

* every per-tenant and per-device quantity is produced by exactly one
  worker, from the same seeded state the serial run would have — the
  reducer only has to put fragments back into canonical order (tenants
  by global index, devices and recovery records by device index,
  outages in serial emission order);
* the two cross-shard aggregates are order-insensitive at the byte
  level: latency summaries are computed over *sorted* sample lists
  (any merge grouping yields the same bytes), and trace metric
  registries are merged in device-index order — the exact grouping the
  serial path uses — so even float accumulation order matches;
* telemetry rows re-sort at export (``sorted_rows``), so concatenation
  order is irrelevant.

Completion order never enters: the reducer iterates workers by id and
devices by index, never by arrival of their pipe messages.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.sim.clock import SEC
from repro.stats.traffic import LatencyRecorder
from repro.telemetry.sampler import TelemetrySampler

from repro.cluster.result import ClusterRunResult, TenantResult


def merge_shard_results(
    results: List,
    *,
    fs_name: str,
    scheduler: Dict,
    n_devices: int,
    n_tenants: int,
    queue_depth: int,
    max_queue: int,
    seed: int,
    outage_policy: str,
    fault_plan: Optional[List[Dict]],
    devcache_echo: Optional[Dict],
    populated: Set[int],
    t0: float,
    t_end: float,
    wall_s: float,
    sample_every_ns: Optional[float],
    sampler_meta: Optional[Dict],
    auto_trace: bool,
) -> ClusterRunResult:
    """Reduce worker fragments into the canonical cluster result.

    ``populated`` is the set of devices that served at least one tenant
    (outage records of tenant-less faulted devices sort after it, the
    serial emission order).  ``sampler_meta`` is the header meta the
    serial path would have given its sampler.
    """
    ordered = sorted(results, key=lambda r: r.worker_id)

    tenant_by_index: Dict[int, TenantResult] = {}
    device_summaries: Dict[int, Dict] = {}
    recovery_by_device: Dict[int, Dict] = {}
    latency = LatencyRecorder()
    for shard in ordered:
        for index, tres in shard.tenants:
            tenant_by_index[index] = tres
        device_summaries.update(shard.device_summaries)
        recovery_by_device.update(shard.recovery)
        latency.merge(shard.latency)
    missing_t = [i for i in range(n_tenants) if i not in tenant_by_index]
    if missing_t:
        raise RuntimeError(f"no shard served tenants {missing_t}")
    missing_d = [k for k in range(n_devices) if k not in device_summaries]
    if missing_d:
        raise RuntimeError(f"no shard summarized devices {missing_d}")

    merged_metrics = None
    if auto_trace:
        # Local import: the reducer must not force the trace subsystem
        # on plain runs.
        from repro.trace.metrics import MetricsRegistry

        metrics_by_device: Dict[int, object] = {}
        for shard in ordered:
            metrics_by_device.update(shard.metrics)
        merged_metrics = MetricsRegistry()
        for dev in sorted(metrics_by_device):
            merged_metrics.merge(metrics_by_device[dev])

    telemetry = None
    if sample_every_ns is not None:
        rows: List[Dict] = []
        outages: List[Dict] = []
        for shard in ordered:
            rows.extend(shard.telemetry_rows or ())
            outages.extend(shard.telemetry_outages or ())
        outages.sort(
            key=lambda o: (o["device"] not in populated, o["device"])
        )
        telemetry = TelemetrySampler.merged(
            t0, sample_every_ns, sampler_meta, rows, outages
        )
        telemetry.finalize(t_end, merged_metrics)

    return ClusterRunResult(
        fs_name=fs_name,
        scheduler=scheduler,
        n_devices=n_devices,
        queue_depth=queue_depth,
        max_queue=max_queue,
        seed=seed,
        elapsed_s=(t_end - t0) / SEC,
        tenants=[tenant_by_index[i] for i in range(n_tenants)],
        devices=[device_summaries[k] for k in range(n_devices)],
        latency=latency,
        trace=None,
        dispatch_log=_merge_dispatch_logs(ordered, n_devices),
        outage_policy=outage_policy,
        fault_plan=fault_plan,
        devcache=devcache_echo,
        recovery=[
            recovery_by_device[dev] for dev in sorted(recovery_by_device)
        ],
        telemetry=telemetry,
        wall_s=wall_s,
    )


def _merge_dispatch_logs(
    ordered: List, n_devices: int
) -> Optional[List[Dict]]:
    """Concatenate per-device log fragments in device-index order — the
    serial path drains devices in that order, so entry order matches."""
    if all(shard.dispatch_log is None for shard in ordered):
        return None
    log_by_device: Dict[int, List[Dict]] = {}
    for shard in ordered:
        log_by_device.update(shard.dispatch_log or {})
    merged: List[Dict] = []
    for dev in range(n_devices):
        merged.extend(log_by_device.get(dev, ()))
    return merged
