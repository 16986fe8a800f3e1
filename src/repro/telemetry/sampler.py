"""Deterministic virtual-time metric sampling for the serving layer.

A :class:`TelemetrySampler` turns the serving stack's live state into a
**time series on the virtual clock**: at every boundary ``t0 + k *
sample_every_ns`` it reads a set of gauges and counters — per-tenant
queue depth, in-flight ops and SLO/rejection counters from
:mod:`repro.cluster`; per-device GC activity, free blocks, log-buffer
occupancy and traffic from the device stack's public gauge surface
(:meth:`repro.ssd.device.MSSD.gauges`) — and records one row per scope.

Sampling is **pull-based and deterministic**: nothing in the device hot
path pushes samples; the serving loop calls :meth:`advance` at each
dispatch decision instant and the sampler emits rows for every boundary
crossed since the last call, stamped with the boundary's virtual time.
Values are therefore "state as of the first dispatch decision at or
after the boundary" — an explicit, replayable discipline (two identical
seeded runs cross identical boundaries in identical states and produce
byte-identical series).

Device crash/recovery shows up as gauge transitions: boundaries that
fall inside an outage window ``[t_down, t_up)`` are emitted with
``up = 0`` (see :meth:`mark_outage`), so a `repro serve --fault` run
renders as ``up 1 → 0 → 1`` with the post-recovery gauge step.

Instrumentation follows the :mod:`repro.trace.tracer` zero-cost-when-off
discipline: a module-level :data:`ENABLED` flag is flipped only while a
sampler is activated, every serve-loop hook site guards on it first, and
the benchmark (``perfbench/run.py``) never activates one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.stats.traffic import Direction, TrafficStats

#: Master switch read by the serve-loop hook sites.  True only while a
#: sampler is activated; flip it via :func:`activate` / :func:`deactivate`.
ENABLED = False

#: The currently active sampler (``None`` when telemetry is off).
_ACTIVE: Optional["TelemetrySampler"] = None

#: Row scopes, in deterministic sort order.
SCOPES = ("device", "tenant", "layer")

_SCOPE_RANK = {name: i for i, name in enumerate(SCOPES)}

#: LatencyRecorder key aggregating every op (mirrors cluster.result).
_ALL_OPS = "all"


def activate(sampler: "TelemetrySampler") -> None:
    global ENABLED, _ACTIVE
    _ACTIVE = sampler
    ENABLED = True


def deactivate() -> None:
    global ENABLED, _ACTIVE
    ENABLED = False
    _ACTIVE = None


def active() -> Optional["TelemetrySampler"]:
    return _ACTIVE


class _DeviceProbe:
    """Everything the sampler reads about one device shard."""

    __slots__ = ("device", "gauges", "queue", "tenants", "stats", "time_of")

    def __init__(
        self,
        device: int,
        gauges: Callable[[], Dict[str, float]],
        queue,                      # cluster.sched.AdmissionQueue
        tenants: List,              # cluster.serve._TenantRT runtime states
        stats: TrafficStats,
        time_of: Callable[[int], float],
    ) -> None:
        self.device = device
        self.gauges = gauges
        self.queue = queue
        self.tenants = list(tenants)
        self.stats = stats
        self.time_of = time_of


class TelemetrySampler:
    """Samples the serving stack at fixed virtual-clock intervals.

    ``meta`` is echoed into the series header (fs, scheduler, seed, …)
    so a series file is interpretable on its own.
    """

    def __init__(
        self,
        t0: float,
        sample_every_ns: float,
        meta: Optional[Dict] = None,
    ) -> None:
        if sample_every_ns <= 0:
            raise ValueError("sample_every_ns must be positive")
        self.t0 = t0
        self.sample_every_ns = float(sample_every_ns)
        self.meta: Dict = dict(meta or {})
        self.rows: List[Dict] = []
        self._probes: Dict[int, _DeviceProbe] = {}
        self._next_k: Dict[int, int] = {}
        self._up: Dict[int, int] = {}
        self._outages: List[Dict] = []
        self._t_end: Optional[float] = None

    @classmethod
    def merged(
        cls,
        t0: float,
        sample_every_ns: float,
        meta: Optional[Dict],
        rows: List[Dict],
        outages: List[Dict],
    ) -> "TelemetrySampler":
        """Reassemble a sampler from per-shard fragments.

        The process-parallel serving path samples each device in the
        worker that owns it; the reducer concatenates the per-worker
        ``rows`` and ``outages`` (each device's series produced by
        exactly one worker) and rebuilds a sampler equivalent to the
        serial run's.  Row order does not matter — every exported view
        goes through :meth:`sorted_rows` — but the caller must pass
        ``outages`` in the serial emission order (populated faulted
        devices by index, then tenant-less ones).  Call
        :meth:`finalize` afterwards to close the series at the global
        run end.
        """
        sampler = cls(t0, sample_every_ns, meta)
        sampler.rows = list(rows)
        sampler._outages = list(outages)
        return sampler

    # ------------------------------------------------------------------ #
    # registration (setup phase)
    # ------------------------------------------------------------------ #

    def add_device(
        self,
        device: int,
        gauges: Callable[[], Dict[str, float]],
        queue,
        tenants: List,
        stats: TrafficStats,
        time_of: Callable[[int], float],
    ) -> None:
        """Register one device shard's gauge sources."""
        if device in self._probes:
            raise ValueError(f"device {device} registered twice")
        self._probes[device] = _DeviceProbe(
            device, gauges, queue, tenants, stats, time_of
        )
        self._next_k[device] = 0
        self._up[device] = 1

    # ------------------------------------------------------------------ #
    # sampling (measured phase)
    # ------------------------------------------------------------------ #

    def advance(self, device: int, t: float) -> None:
        """Emit rows for every boundary ``<= t`` not yet sampled on
        ``device``.  Called by the serving loop at dispatch decisions
        and at drain end; idempotent and monotonic per device."""
        self._emit_until(device, t, inclusive=True)

    def mark_outage(self, device: int, t_down: float, t_up: float) -> None:
        """Record a power-cycle: boundaries inside ``[t_down, t_up)``
        sample with ``up = 0`` (gauges read post-recovery), and the
        window is echoed in the series header."""
        self._up[device] = 0
        self._emit_until(device, t_up, inclusive=False)
        self._up[device] = 1
        self._outages.append(
            {"device": device, "t_down_ns": t_down, "t_up_ns": t_up}
        )

    def _emit_until(self, device: int, t: float, inclusive: bool) -> None:
        probe = self._probes[device]
        k = self._next_k[device]
        interval = self.sample_every_ns
        while True:
            tk = self.t0 + k * interval
            if (tk > t) if inclusive else (tk >= t):
                break
            self._sample(probe, tk)
            k += 1
        self._next_k[device] = k

    def _sample(self, probe: _DeviceProbe, tk: float) -> None:
        device = probe.device
        stats = probe.stats
        metrics: Dict[str, float] = {
            "up": self._up[device],
            "queue_backlog": sum(len(tn.queue) for tn in probe.tenants),
            "inflight": sum(
                1 for s in probe.queue.slots if s.busy_until > tk
            ),
            "host_write_bytes": stats.host_ssd_bytes(
                direction=Direction.WRITE
            ),
            "host_read_bytes": stats.host_ssd_bytes(
                direction=Direction.READ
            ),
            "flash_write_bytes": stats.flash_bytes(
                direction=Direction.WRITE
            ),
            "flash_read_bytes": stats.flash_bytes(direction=Direction.READ),
            "app_write_bytes": stats.app.get(Direction.WRITE, 0),
            "app_read_bytes": stats.app.get(Direction.READ, 0),
        }
        app_w = metrics["app_write_bytes"]
        if app_w:
            metrics["write_amplification"] = (
                metrics["host_write_bytes"] / app_w
            )
        gauges = probe.gauges()
        for name in sorted(gauges):
            metrics[name] = gauges[name]
        self.rows.append({
            "t_ns": tk,
            "scope": "device",
            "device": device,
            "metrics": metrics,
        })
        for tn in probe.tenants:
            self.rows.append({
                "t_ns": tk,
                "scope": "tenant",
                "device": device,
                "tenant": tn.spec.name,
                "metrics": self._tenant_metrics(probe, tn, tk),
            })

    @staticmethod
    def _tenant_metrics(probe: _DeviceProbe, tn, tk: float) -> Dict:
        metrics = {
            "queue_depth": len(tn.queue),
            "inflight": 1 if probe.time_of(tn.tid) > tk else 0,
            "submitted": tn.submitted(),
            "served": tn.served,
            "rejected": tn.rejected,
            "dropped": tn.dropped,
            "lost_to_crash": tn.lost_to_crash,
            "slo_violations": tn.slo_violations,
        }
        summary = tn.latency.summary(_ALL_OPS)
        if summary["count"]:
            metrics["latency_p50_ns"] = summary["p50"]
            metrics["latency_p95_ns"] = summary["p95"]
            metrics["latency_p99_ns"] = summary["p99"]
        return metrics

    # ------------------------------------------------------------------ #
    # finalization
    # ------------------------------------------------------------------ #

    def finalize(self, t_end: float, metrics_registry=None) -> None:
        """Close the series at ``t_end``.

        When the run carried a tracer, its
        :class:`~repro.trace.metrics.MetricsRegistry` is bridged into
        per-layer latency rows: the ``span.<layer>.<op>`` histograms of
        each layer are merged (deterministically, in sorted name order)
        and emitted as one cumulative end-of-run quantile row per layer.
        """
        self._t_end = t_end
        if metrics_registry is None:
            return
        # Local import keeps repro.telemetry importable without a tracer.
        from repro.trace.metrics import LogHistogram

        merged: Dict[str, LogHistogram] = {}
        for name in metrics_registry.histogram_names("span."):
            parts = name.split(".")
            if len(parts) < 3:
                continue
            layer = parts[1]
            h = merged.get(layer)
            if h is None:
                h = merged[layer] = LogHistogram()
            h.merge(metrics_registry.get(name))
        for layer in sorted(merged):
            h = merged[layer]
            if not h.count:
                continue
            self.rows.append({
                "t_ns": t_end,
                "scope": "layer",
                "layer": layer,
                "metrics": {
                    "count": h.count,
                    "mean_ns": h.mean,
                    "latency_p50_ns": h.percentile(50),
                    "latency_p95_ns": h.percentile(95),
                    "latency_p99_ns": h.percentile(99),
                },
            })

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    @property
    def outages(self) -> List[Dict]:
        return list(self._outages)

    @property
    def t_end(self) -> Optional[float]:
        return self._t_end

    def sorted_rows(self) -> List[Dict]:
        """Rows in deterministic (time, scope, device, tenant, layer)
        order — devices drain sequentially, so append order interleaves
        shard timelines; the sort restores one global timeline."""
        return sorted(self.rows, key=_row_key)

    def latest(self) -> List[Dict]:
        """The newest row per (scope, device, tenant, layer) entity —
        the snapshot the Prometheus exposition renders."""
        newest: Dict[tuple, Dict] = {}
        for row in self.sorted_rows():
            newest[_entity_key(row)] = row
        return [newest[k] for k in sorted(newest)]


def _row_key(row: Dict) -> tuple:
    return (
        row["t_ns"],
        _SCOPE_RANK.get(row["scope"], len(SCOPES)),
        row.get("device") if row.get("device") is not None else -1,
        row.get("tenant") or "",
        row.get("layer") or "",
    )


def _entity_key(row: Dict) -> tuple:
    return (
        _SCOPE_RANK.get(row["scope"], len(SCOPES)),
        row.get("device") if row.get("device") is not None else -1,
        row.get("tenant") or "",
        row.get("layer") or "",
    )
