"""Tiered device-DRAM page-frame cache on the CXL.mem path (ROADMAP
item 2; SNIPPETS Snippet 1's ``CxlSSD`` valid/dirty frames, Snippet 3's
three-tier hierarchy with prefetch-on-predicted-access).

:class:`DeviceCache` interposes between the firmware and the FTL: it
exposes the exact FTL surface the firmware variants consume
(``geometry``/``channels``/``read_page``/``read_pages``/``write_page``/
``trim``/``trim_many``/``drain_write_buffer``), so
:class:`~repro.ssd.device.MSSD` can slide it under either firmware
without the firmware knowing.  Reads hit device DRAM when the frame is
resident (one ``dram_access_ns`` instead of a flash read); writes are
absorbed as dirty frames and reach NAND only on eviction, watermark
write-back, or a drain barrier — repeated writes to the same page cost
one flash program instead of many (the write-amplification win the
bench cases measure).

Durability model: like the firmware write log and the FTL write buffer,
the cache lives in the SSD's battery-backed DRAM — frames survive
``power_fail()`` (the paper's §2.1 power-loss protection).  Dirty frames
therefore never lose acked data; the crash sites on eviction and
write-back (``devcache.evict`` / ``devcache.writeback`` /
``devcache.flush``) let the fault sweeps cut power *around* the NAND
programs and prove recovery is idempotent.

Determinism: no RNG, no wall clock; every dict iterates in insertion
order; eviction/prefetch decisions are pure functions of the op stream.
A run with the cache enabled is byte-identical across repeats and
worker counts, and with the cache disabled (``MSSDConfig.devcache is
None``) this module is never constructed, keeping golden fixtures
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.faults.injector import NULL_INJECTOR
from repro.ftl.ftl import FTL
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.stats.traffic import StructKind, TrafficStats

from repro.devcache.policy import EvictionPolicy, make_policy
from repro.devcache.prefetch import StridePrefetcher

_OTHER = StructKind.OTHER

#: Valid/dirty bitmap granularity: one bit per 64 B cacheline, matching
#: the byte-interface transfer unit (Snippet 1 tracks the same pair of
#: flags per frame).
LINE_BYTES = 64


@dataclass(frozen=True)
class DevCacheConfig:
    """Device-DRAM cache tunables (CLI: ``--devcache/--evict/--prefetch``).

    Frozen and picklable: the config crosses the process boundary inside
    :class:`~repro.cluster.worker.ShardTask` for ``repro serve
    --workers N``.
    """

    cache_bytes: int = 1 << 20
    policy: str = "lru"
    prefetch: bool = False
    prefetch_degree: int = 2
    prefetch_min_confidence: int = 2
    prefetch_streams: int = 8
    prefetch_stream_shift: int = 8
    #: write-back starts above ``high`` dirty fraction, stops at ``low``
    dirty_high_watermark: float = 0.75
    dirty_low_watermark: float = 0.50
    #: hotcold policy: hot-queue share of frames / promotion reuse distance
    hot_fraction: float = 0.5
    hot_distance: int = 16


class _Frame:
    """One resident page frame with per-cacheline valid/dirty bitmaps."""

    __slots__ = ("data", "valid", "dirty", "prefetched")

    def __init__(
        self, data: bytes, valid: int, dirty: int, prefetched: bool
    ) -> None:
        self.data = bytearray(data)
        self.valid = valid
        self.dirty = dirty
        self.prefetched = prefetched


class DeviceCache:
    """Write-back page-frame cache wrapping the FTL read/write surface."""

    def __init__(
        self,
        ftl: FTL,
        config: DevCacheConfig,
        timing: TimingModel,
        clock: VirtualClock,
        stats: TrafficStats,
    ) -> None:
        self.ftl = ftl
        self.config = config
        self.timing = timing
        self.clock = clock
        self.stats = stats
        # Firmware-visible FTL surface (pass-through attributes).
        self.geometry = ftl.geometry
        self.channels = ftl.channels
        self.page_size = ftl.geometry.page_size
        self.capacity_frames = max(1, config.cache_bytes // self.page_size)
        self._lines_per_page = max(1, self.page_size // LINE_BYTES)
        self._full_mask = (1 << self._lines_per_page) - 1
        self._frames: Dict[int, _Frame] = {}
        self._dirty: Dict[int, None] = {}  # insertion-ordered dirty LPAs
        self._policy: EvictionPolicy = make_policy(
            config.policy,
            self.capacity_frames,
            config.hot_fraction,
            config.hot_distance,
        )
        self._prefetcher: Optional[StridePrefetcher] = (
            StridePrefetcher(
                degree=config.prefetch_degree,
                min_confidence=config.prefetch_min_confidence,
                max_streams=config.prefetch_streams,
                stream_shift=config.prefetch_stream_shift,
            )
            if config.prefetch
            else None
        )
        self._high_frames = config.dirty_high_watermark * self.capacity_frames
        self._low_frames = config.dirty_low_watermark * self.capacity_frames
        # Crash-site hooks; MSSD overwrites this with its own injector.
        self.faults = NULL_INJECTOR
        self.hits = 0
        self.misses = 0
        self.evictions_clean = 0
        self.evictions_dirty = 0
        self.writebacks = 0
        self.flushes = 0
        self.prefetch_issued = 0
        self.prefetch_hits = 0
        self.prefetch_wasted = 0

    # ------------------------------------------------------------------ #
    # small helpers
    # ------------------------------------------------------------------ #

    def _dram(self, n_accesses: int) -> None:
        """Charge the foreground for ``n_accesses`` device-DRAM hits."""
        self.clock.advance_to(
            self.clock.now + n_accesses * self.timing.dram_access_ns
        )

    def _hit(self, lpa: int, frame: _Frame) -> None:
        self.hits += 1
        if frame.prefetched:
            frame.prefetched = False
            self.prefetch_hits += 1
        self._policy.touch(lpa)

    def _install(
        self, lpa: int, data: bytes, dirty: bool, prefetched: bool
    ) -> None:
        self._evict_if_needed()
        self._frames[lpa] = _Frame(
            data,
            self._full_mask,
            self._full_mask if dirty else 0,
            prefetched,
        )
        self._policy.admit(lpa)
        if dirty:
            self._dirty[lpa] = None

    def _evict_if_needed(self) -> None:
        while len(self._frames) >= self.capacity_frames:
            self._evict_one()

    def _evict_one(self) -> None:
        lpa = self._policy.victim()
        frame = self._frames.pop(lpa)
        if frame.prefetched:
            self.prefetch_wasted += 1
        if frame.dirty:
            del self._dirty[lpa]
            self.faults.point("devcache.evict")
            self.evictions_dirty += 1
            # Evictions are one-page-at-a-time by design (like the
            # baseline firmware's page cache).
            self.ftl.write_page(  # repro: allow[PERF001]
                lpa, bytes(frame.data), _OTHER, background=True)
        else:
            self.evictions_clean += 1

    def _writeback_if_needed(self) -> None:
        """Clean dirty frames (oldest-dirtied first) past the watermark."""
        if len(self._dirty) <= self._high_frames:
            return
        while len(self._dirty) > self._low_frames:
            lpa = next(iter(self._dirty))
            frame = self._frames[lpa]
            self.faults.point("devcache.writeback")
            self.writebacks += 1
            self.ftl.write_page(  # repro: allow[PERF001]
                lpa, bytes(frame.data), _OTHER, background=True)
            frame.dirty = 0
            del self._dirty[lpa]

    def _maybe_prefetch(self, lpa: int, kind: StructKind) -> None:
        prefetcher = self._prefetcher
        if prefetcher is None:
            return
        predicted = prefetcher.observe(lpa)
        if not predicted:
            return
        wanted = [
            p
            for p in predicted
            if p >= 0 and p not in self._frames and self.ftl.is_mapped(p)
        ]
        if not wanted:
            return
        # Non-blocking: the flash reads occupy channels (later demand
        # reads queue behind them — mispredictions have a real cost) but
        # the demand op does not wait for them.
        datas = self.ftl.read_pages(wanted, kind, background=True)
        self.prefetch_issued += len(wanted)
        for p, data in zip(wanted, datas):
            self._install(p, data, dirty=False, prefetched=True)

    # ------------------------------------------------------------------ #
    # the FTL surface the firmware consumes
    # ------------------------------------------------------------------ #

    def read_page(
        self,
        lpa: int,
        kind: StructKind = _OTHER,
        background: bool = False,
    ) -> bytes:
        frame = self._frames.get(lpa)
        if frame is not None:
            self._hit(lpa, frame)
            if not background:
                self._dram(1)
            data = bytes(frame.data)
        else:
            self.misses += 1
            data = self.ftl.read_page(lpa, kind, background)
            self._install(lpa, data, dirty=False, prefetched=False)
        self._maybe_prefetch(lpa, kind)
        return data

    def read_pages(
        self,
        lpas: List[int],
        kind: StructKind = _OTHER,
        background: bool = False,
    ) -> List[bytes]:
        out: List[Optional[bytes]] = [None] * len(lpas)
        miss_at: List[int] = []
        miss_lpas: List[int] = []
        n_hits = 0
        for i, lpa in enumerate(lpas):
            frame = self._frames.get(lpa)
            if frame is not None:
                self._hit(lpa, frame)
                out[i] = bytes(frame.data)
                n_hits += 1
            else:
                self.misses += 1
                miss_at.append(i)
                miss_lpas.append(lpa)
        if miss_lpas:
            # Misses keep the FTL's channel striping; the caller waits
            # only for the slowest flash read, and the DRAM hits pipeline
            # behind it for free.
            datas = self.ftl.read_pages(miss_lpas, kind, background)
            for i, lpa, data in zip(miss_at, miss_lpas, datas):
                out[i] = data
                self._install(lpa, data, dirty=False, prefetched=False)
        elif n_hits and not background:
            self._dram(1)
        for lpa in lpas:
            self._maybe_prefetch(lpa, kind)
        return out  # type: ignore[return-value]

    def write_page(
        self,
        lpa: int,
        data: bytes,
        kind: StructKind = _OTHER,
        background: bool = True,
    ) -> None:
        frame = self._frames.get(lpa)
        if frame is not None:
            self._hit(lpa, frame)
            frame.data[:] = data
            if not frame.dirty:
                self._dirty[lpa] = None
            frame.valid = self._full_mask
            frame.dirty = self._full_mask
        else:
            self.misses += 1
            self._install(lpa, data, dirty=True, prefetched=False)
        if not background:
            self._dram(1)
        self._writeback_if_needed()

    def trim(self, lpa: int) -> None:
        self._discard(lpa)
        self.ftl.trim(lpa)

    def trim_many(self, lpa: int, n_pages: int) -> None:
        for p in range(lpa, lpa + n_pages):
            self._discard(p)
        self.ftl.trim_many(lpa, n_pages)

    def _discard(self, lpa: int) -> None:
        """Drop a frame without write-back (the page was trimmed dead)."""
        frame = self._frames.pop(lpa, None)
        if frame is None:
            return
        self._policy.forget(lpa)
        if frame.prefetched:
            self.prefetch_wasted += 1
        if frame.dirty:
            del self._dirty[lpa]

    def drain_write_buffer(self) -> None:
        """Barrier: flush every dirty frame, then drain the FTL buffer.

        Both firmwares call this from ``force_clean`` (unmount/sync) and
        ``recover`` — after it returns, NAND holds every acked byte.  A
        crash mid-flush leaves already-programmed pages both on flash and
        dirty-in-DRAM; re-flushing them on recovery is idempotent.
        """
        while self._dirty:
            lpa = next(iter(self._dirty))
            frame = self._frames[lpa]
            self.faults.point("devcache.flush")
            self.flushes += 1
            self.ftl.write_page(  # repro: allow[PERF001]
                lpa, bytes(frame.data), _OTHER, background=True)
            frame.dirty = 0
            del self._dirty[lpa]
        self.ftl.drain_write_buffer()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def gauges(self) -> Dict[str, float]:
        """Telemetry gauges merged into :meth:`MSSD.gauges` when the
        cache is enabled (so ``repro.telemetry.series/v1`` and the
        Prometheus exposition pick them up with no extra wiring)."""
        return {
            "devcache_frames": len(self._frames),
            "devcache_dirty_frames": len(self._dirty),
            "devcache_hits": self.hits,
            "devcache_misses": self.misses,
            "devcache_evictions_clean": self.evictions_clean,
            "devcache_evictions_dirty": self.evictions_dirty,
            "devcache_writebacks": self.writebacks,
            "devcache_flushes": self.flushes,
            "devcache_prefetch_issued": self.prefetch_issued,
            "devcache_prefetch_hits": self.prefetch_hits,
            "devcache_prefetch_wasted": self.prefetch_wasted,
        }

    def hit_rate(self) -> float:
        """Demand hit fraction (reads + writes); 0.0 before any access."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def check_invariants(self) -> None:
        """Structural invariants (exercised by tests and FSSan-style
        debugging): dirty ⊆ valid per frame, the dirty set matches the
        frames' dirty masks, and the policy tracks exactly the resident
        set."""
        for lpa, frame in self._frames.items():
            if frame.dirty & ~frame.valid:
                raise AssertionError(f"frame {lpa}: dirty lines not valid")
            if bool(frame.dirty) != (lpa in self._dirty):
                raise AssertionError(f"frame {lpa}: dirty-set mismatch")
        if len(self._policy) != len(self._frames):
            raise AssertionError("policy tracks a different resident set")
