"""The crash-consistency sweep driver.

A sweep has two phases:

1. **Enumerate** — run the workload once with the injector in counting
   mode and record every crash site reached (index, label, payload size,
   atomicity granule).
2. **Replay** — for each selected site, rebuild the stack from scratch,
   re-run the same workload with a :class:`FaultPlan` armed, catch the
   injected :class:`CrashPoint`, run the crash protocol
   (``device.power_fail()`` / ``fs.crash()`` / ``fs.remount()``), and
   check the recovered file system against the :class:`OracleFS`.

Everything is deterministic (virtual clock, :func:`repro.sim.rng`), so
the same seed reaches the same sites with the same numbering on every
run — a failing crash point is reproduced with just
``(fs_name, seed, site, torn)``; see ``repro crashsweep --site``.

The injector stays *off* while the stack is built (mkfs is not part of
the crash surface), and is armed only for the workload proper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.faults.injector import (
    CrashPoint,
    FaultInjector,
    FaultPlan,
    FiredCrash,
    SiteRecord,
)
from repro.faults.oracle import OracleFS
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.nand.geometry import FlashGeometry
from repro.sim.rng import make_rng

#: 32 MB device — identical to the unit-test geometry, instant to build.
SWEEP_GEOMETRY = FlashGeometry(
    n_channels=4,
    ways_per_channel=1,
    blocks_per_way=32,
    pages_per_block=64,
    page_size=4096,
)


@dataclass
class SweepConfig:
    fs_name: str = "bytefs"
    seed: int = 0
    #: cap on *sites replayed* (evenly spaced over the trace); None = all
    max_sites: Optional[int] = None
    #: additionally replay a torn-write variant at tearable sites
    torn: bool = True
    #: override the op list (default: :func:`standard_workload`)
    workload: Optional[List[Tuple]] = None


@dataclass
class CrashResult:
    """Outcome of one crash replay."""

    fs_name: str
    site: int
    torn: bool
    fired: Optional[FiredCrash]
    n_ops_completed: int
    errors: List[str]

    @property
    def ok(self) -> bool:
        return not self.errors

    def describe(self) -> str:
        where = (
            f"site {self.site} ({self.fired.label}"
            + (f", torn after {self.fired.torn_bytes} B)" if self.torn else ")")
            if self.fired
            else f"site {self.site} (never reached)"
        )
        status = "ok" if self.ok else "; ".join(self.errors)
        return f"[{self.fs_name}] {where}: {status}"


@dataclass
class SweepReport:
    fs_name: str
    seed: int
    #: total sites the workload reached during enumeration
    n_sites: int
    #: site indices actually replayed
    sites_tested: List[int] = field(default_factory=list)
    results: List[CrashResult] = field(default_factory=list)
    label_histogram: dict = field(default_factory=dict)

    @property
    def failures(self) -> List[CrashResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            f"{self.fs_name}: {self.n_sites} sites enumerated, "
            f"{len(self.sites_tested)} replayed "
            f"({len(self.results)} runs incl. torn), "
            f"{len(self.failures)} failures"
        )


# ---------------------------------------------------------------------- #
# workload
# ---------------------------------------------------------------------- #


def standard_workload(seed: int = 0) -> List[Tuple]:
    """The standard mixed workload for crash sweeps.

    Op tuples: ``("mkdir", p)``, ``("create", p)``,
    ``("write", p, off, data)``, ``("trunc", p, size)``,
    ``("fsync"|"fdatasync", p)``, ``("sync",)``, ``("unlink", p)``,
    ``("rename", src, dst)``.

    Deliberate shape:

    * ``synced`` files take large writes and truncates, each immediately
      followed by a barrier — their content is durable everywhere except
      the one in-flight op;
    * ``unsynced`` files take 64 B-aligned single-cacheline writes with
      no barrier — the oracle's fragment rule makes those all-or-nothing
      (absent or fully present, never torn);
    * namespace churn (rename, unlink) only touches fully-synced files;
    * a trailing ``sync`` plus two more unsynced writes exercises crash
      sites in the quiesced state.
    """
    rng = make_rng(seed, "faults:standard-workload")
    ops: List[Tuple] = [("mkdir", "/d0"), ("mkdir", "/d1")]
    files = [f"/d{i % 2}/f{i}" for i in range(6)]
    for path in files:
        ops.append(("create", path))
    for i, path in enumerate(files):
        ops.append(("write", path, 0, bytes([0x41 + i]) * (512 + 256 * i)))
        ops.append(("fsync", path))
    synced, unsynced = files[:4], files[4:]
    for step in range(20):
        r = step % 4
        if r == 0:
            path = unsynced[(step // 4) % 2]
            off = 64 * rng.randrange(0, 8)
            ops.append(("write", path, off, bytes([0x61 + step]) * 64))
        elif r == 1:
            path = synced[rng.randrange(0, len(synced))]
            off = 128 * rng.randrange(0, 16)
            data = bytes([0x30 + step % 10]) * (256 * (1 + step % 4))
            ops.append(("write", path, off, data))
            ops.append(("fsync", path))
        elif r == 2:
            path = synced[rng.randrange(0, len(synced))]
            ops.append(("trunc", path, 256 + 64 * step))
            ops.append(("fsync", path))
        else:
            path = synced[rng.randrange(0, len(synced))]
            ops.append(("write", path, 0, bytes([0x70 + step]) * 256))
            ops.append(("fdatasync", path))
    ops.append(("rename", synced[0], "/d1/renamed"))
    ops.append(("unlink", synced[1]))
    ops.append(("create", "/d0/late"))
    ops.append(("write", "/d0/late", 0, b"L" * 64))
    ops.append(("sync",))
    ops.append(("write", "/d0/late", 64, b"T" * 64))
    ops.append(("write", unsynced[0], 0, b"U" * 64))
    return ops


def apply_op(fs, op: Tuple) -> None:
    """Execute one workload op through the POSIX-like FS API."""
    kind = op[0]
    if kind == "mkdir":
        fs.mkdir(op[1])
    elif kind == "create":
        fs.close(fs.open(op[1], O_CREAT | O_RDWR))
    elif kind == "write":
        fd = fs.open(op[1], O_RDWR)
        try:
            fs.pwrite(fd, op[2], op[3])
        finally:
            fs.close(fd)
    elif kind == "trunc":
        fd = fs.open(op[1], O_RDWR)
        try:
            fs.ftruncate(fd, op[2])
        finally:
            fs.close(fd)
    elif kind in ("fsync", "fdatasync"):
        fd = fs.open(op[1], O_RDWR)
        try:
            getattr(fs, kind)(fd)
        finally:
            fs.close(fd)
    elif kind == "unlink":
        fs.unlink(op[1])
    elif kind == "rename":
        fs.rename(op[1], op[2])
    elif kind == "sync":
        fs.sync()
    else:
        raise ValueError(f"unknown workload op {kind!r}")


def replay_workload(fs, ops: Sequence[Tuple]) -> OracleFS:
    """Run a workload against ``fs`` while mirroring it into an oracle.

    Returns the oracle; on an injected :class:`CrashPoint` the in-flight
    op is recorded as incomplete and the exception re-raised with the
    oracle attached (``exc.oracle``, ``exc.n_ops_completed``).  Any
    other exception is re-raised with ``exc.n_ops_completed`` only.
    """
    oracle = OracleFS()
    for i, op in enumerate(ops):
        try:
            apply_op(fs, op)
        except CrashPoint as exc:
            oracle.observe(op, completed=False)
            exc.oracle = oracle
            exc.n_ops_completed = i
            raise
        except Exception as exc:
            exc.n_ops_completed = i
            raise
        oracle.observe(op, completed=True)
    return oracle


# ---------------------------------------------------------------------- #
# drivers
# ---------------------------------------------------------------------- #


def _build(fs_name: str, faults: FaultInjector):
    # Imported lazily: repro.core.bytefs pulls in repro.ssd.device, which
    # itself imports repro.faults — a module-level import would cycle.
    from repro.core.bytefs import build_stack

    return build_stack(fs_name, geometry=SWEEP_GEOMETRY, faults=faults)


def enumerate_sites(config: SweepConfig) -> List[SiteRecord]:
    """Phase 1: count every crash site the workload reaches."""
    ops = config.workload or standard_workload(config.seed)
    injector = FaultInjector()
    _clock, _stats, _device, fs = _build(config.fs_name, injector)
    injector.start_count()
    for op in ops:
        apply_op(fs, op)
    injector.disarm()
    return injector.trace


def run_crash(
    config: SweepConfig, crash_site: int, torn: bool = False
) -> CrashResult:
    """Phase 2 body: replay the workload crashing at ``crash_site``.

    An exception other than the injected crash, raised by the workload
    or by the crash protocol, is reported as this site's error (so a
    sweep goes on to the next site) instead of propagating.
    """
    ops = config.workload or standard_workload(config.seed)
    injector = FaultInjector()
    _clock, _stats, device, fs = _build(config.fs_name, injector)
    injector.arm(FaultPlan(crash_site, torn=torn, seed=config.seed))
    n_done = len(ops)
    stage = "replay"
    try:
        try:
            oracle = replay_workload(fs, ops)
        except CrashPoint as exc:
            oracle = exc.oracle
            n_done = exc.n_ops_completed
        stage = "recovery"
        injector.disarm()  # recovery-time device writes must apply
        device.power_fail()
        fs.crash()
        fs.remount()
    except Exception as exc:
        n_done = getattr(exc, "n_ops_completed", n_done)
        errors = [f"{stage} raised {exc!r}"]
    else:
        errors = oracle.check(fs)
    return CrashResult(
        fs_name=config.fs_name,
        site=crash_site,
        torn=torn,
        fired=injector.fired,
        n_ops_completed=n_done,
        errors=errors,
    )


def select_sites(
    trace: Sequence[SiteRecord], max_sites: Optional[int]
) -> List[SiteRecord]:
    """Evenly-spaced subset of the trace, honouring ``max_sites``."""
    n = len(trace)
    if max_sites is None or max_sites >= n:
        return list(trace)
    if max_sites <= 0:
        return []
    if max_sites == 1:
        return [trace[0]]
    picked = sorted(
        {round(i * (n - 1) / (max_sites - 1)) for i in range(max_sites)}
    )
    return [trace[i] for i in picked]


def run_sweep(config: SweepConfig) -> SweepReport:
    """Enumerate, then replay every selected site (plus torn variants)."""
    trace = enumerate_sites(config)
    hist: dict = {}
    for rec in trace:
        hist[rec.label] = hist.get(rec.label, 0) + 1
    report = SweepReport(
        fs_name=config.fs_name,
        seed=config.seed,
        n_sites=len(trace),
        label_histogram=hist,
    )
    for rec in select_sites(trace, config.max_sites):
        report.sites_tested.append(rec.index)
        report.results.append(run_crash(config, rec.index, torn=False))
        if config.torn and rec.tearable:
            report.results.append(run_crash(config, rec.index, torn=True))
    return report
