"""The four benchmark workloads, each driving the public library API.

Every workload function takes the seed and returns a :class:`Outcome`:
the simulated result document (whose digest must repeat exactly), the
host-time stamps of its measurement epoch and measured region, the
simulated end-to-end figures, and a ``check`` callable that verifies
the program's outputs after the timed region.

Sizes are fixed here, not derived from the run length, so a run of any
length measures the same work per fresh interpreter.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

from repro.bench.harness import run_workload
from repro.cluster.result import ALL_OPS, validate_cluster_run
from repro.cluster.serve import serve_cluster
from repro.cluster.tenant import PROFILES, default_tenants
from repro.core import build_stack
from repro.devcache import DevCacheConfig
from repro.faults.injector import CrashPoint
from repro.faults.sweep import (
    SWEEP_GEOMETRY,
    SweepConfig,
    apply_op,
    enumerate_sites,
    run_crash,
    select_sites,
    standard_workload,
)
from repro.fs.vfs import O_APPEND, O_CREAT, O_RDONLY, O_RDWR
from repro.stats.traffic import Direction, LatencyRecorder
from repro.workloads import MmapStress, Varmail
from repro.workloads.filebench import _whole_read

#: Varmail cycles per simulated thread (12 threads; about 14.6k ops).
VARMAIL_OPS_PER_THREAD = 300
#: requests per tenant in ``serve`` (32 tenants, so 14.4k requests)
SERVE_OPS_PER_TENANT = 450
SERVE_TENANTS = 32
SERVE_DEVICES = 4
#: mmap ops over 4 threads; 512 pages per thread is an 8 MB working set
MMAP_OPS = 150_000
MMAP_FILE_PAGES = 512
MMAP_PAGE_CACHE_PAGES = 512
MMAP_DEVCACHE = DevCacheConfig(cache_bytes=4 << 20, policy="lru",
                               prefetch=True)
#: what one ``MmapStress`` store writes, and where in its page
_MMAP_STORE_BYTES = 1024
_MMAP_STORE_OFFSET = 512
CRASH_FILE_SYSTEMS = ("ext4", "bytefs")


@dataclasses.dataclass
class Outcome:
    #: deterministic simulated result document (digested by the caller)
    doc: object
    #: operations completed in the measured region
    ops: int
    attempted: int
    failed: int
    #: perf_counter stamps: measurement epoch, and the library call(s)
    t_epoch: float
    measured_s: float
    region_s: float
    #: simulated end-to-end figures plus their sample counts
    sim: Dict[str, float]
    #: workload-specific figures that are not gated metrics
    extra: Dict[str, object]
    #: verifies the program's outputs; returns a list of problems
    check: Callable[[], List[str]]
    #: completes ``doc`` and ``sim`` after the traced region, if needed
    post: Optional[Callable[["Outcome"], None]] = None


class _Probe:
    """``run_workload`` stack probe: epoch stamps and the built stack."""

    def __init__(self) -> None:
        self.t_start = self.t_end = 0.0
        self.fs = None

    def __call__(self, phase, clock, stats, device, fs) -> None:
        if phase == "measure-start":
            self.t_start = time.perf_counter()
        else:
            self.t_end = time.perf_counter()
            self.fs = fs


def _samples(latency: LatencyRecorder,
             ops: Optional[List[str]] = None) -> List[float]:
    # LatencyRecorder reports percentiles per op only; the benchmark
    # wants them over every op of the run.
    return sorted(
        x for op in (ops or latency.ops()) for x in latency._samples[op]
    )


def _pct(ordered: List[float], pct: float) -> float:
    return LatencyRecorder._percentile_of(ordered, pct)


def _sim_figures(samples_ns: List[float], ops: int, elapsed_s: float,
                 flash_bytes: int, user_bytes: int) -> Dict[str, float]:
    return {
        "sim_kops_per_s": ops / elapsed_s / 1e3,
        "sim_mean_us": sum(samples_ns) / len(samples_ns) / 1e3,
        "sim_p50_us": _pct(samples_ns, 50) / 1e3,
        "sim_p99_us": _pct(samples_ns, 99) / 1e3,
        "flash_wa": flash_bytes / user_bytes,
        "sim_ops": ops,
        "latency_samples": len(samples_ns),
        "flash_bytes": flash_bytes,
        "user_bytes": user_bytes,
    }


def _read_all(fs, path: str) -> bytes:
    fd = fs.open(path, O_RDONLY)
    try:
        return fs.pread(fd, 0, fs.stat(path).size)
    finally:
        fs.close(fd)


# ---------------------------------------------------------------------- #
# varmail: closed loop, bytefs fsync path
# ---------------------------------------------------------------------- #

class FilesetVarmail(Varmail):
    """Varmail whose delete flowlet skips files another thread is using.

    The library's ``Varmail`` draws a victim from every file number
    issued so far, including the file another thread has just created
    and is about to read back; when the draw lands on it, that thread's
    next ``open`` raises ``FileNotFound`` and the whole run aborts
    (seed 11 at 300 cycles per thread).  Filebench never deletes a file
    a flowlet holds, so this variant keeps each thread's current file in
    a busy set and passes over busy victims.  The random stream, the op
    sequence and every other step are the library's.
    """

    def setup(self, fs) -> None:
        super().setup(fs)
        self.busy = set()

    def thread_ops(self, fs, tid: int):
        rng = self.rng(f"t{tid}")
        next_new = self.n_files // 2 + tid * 10_000
        payload = b"M" * (self.file_size // 2)
        busy = self.busy
        for _ in range(self.ops_per_thread):
            victim = rng.randrange(max(1, next_new))
            if victim not in busy and fs.exists(f"/mail/msg{victim}"):
                fs.unlink(f"/mail/msg{victim}")
                yield "delete"
            busy.add(next_new)
            target = f"/mail/msg{next_new}"
            fd = fs.open(target, O_CREAT | O_RDWR)
            fs.write(fd, payload)
            fs.fsync(fd)
            fs.close(fd)
            yield "create+fsync"
            _whole_read(fs, target)
            yield "read"
            fd = fs.open(target, O_RDWR | O_APPEND)
            fs.write(fd, payload)
            fs.fsync(fd)
            fs.close(fd)
            yield "append+fsync"
            _whole_read(fs, target)
            yield "read"
            busy.discard(next_new)
            next_new += 1


def varmail(seed: int) -> Outcome:
    wl = FilesetVarmail(ops_per_thread=VARMAIL_OPS_PER_THREAD, seed=seed)
    probe = _Probe()
    t0 = time.perf_counter()
    result = run_workload("bytefs", wl, stack_probe=probe)
    region_s = time.perf_counter() - t0
    cycles = wl.n_threads * wl.ops_per_thread
    # each cycle writes half a file, then appends the other half
    user_bytes = cycles * wl.file_size
    return Outcome(
        doc=result.to_json(),
        ops=result.ops,
        attempted=result.ops,
        failed=0,
        t_epoch=probe.t_start,
        measured_s=probe.t_end - probe.t_start,
        region_s=region_s,
        sim=_sim_figures(_samples(result.latency), result.ops,
                         result.elapsed_s, result.flash_write, user_bytes),
        extra={},
        check=lambda: _check_varmail(wl, probe.fs, result),
    )


def _check_varmail(wl: Varmail, fs, result) -> List[str]:
    """Surviving mail files are exactly what the generated inputs leave.

    Victims are drawn from per-thread streams, so the set of files that
    may have been deleted is known; whether a victim existed when drawn
    depends on thread interleaving, so the count of deletions comes from
    the run and must account for every missing file.
    """
    first_new = wl.n_files // 2
    created, victims = set(), set()
    for tid in range(wl.n_threads):
        rng = wl.rng(f"t{tid}")
        next_new = first_new + tid * 10_000
        for _ in range(wl.ops_per_thread):
            victims.add(rng.randrange(max(1, next_new)))
            created.add(next_new)
            next_new += 1
    universe = set(range(first_new)) | created
    survivors = {int(name[len("msg"):]) for name in fs.listdir("/mail")}
    problems = []
    if not survivors <= universe:
        extra = sorted(survivors - universe)[:5]
        problems.append(f"unexpected files: {extra}")
    lost = (universe - victims) - survivors
    if lost:
        problems.append(f"never-deleted files missing: {sorted(lost)[:5]}")
    deletes = result.latency.count("delete")
    if len(survivors) != len(universe) - deletes:
        problems.append(
            f"{len(survivors)} files survive, expected "
            f"{len(universe)} - {deletes} deletions"
        )
    for idx in sorted(survivors):
        want = (b"m" if idx < first_new else b"M") * wl.file_size
        if _read_all(fs, f"/mail/msg{idx}") != want:
            problems.append(f"/mail/msg{idx} content differs")
            break
    return problems


# ---------------------------------------------------------------------- #
# serve: open loop, multi-tenant DRR over 4 devices
# ---------------------------------------------------------------------- #

def serve(seed: int) -> Outcome:
    # Tenant i goes to device (i // 4) % 4, so every device serves the
    # full mixed/light/heavy rotation and DRR has to arbitrate.  The
    # queue bound equals the request count, so no request is refused.
    tenants = [
        dataclasses.replace(spec, device=(i // 4) % SERVE_DEVICES)
        for i, spec in enumerate(
            default_tenants(SERVE_TENANTS, n_ops=SERVE_OPS_PER_TENANT)
        )
    ]
    t0 = time.perf_counter()
    result = serve_cluster(
        tenants, fs_name="bytefs", n_devices=SERVE_DEVICES, sched="drr",
        seed=seed, max_queue=SERVE_OPS_PER_TENANT,
    )
    t1 = time.perf_counter()
    doc = result.to_json()
    submitted = sum(t.submitted for t in result.tenants)
    failed = sum(t.rejected + t.dropped + t.lost_to_crash
                 for t in result.tenants)
    user_bytes = sum(
        t.latency.count("write") * PROFILES[t.spec["workload"]]["op_bytes"]
        for t in result.tenants
    )
    flash_bytes = sum(d["flash_write"] for d in result.devices)
    misses = sum(t.slo_violations + t.rejected for t in result.tenants)
    return Outcome(
        doc=doc,
        ops=result.ops,
        attempted=submitted,
        failed=failed,
        # the drain (measured phase) ends just before serve_cluster returns
        t_epoch=t1 - result.wall_s,
        measured_s=result.wall_s,
        region_s=t1 - t0,
        sim=_sim_figures(_samples(result.latency, [ALL_OPS]), result.ops,
                         result.elapsed_s, flash_bytes, user_bytes),
        extra={"slo_miss_frac": misses / submitted},
        check=lambda: _check_serve(doc, result),
    )


def _check_serve(doc, result) -> List[str]:
    problems = list(validate_cluster_run(doc))
    for t in result.tenants:
        accounted = t.ops + t.rejected + t.dropped + t.lost_to_crash
        if t.submitted != accounted:
            problems.append(
                f"tenant {t.name}: submitted {t.submitted} != {accounted}"
            )
    return problems


# ---------------------------------------------------------------------- #
# mmap-devcache: closed loop through host.mmap onto the device cache
# ---------------------------------------------------------------------- #

def mmap_devcache(seed: int) -> Outcome:
    wl = MmapStress(n_ops=MMAP_OPS, n_threads=4,
                    file_pages=MMAP_FILE_PAGES, seed=seed)
    probe = _Probe()
    t0 = time.perf_counter()
    result = run_workload(
        "bytefs", wl, stack_probe=probe,
        page_cache_pages=MMAP_PAGE_CACHE_PAGES, devcache=MMAP_DEVCACHE,
    )
    region_s = time.perf_counter() - t0
    expected, n_stores = _mmap_expected(wl)
    # TrafficStats.app misses mapped stores; count them from the inputs
    user_bytes = n_stores * _MMAP_STORE_BYTES
    return Outcome(
        doc=result.to_json(),
        ops=result.ops,
        attempted=result.ops,
        failed=0,
        t_epoch=probe.t_start,
        measured_s=probe.t_end - probe.t_start,
        region_s=region_s,
        sim=_sim_figures(_samples(result.latency), result.ops,
                         result.elapsed_s, result.flash_write, user_bytes),
        extra={},
        check=lambda: _check_mmap(probe.fs, expected),
    )



def _mmap_expected(wl: MmapStress):
    """Each file's final bytes, replaying the per-thread store stream."""
    files: Dict[str, bytes] = {}
    n_stores = 0
    n = wl.n_ops // wl.n_threads
    for tid in range(wl.n_threads):
        data = bytearray(b"\x5a" * (wl.file_pages * wl.PAGE))
        rng = wl.rng(f"ops{tid}")
        for i in range(n):
            if (3 * i) // n < 2:
                continue  # the sequential and strided phases only read
            if rng.random() < 0.35:
                off = rng.randrange(wl.file_pages) * wl.PAGE
                off += _MMAP_STORE_OFFSET
                data[off:off + _MMAP_STORE_BYTES] = (
                    b"\xa5" * _MMAP_STORE_BYTES
                )
                n_stores += 1
            else:
                rng.randrange(wl.hot_pages)
        files[f"/mm/f{tid}"] = bytes(data)
    return files, n_stores


def _check_mmap(fs, expected: Dict[str, bytes]) -> List[str]:
    return [
        f"{path} content differs"
        for path, want in sorted(expected.items())
        if _read_all(fs, path) != want
    ]


# ---------------------------------------------------------------------- #
# crashsweep: every crash site of ext4 and bytefs, replayed one by one
# ---------------------------------------------------------------------- #

def crashsweep(seed: int,
               after_replay: Optional[Callable[[], None]] = None) -> Outcome:
    t0 = time.perf_counter()
    plan = []
    for fs_name in CRASH_FILE_SYSTEMS:
        cfg = SweepConfig(fs_name=fs_name, seed=seed)
        for rec in select_sites(enumerate_sites(cfg), None):
            plan.append((cfg, rec, False))
            if rec.tearable:
                plan.append((cfg, rec, True))
    t_epoch = time.perf_counter()
    replays = []
    failures = []
    for cfg, rec, torn in plan:
        where = {"fs": cfg.fs_name, "site": rec.index, "label": rec.label,
                 "torn": torn}
        try:
            res = run_crash(cfg, rec.index, torn=torn)
        except (Exception, CrashPoint) as exc:  # one bad replay must not
            res = None                          # abort the sweep
            errors = [f"replay raised {exc!r}"]
        else:
            errors = res.errors
        if after_replay is not None:
            after_replay()
        replays.append({
            **where,
            "fired": dataclasses.asdict(res.fired) if res and res.fired
            else None,
            "n_ops_completed": res.n_ops_completed if res else None,
            "errors": errors,
        })
        if errors:
            failures.append({**where, "errors": errors})
    t1 = time.perf_counter()

    def post(out: Outcome) -> None:
        out.sim = out.doc["sim"] = _crash_workload_figures(seed)

    return Outcome(
        doc={"replays": replays},
        ops=len(plan),
        attempted=len(plan),
        failed=len(failures),
        t_epoch=t_epoch,
        measured_s=t1 - t_epoch,
        region_s=t1 - t0,
        sim={},
        extra={"failures": failures[:10]},
        check=lambda: [],
        post=post,
    )


def _crash_workload_figures(seed: int) -> Dict[str, float]:
    """Simulated figures of the swept op list, replayed without a crash.

    ``run_crash`` keeps its stack to itself, so the simulated side of
    this workload is the crash workload itself on each file system.
    """
    samples: List[float] = []
    elapsed_ns = flash = user = 0
    ops = standard_workload(seed)
    for fs_name in CRASH_FILE_SYSTEMS:
        clock, stats, _device, fs = build_stack(fs_name,
                                                geometry=SWEEP_GEOMETRY)
        t0 = clock.sync_all()
        stats.reset()
        for op in ops:
            t = clock.now
            apply_op(fs, op)
            samples.append(clock.now - t)
            if op[0] == "write":
                user += len(op[3])
        elapsed_ns += clock.elapsed_ns - t0
        flash += stats.flash_bytes(direction=Direction.WRITE)
    return _sim_figures(sorted(samples), len(samples), elapsed_ns / 1e9,
                        flash, user)


WORKLOADS = {
    "varmail": varmail,
    "serve": serve,
    "mmap-devcache": mmap_devcache,
    "crashsweep": crashsweep,
}
