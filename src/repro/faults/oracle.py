"""A trivially-correct in-memory oracle for crash-consistency checks.

The oracle mirrors the workload at the syscall level and tracks, per
path, two images:

* the **durable** image — the state guaranteed to survive a crash,
  promoted at completed durability barriers (``fsync``/``fdatasync``
  promote one file plus its ancestor directories; ``sync`` promotes
  everything);
* the **pending** op list — every data mutation since the file's last
  durable point.  Pending state *may* survive a crash (journal timers,
  writeback, DAX file systems persist eagerly) but is never required to.

After a crash + remount, :meth:`OracleFS.check` decides admissibility:

* every durably-existing file must exist, with its durable bytes intact
  wherever no pending write overlaps them;
* a file may only exist if it existed durably or was pending-created;
* recovered sizes must be reachable by applying some subsequence of the
  pending size-changing ops to the durable size;
* every recovered byte must come from the durable image (zero beyond
  it) or from a pending write covering that offset — garbage fails;
* pending writes are atomic at 64 B *fragment* granularity: within each
  64 B-aligned fragment of a pending write (excluding bytes overwritten
  by later pending writes), the bytes are either all from that write or
  none of them — a half-applied fragment is a torn write.  Workloads
  that keep unsynced writes inside one 64 B cacheline therefore get
  whole-op atomicity: unsynced data is absent or fully present, never
  torn.
* a pending rename must not lose both names, nor duplicate the file
  under both when the destination never existed.

The same class doubles as the reference model for differential testing:
:attr:`files`/:attr:`dirs` expose the current (volatile) visible state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: atomicity granule for pending-write fragments (one cacheline)
FRAGMENT = 64


@dataclass
class _Write:
    offset: int
    data: bytes


@dataclass
class _Trunc:
    size: int


@dataclass
class _SetImage:
    """Full-image pending op (rename destination)."""

    data: bytes


@dataclass
class _FileRec:
    #: durable image; None = not durably existing
    durable: Optional[bytes] = None
    #: current visible image; None = currently unlinked
    volatile: Optional[bytes] = None
    #: data ops since the durable snapshot (may or may not persist)
    pending: List[object] = field(default_factory=list)
    pending_create: bool = False
    pending_unlink: bool = False
    #: multiple incarnations between barriers: content checks skipped
    ambiguous: bool = False


@dataclass
class _DirRec:
    durable: bool = False
    volatile: bool = False
    pending_create: bool = False
    pending_unlink: bool = False


@dataclass
class _RenamePair:
    src: str
    dst: str
    image: bytes
    dst_existed: bool


class OracleFS:
    """In-memory reference file system with durable-prefix tracking."""

    def __init__(self) -> None:
        self._files: Dict[str, _FileRec] = {}
        self._dirs: Dict[str, _DirRec] = {
            "/": _DirRec(durable=True, volatile=True)
        }
        self._renames: List[_RenamePair] = []

    # ------------------------------------------------------------------ #
    # visible (volatile) state — the differential-test reference model
    # ------------------------------------------------------------------ #

    @property
    def files(self) -> Dict[str, bytes]:
        return {
            p: r.volatile
            for p, r in self._files.items()
            if r.volatile is not None
        }

    @property
    def dirs(self) -> Set[str]:
        return {p for p, r in self._dirs.items() if r.volatile}

    def content(self, path: str) -> Optional[bytes]:
        rec = self._files.get(path)
        return rec.volatile if rec is not None else None

    # ------------------------------------------------------------------ #
    # op observation
    # ------------------------------------------------------------------ #

    def observe(self, op: Tuple, completed: bool = True) -> None:
        """Record one workload op.

        ``completed=False`` marks the op in flight when the crash fired:
        its effects are *possible* (recorded as pending) but its
        completion guarantees (fsync durability, visible state) are not.
        """
        kind = op[0]
        handler = getattr(self, f"_op_{kind}")
        handler(op, completed)

    def _rec(self, path: str) -> _FileRec:
        return self._files.setdefault(path, _FileRec())

    def _op_create(self, op: Tuple, completed: bool) -> None:
        _, path = op
        rec = self._rec(path)
        if rec.volatile is not None:
            return  # open(O_CREAT) on an existing file: no-op
        if rec.pending_unlink or rec.pending:
            # delete-then-recreate (or rename churn) between barriers:
            # more than one incarnation could surface after the crash.
            rec.ambiguous = True
        if completed:
            rec.volatile = b""
        if rec.durable is None:
            rec.pending_create = True
        rec.pending = []

    def _op_mkdir(self, op: Tuple, completed: bool) -> None:
        _, path = op
        rec = self._dirs.setdefault(path, _DirRec())
        if completed:
            rec.volatile = True
        if not rec.durable:
            rec.pending_create = True

    def _op_write(self, op: Tuple, completed: bool) -> None:
        _, path, offset, data = op
        rec = self._rec(path)
        rec.pending.append(_Write(offset, bytes(data)))
        if completed and rec.volatile is not None:
            cur = rec.volatile
            if len(cur) < offset:
                cur = cur + bytes(offset - len(cur))
            rec.volatile = cur[:offset] + data + cur[offset + len(data):]

    def _op_trunc(self, op: Tuple, completed: bool) -> None:
        _, path, size = op
        rec = self._rec(path)
        rec.pending.append(_Trunc(size))
        if completed and rec.volatile is not None:
            cur = rec.volatile
            rec.volatile = (
                cur[:size] if size <= len(cur) else cur + bytes(size - len(cur))
            )

    def _op_unlink(self, op: Tuple, completed: bool) -> None:
        _, path = op
        rec = self._rec(path)
        if completed:
            rec.volatile = None
        if rec.durable is not None:
            rec.pending_unlink = True

    def _op_rename(self, op: Tuple, completed: bool) -> None:
        _, src, dst = op
        src_rec = self._rec(src)
        dst_rec = self._rec(dst)
        image = src_rec.volatile if src_rec.volatile is not None else b""
        if src_rec.pending or src_rec.ambiguous:
            # Renaming a file with unsynced data: its image is not a
            # single value, so the destination's content is ambiguous.
            dst_rec.ambiguous = True
        self._renames.append(
            _RenamePair(
                src,
                dst,
                image,
                dst_existed=dst_rec.durable is not None,
            )
        )
        if dst_rec.volatile is not None or dst_rec.pending:
            dst_rec.ambiguous = True
        if dst_rec.durable is None:
            dst_rec.pending_create = True
        dst_rec.pending = [_SetImage(image)]
        if src_rec.durable is not None:
            src_rec.pending_unlink = True
        if completed:
            dst_rec.volatile = image
            src_rec.volatile = None
        src_rec.pending = []
        src_rec.pending_create = False

    def _op_fsync(self, op: Tuple, completed: bool) -> None:
        _, path = op
        if not completed:
            return  # durability not guaranteed: everything stays pending
        rec = self._rec(path)
        if rec.volatile is None:
            raise ValueError(f"fsync of unlinked path {path!r}")
        rec.durable = rec.volatile
        rec.pending = []
        rec.pending_create = False
        rec.pending_unlink = False
        rec.ambiguous = False
        self._promote_ancestors(path)
        self._renames = [r for r in self._renames if path not in (r.src, r.dst)]

    _op_fdatasync = _op_fsync

    def _op_sync(self, op: Tuple, completed: bool) -> None:
        if not completed:
            return
        for rec in self._files.values():
            rec.durable = rec.volatile
            rec.pending = []
            rec.pending_create = False
            rec.pending_unlink = False
            rec.ambiguous = False
        for rec in self._dirs.values():
            rec.durable = rec.volatile
            rec.pending_create = False
            rec.pending_unlink = False
        self._renames = []

    def _promote_ancestors(self, path: str) -> None:
        parts = [p for p in path.split("/") if p]
        cur = ""
        for name in parts[:-1]:
            cur = f"{cur}/{name}"
            rec = self._dirs.setdefault(cur, _DirRec(volatile=True))
            rec.durable = True
            rec.pending_create = False

    # ------------------------------------------------------------------ #
    # post-recovery admissibility check
    # ------------------------------------------------------------------ #

    def check(self, fs) -> List[str]:
        """Check a recovered file system; return a list of violations."""
        errors: List[str] = []
        try:
            self._check_dirs(fs, errors)
            self._check_files(fs, errors)
            self._check_renames(fs, errors)
            self._check_unknown(fs, errors)
        except Exception as exc:  # recovered FS must at least be readable
            errors.append(f"recovered fs raised while checking: {exc!r}")
        return errors

    def _check_dirs(self, fs, errors: List[str]) -> None:
        for path, rec in self._dirs.items():
            if path == "/":
                continue
            exists = fs.exists(path)
            must = rec.durable and not rec.pending_unlink
            may = rec.durable or rec.pending_create
            if must and not exists:
                errors.append(f"durable directory {path} lost")
            elif exists and not may:
                errors.append(f"directory {path} resurrected")

    def _check_files(self, fs, errors: List[str]) -> None:
        from repro.fs.vfs import O_RDONLY

        for path, rec in self._files.items():
            exists = fs.exists(path)
            must = rec.durable is not None and not rec.pending_unlink
            may = rec.durable is not None or rec.pending_create
            if must and not exists:
                errors.append(f"durable file {path} lost")
                continue
            if exists and not may:
                errors.append(f"file {path} resurrected")
                continue
            if not exists:
                continue
            size = fs.stat(path).size
            fd = fs.open(path, O_RDONLY)
            content = fs.pread(fd, 0, size + 1)
            fs.close(fd)
            if len(content) != size:
                errors.append(
                    f"{path}: stat size {size} != readable bytes "
                    f"{len(content)}"
                )
            if rec.ambiguous:
                continue  # incarnation churn: existence checks only
            self._check_content(path, rec, content, errors)

    # ---- content admissibility ---------------------------------------- #

    def _check_content(
        self, path: str, rec: _FileRec, content: bytes, errors: List[str]
    ) -> None:
        durable = rec.durable if rec.durable is not None else b""
        sizes = self._achievable_sizes(len(durable), rec.pending)
        if len(content) not in sizes:
            errors.append(
                f"{path}: recovered size {len(content)} not reachable "
                f"from durable size {len(durable)} via pending ops "
                f"(admissible: {sorted(sizes)})"
            )
        writes = self._pending_writes(rec.pending)
        n = len(content)
        base = durable[:n] + bytes(max(0, n - len(durable)))
        # A pending shrink zeroes the file's tail in the page cache, and
        # the zeroed page can reach the device before the size update
        # commits — zeros past the smallest pending truncate size are
        # therefore admissible whatever the recovered size says.
        trunc_floor = min(
            (op.size for op in rec.pending if isinstance(op, _Trunc)),
            default=None,
        )
        # 1. every byte must have a source: durable image or a pending
        #    write covering it ("fsynced data intact" is the special case
        #    of offsets no pending write touches).
        #    Bytes are compared one by one only inside the 64 B chunks
        #    that differ; most recovered files equal their base outright.
        unexplained: List[int] = []
        if content != base:
            for c in range(0, n, FRAGMENT):
                e = min(c + FRAGMENT, n)
                if content[c:e] != base[c:e]:
                    unexplained.extend(
                        i for i in range(c, e) if content[i] != base[i]
                    )
        if unexplained:
            pend = set()
            for w in writes:
                lo, hi = w.offset, min(w.offset + len(w.data), n)
                for i in range(max(lo, 0), hi):
                    if content[i] == w.data[i - w.offset]:
                        pend.add(i)
            if trunc_floor is not None:
                for i in unexplained:
                    if i >= trunc_floor and content[i] == 0:
                        pend.add(i)
            bad = [i for i in unexplained if i not in pend]
            if bad:
                errors.append(
                    f"{path}: byte(s) at {bad[:8]} match neither the "
                    f"durable image nor any pending write"
                )
        # 2. fragment atomicity of each pending write.
        for wi, w in enumerate(writes):
            later = writes[wi + 1:]
            torn = self._torn_fragments(w, later, base, content, trunc_floor)
            if torn:
                errors.append(
                    f"{path}: pending write @{w.offset}+{len(w.data)} "
                    f"torn inside 64 B fragment(s) {torn[:4]}"
                )

    @staticmethod
    def _pending_writes(pending: List[object]) -> List[_Write]:
        out: List[_Write] = []
        for op in pending:
            if isinstance(op, _Write):
                out.append(op)
            elif isinstance(op, _SetImage):
                out.append(_Write(0, op.data))
        return out

    @staticmethod
    def _achievable_sizes(base: int, pending: List[object]) -> Set[int]:
        """Sizes reachable by applying any subsequence of pending ops."""
        frontier = {base}
        for op in pending:
            nxt = set(frontier)
            for s in sorted(frontier):
                if isinstance(op, _Write):
                    nxt.add(max(s, op.offset + len(op.data)))
                elif isinstance(op, _Trunc):
                    nxt.add(op.size)
                elif isinstance(op, _SetImage):
                    nxt.add(len(op.data))
            frontier = nxt
        return frontier

    @staticmethod
    def _torn_fragments(
        w: _Write,
        later: List[_Write],
        base: bytes,
        content: bytes,
        trunc_floor: Optional[int] = None,
    ) -> List[int]:
        """64 B-aligned fragments of ``w`` that are half-applied.

        A fragment is torn when at least one byte is unambiguously from
        ``w`` (matches the write, differs from the durable base) and at
        least one byte is unambiguously not (differs from the write).
        Bytes overwritten by later pending writes — or zeroed past a
        pending truncate size — are excluded.
        """
        n = len(content)
        lo, hi = w.offset, min(w.offset + len(w.data), n)
        if lo >= hi:
            return []
        shadow = bytearray(hi - lo)
        for lw in later:
            s = max(lo, lw.offset)
            e = min(hi, lw.offset + len(lw.data))
            for i in range(s, e):
                shadow[i - lo] = 1
        if trunc_floor is not None:
            for i in range(max(lo, trunc_floor), hi):
                if content[i] == 0:
                    shadow[i - lo] = 1
        torn: List[int] = []
        frag = (lo // FRAGMENT) * FRAGMENT
        while frag < hi:
            s, e = max(frag, lo), min(frag + FRAGMENT, hi)
            surely_w = False
            surely_not = False
            for i in range(s, e):
                if shadow[i - lo]:
                    continue
                is_w = content[i] == w.data[i - w.offset]
                if is_w and content[i] != base[i]:
                    surely_w = True
                elif not is_w:
                    surely_not = True
            if surely_w and surely_not:
                torn.append(frag)
            frag += FRAGMENT
        return torn

    # ---- namespace cross-checks --------------------------------------- #

    def _check_renames(self, fs, errors: List[str]) -> None:
        for pair in self._renames:
            src_there = fs.exists(pair.src)
            dst_there = fs.exists(pair.dst)
            src_rec = self._files.get(pair.src)
            if (
                not src_there
                and not dst_there
                and src_rec is not None
                and src_rec.durable is not None
            ):
                errors.append(
                    f"rename {pair.src} -> {pair.dst}: both names lost"
                )
            if src_there and dst_there and not pair.dst_existed:
                errors.append(
                    f"rename {pair.src} -> {pair.dst}: file duplicated "
                    f"under both names"
                )

    def _check_unknown(self, fs, errors: List[str]) -> None:
        """No paths the workload never created may appear."""
        known_files = set(self._files)
        known_dirs = set(self._dirs)
        stack = ["/"]
        while stack:
            d = stack.pop()
            for name in fs.listdir(d):
                child = f"{d.rstrip('/')}/{name}"
                if fs.stat(child).is_dir:
                    if child not in known_dirs:
                        errors.append(f"unknown directory {child} appeared")
                    else:
                        stack.append(child)
                elif child not in known_files:
                    errors.append(f"unknown file {child} appeared")
