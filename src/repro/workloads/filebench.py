"""Filebench macro personalities (paper Table 5), scaled down ~1000x.

Operation mixes follow the standard Filebench personality definitions:

* **Varmail** — mail server: per-message create/write/fsync, read, append/
  fsync, delete (metadata- and fsync-heavy, 16 KB files).
* **Fileserver** — create/append/whole-read/delete of 128 KB files, no
  fsync pressure (data-heavy).
* **Webproxy** — create+write followed by five whole-file reads per new
  object, heavy directory churn (16 KB files).
* **Webserver** — read-mostly: ten whole-file reads plus one small log
  append per loop (16 KB files).
* **OLTP** — database: random small writes to large data files with
  fdatasync, plus a synchronous log writer (10 MB files in the paper,
  1 MB here; 200 threads in the paper, 20 here).
"""

from __future__ import annotations

from typing import Iterator

from repro.fs.vfs import BaseFileSystem, O_APPEND, O_CREAT, O_RDONLY, O_RDWR
from repro.workloads.base import Workload


def _whole_read(fs: BaseFileSystem, path: str, chunk: int = 1 << 16) -> None:
    fd = fs.open(path, O_RDONLY)
    try:
        size = fs.stat(path).size
        off = 0
        while off < size:
            data = fs.pread(fd, off, min(chunk, size - off))
            if not data:
                break
            off += len(data)
    finally:
        fs.close(fd)


class Varmail(Workload):
    name = "varmail"

    def __init__(
        self,
        n_files: int = 240,
        file_size: int = 16 << 10,
        n_threads: int = 12,
        ops_per_thread: int = 60,
        seed: int = 42,
    ) -> None:
        super().__init__(seed)
        self.n_files = n_files
        self.file_size = file_size
        self.n_threads = n_threads
        self.ops_per_thread = ops_per_thread

    def setup(self, fs: BaseFileSystem) -> None:
        fs.mkdir("/mail")
        payload = b"m" * self.file_size
        for i in range(self.n_files // 2):
            fd = fs.open(f"/mail/msg{i}", O_CREAT | O_RDWR)
            fs.write(fd, payload)
            fs.close(fd)
        fs.sync()
        #: files a thread has created and has yet to open again
        self.busy = set()

    def thread_ops(self, fs: BaseFileSystem, tid: int) -> Iterator[str]:
        rng = self.rng(f"t{tid}")
        next_new = self.n_files // 2 + tid * 10_000
        payload = b"M" * (self.file_size // 2)
        busy = self.busy
        for _ in range(self.ops_per_thread):
            # delete-of-oldest / create / fsync / read / append cycle,
            # the Varmail flowlet structure.  Like Filebench, never
            # delete a file another thread's flowlet still holds.
            victim = rng.randrange(max(1, next_new))
            if victim not in busy and fs.exists(f"/mail/msg{victim}"):
                fs.unlink(f"/mail/msg{victim}")
                yield "delete"
            busy.add(next_new)
            fd = fs.open(f"/mail/msg{next_new}", O_CREAT | O_RDWR)
            fs.write(fd, payload)
            fs.fsync(fd)
            fs.close(fd)
            yield "create+fsync"
            target = f"/mail/msg{next_new}"
            _whole_read(fs, target)
            yield "read"
            fd = fs.open(target, O_RDWR | O_APPEND)
            fs.write(fd, payload)
            fs.fsync(fd)
            fs.close(fd)
            yield "append+fsync"
            _whole_read(fs, target)
            busy.discard(next_new)
            yield "read"
            next_new += 1


class Fileserver(Workload):
    name = "fileserver"

    def __init__(
        self,
        n_files: int = 60,
        file_size: int = 128 << 10,
        n_threads: int = 12,
        ops_per_thread: int = 25,
        seed: int = 42,
    ) -> None:
        super().__init__(seed)
        self.n_files = n_files
        self.file_size = file_size
        self.n_threads = n_threads
        self.ops_per_thread = ops_per_thread

    def setup(self, fs: BaseFileSystem) -> None:
        fs.mkdir("/srv")
        payload = b"f" * self.file_size
        for i in range(self.n_files):
            fd = fs.open(f"/srv/file{i}", O_CREAT | O_RDWR)
            fs.write(fd, payload)
            fs.close(fd)
        fs.sync()

    def thread_ops(self, fs: BaseFileSystem, tid: int) -> Iterator[str]:
        rng = self.rng(f"t{tid}")
        next_new = self.n_files + tid * 10_000
        append_chunk = b"A" * (16 << 10)
        for _ in range(self.ops_per_thread):
            # create a new file, write it whole
            fd = fs.open(f"/srv/file{next_new}", O_CREAT | O_RDWR)
            fs.write(fd, b"F" * self.file_size)
            fs.close(fd)
            yield "createfile"
            # append to a random file
            victim = rng.randrange(next_new)
            if fs.exists(f"/srv/file{victim}"):
                fd = fs.open(f"/srv/file{victim}", O_RDWR | O_APPEND)
                fs.write(fd, append_chunk)
                fs.close(fd)
                yield "append"
            # whole-read a random file
            victim = rng.randrange(next_new)
            if fs.exists(f"/srv/file{victim}"):
                _whole_read(fs, f"/srv/file{victim}")
                yield "read"
            # delete a random file
            victim = rng.randrange(next_new)
            if fs.exists(f"/srv/file{victim}"):
                fs.unlink(f"/srv/file{victim}")
                yield "delete"
            next_new += 1


class Webproxy(Workload):
    name = "webproxy"

    def __init__(
        self,
        n_files: int = 240,
        file_size: int = 16 << 10,
        n_threads: int = 12,
        ops_per_thread: int = 30,
        seed: int = 42,
    ) -> None:
        super().__init__(seed)
        self.n_files = n_files
        self.file_size = file_size
        self.n_threads = n_threads
        self.ops_per_thread = ops_per_thread

    def setup(self, fs: BaseFileSystem) -> None:
        fs.mkdir("/proxy")
        for d in range(self.n_threads):
            fs.mkdir(f"/proxy/d{d}")
        payload = b"p" * self.file_size
        for i in range(self.n_files):
            fd = fs.open(
                f"/proxy/d{i % self.n_threads}/obj{i}", O_CREAT | O_RDWR
            )
            fs.write(fd, payload)
            fs.close(fd)
        fs.sync()

    def thread_ops(self, fs: BaseFileSystem, tid: int) -> Iterator[str]:
        rng = self.rng(f"t{tid}")
        next_new = self.n_files + tid * 10_000
        payload = b"P" * self.file_size
        for _ in range(self.ops_per_thread):
            # proxy cache replacement: delete an old object, fetch a new
            # one, then serve (read) five random objects
            victim = rng.randrange(self.n_files)
            victim_path = f"/proxy/d{victim % self.n_threads}/obj{victim}"
            if fs.exists(victim_path):
                fs.unlink(victim_path)
                yield "delete"
            fd = fs.open(f"/proxy/d{tid}/obj{next_new}", O_CREAT | O_RDWR)
            fs.write(fd, payload)
            fs.close(fd)
            yield "create"
            for _r in range(5):
                obj = rng.randrange(next_new)
                path = f"/proxy/d{obj % self.n_threads}/obj{obj}"
                if fs.exists(path):
                    _whole_read(fs, path)
                    yield "read"
            next_new += 1


class Webserver(Workload):
    name = "webserver"

    def __init__(
        self,
        n_files: int = 240,
        file_size: int = 16 << 10,
        n_threads: int = 12,
        ops_per_thread: int = 30,
        seed: int = 42,
    ) -> None:
        super().__init__(seed)
        self.n_files = n_files
        self.file_size = file_size
        self.n_threads = n_threads
        self.ops_per_thread = ops_per_thread

    def setup(self, fs: BaseFileSystem) -> None:
        fs.mkdir("/web")
        payload = b"w" * self.file_size
        for i in range(self.n_files):
            fd = fs.open(f"/web/page{i}", O_CREAT | O_RDWR)
            fs.write(fd, payload)
            fs.close(fd)
        fs.mkdir("/web/logs")
        for tid in range(self.n_threads):
            fd = fs.open(f"/web/logs/log{tid}", O_CREAT | O_RDWR)
            fs.close(fd)
        fs.sync()

    def thread_ops(self, fs: BaseFileSystem, tid: int) -> Iterator[str]:
        rng = self.rng(f"t{tid}")
        log_entry = b"L" * 512
        for _ in range(self.ops_per_thread):
            for _r in range(10):
                page = rng.randrange(self.n_files)
                _whole_read(fs, f"/web/page{page}")
                yield "read"
            fd = fs.open(f"/web/logs/log{tid}", O_RDWR | O_APPEND)
            fs.write(fd, log_entry)
            fs.close(fd)
            yield "logappend"


class OLTP(Workload):
    name = "oltp"

    def __init__(
        self,
        n_files: int = 4,
        file_size: int = 1 << 20,
        n_threads: int = 20,
        ops_per_thread: int = 30,
        write_size: int = 2 << 10,
        seed: int = 42,
    ) -> None:
        super().__init__(seed)
        self.n_files = n_files
        self.file_size = file_size
        self.n_threads = n_threads
        self.ops_per_thread = ops_per_thread
        self.write_size = write_size

    def setup(self, fs: BaseFileSystem) -> None:
        fs.mkdir("/db")
        chunk = b"d" * (128 << 10)
        for i in range(self.n_files):
            fd = fs.open(f"/db/data{i}", O_CREAT | O_RDWR)
            written = 0
            while written < self.file_size:
                fs.write(fd, chunk)
                written += len(chunk)
            fs.close(fd)
        fd = fs.open("/db/redo.log", O_CREAT | O_RDWR)
        fs.close(fd)
        fs.sync()

    def thread_ops(self, fs: BaseFileSystem, tid: int) -> Iterator[str]:
        rng = self.rng(f"t{tid}")
        buf = b"T" * self.write_size
        log_rec = b"R" * 512
        for _ in range(self.ops_per_thread):
            # read a random DB page, dirty it, fdatasync (DB writer)
            f = rng.randrange(self.n_files)
            offset = rng.randrange(self.file_size // self.write_size)
            offset *= self.write_size
            fd = fs.open(f"/db/data{f}", O_RDWR)
            fs.pread(fd, offset, self.write_size)
            yield "dbread"
            fs.pwrite(fd, offset, buf)
            fs.fdatasync(fd)
            fs.close(fd)
            yield "dbwrite+sync"
            # log writer: small synchronous append
            fd = fs.open("/db/redo.log", O_RDWR | O_APPEND)
            fs.write(fd, log_rec)
            fs.fsync(fd)
            fs.close(fd)
            yield "logwrite+sync"


MACRO_WORKLOADS = {
    "varmail": Varmail,
    "fileserver": Fileserver,
    "webproxy": Webproxy,
    "webserver": Webserver,
    "oltp": OLTP,
}
