"""ExtFS bitmap fast paths: byte-level mkfs reservation and inode allocation.

Both are checked against per-bit reference models: mkfs's block bitmap
on geometries whose region edges fall mid-byte, and ``_alloc_ino``'s
lowest-free choice through create/unlink sequences, across a crash and
remount.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bytefs import build_stack
from repro.fs.errors import NoSpace
from repro.fs.extfs import ExtFSConfig, _set_bit_range
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.nand.geometry import FlashGeometry
from repro.stats.traffic import StructKind
from tests.conftest import SMALL_GEOMETRY


def _per_bit(nbytes: int, ranges) -> bytearray:
    ref = bytearray(nbytes)
    for lo, hi in ranges:
        for b in range(lo, hi):
            ref[b // 8] |= 1 << (b % 8)
    return ref


@settings(max_examples=200, deadline=None)
@given(
    nbytes=st.integers(1, 40),
    data=st.data(),
)
def test_set_bit_range_matches_per_bit(nbytes, data):
    lo = data.draw(st.integers(0, nbytes * 8))
    hi = data.draw(st.integers(lo, nbytes * 8))
    start = bytearray(data.draw(st.binary(min_size=nbytes, max_size=nbytes)))
    got = bytearray(start)
    _set_bit_range(got, lo, hi)
    ref = _per_bit(nbytes, [(lo, hi)])
    assert got == bytes(a | b for a, b in zip(start, ref))
    assert len(got) == nbytes


# (page size, channels, blocks/way, pages/block, n_inodes, journal
# blocks, block-bitmap blocks); data_start and total_blocks are never
# multiples of 8, so both reserved ranges start or end mid-byte.
_GEOMETRIES = [
    (512, 4, 33, 61, None, 64, 2),
    (512, 4, 33, 61, 101, 61, 2),
    (4096, 3, 21, 61, None, 64, 1),
]


@pytest.mark.parametrize("fs_name", ["ext4", "bytefs"])
@pytest.mark.parametrize("geo", _GEOMETRIES)
def test_mkfs_block_bitmap_matches_per_bit_reference(fs_name, geo):
    page, channels, blocks, pages, n_inodes, journal, bitmap_blocks = geo
    geometry = FlashGeometry(
        n_channels=channels,
        ways_per_channel=1,
        blocks_per_way=blocks,
        pages_per_block=pages,
        page_size=page,
    )
    _clock, _stats, device, fs = build_stack(
        fs_name,
        geometry=geometry,
        fs_config=ExtFSConfig(n_inodes=n_inodes, journal_blocks=journal),
    )
    sb = fs._sb
    assert sb.data_start % 8 and sb.total_blocks % 8
    assert sb.block_bitmap_blocks == bitmap_blocks
    nbytes = sb.block_bitmap_blocks * page
    ref = _per_bit(
        nbytes, [(0, sb.data_start), (sb.total_blocks, nbytes * 8)]
    )
    assert fs._bbmap == ref
    on_device = device.read_blocks(
        sb.block_bitmap_start, sb.block_bitmap_blocks, StructKind.BITMAP
    )
    assert on_device == bytes(ref)


def _stack(fs_name: str, n_inodes: int):
    _clock, _stats, device, fs = build_stack(
        fs_name,
        geometry=SMALL_GEOMETRY,
        fs_config=ExtFSConfig(n_inodes=n_inodes),
    )
    return device, fs


def _create(fs, path: str) -> int:
    fs.close(fs.open(path, O_CREAT | O_RDWR))
    return fs.stat(path).ino


@pytest.mark.parametrize("fs_name", ["ext4", "bytefs"])
def test_alloc_ino_returns_lowest_free_after_frees(fs_name):
    _device, fs = _stack(fs_name, 64)
    inos = {f"/f{i}": _create(fs, f"/f{i}") for i in range(40)}
    assert sorted(inos.values()) == list(range(2, 42))
    for i in (33, 7, 19, 8, 25):
        fs.unlink(f"/f{i}")
    for expect in sorted(inos[f"/f{i}"] for i in (33, 7, 19, 8, 25)):
        assert _create(fs, f"/g{expect}") == expect
    assert _create(fs, "/next") == 42


@pytest.mark.parametrize("fs_name", ["ext4", "bytefs"])
@pytest.mark.parametrize("n_inodes", [21, 64, 67])
def test_alloc_ino_no_space_exactly_at_exhaustion(fs_name, n_inodes):
    _device, fs = _stack(fs_name, n_inodes)
    for i in range(n_inodes - 2):
        assert _create(fs, f"/f{i}") == i + 2
    with pytest.raises(NoSpace):
        _create(fs, "/full")
    fs.unlink("/f5")
    assert _create(fs, "/again") == 7
    with pytest.raises(NoSpace):
        _create(fs, "/full")
    assert not fs.exists("/full")


#: not a multiple of 8, and small enough that sequences reach exhaustion
N_MODEL_INODES = 13


@settings(max_examples=25, deadline=None)
@given(
    fs_name=st.sampled_from(["ext4", "bytefs"]),
    ops=st.lists(
        st.one_of(
            st.just(("create",)),
            st.tuples(st.just("unlink"), st.integers(0, 1000)),
            st.just(("remount",)),
        ),
        max_size=60,
    ),
)
def test_alloc_free_agrees_with_set_model(fs_name, ops):
    """Create/unlink/remount sequences pick the same inos as a set model."""
    device, fs = _stack(fs_name, N_MODEL_INODES)
    used = {0, 1}
    live = {}  # path -> ino
    serial = 0
    for op in ops:
        if op[0] == "create":
            free = set(range(N_MODEL_INODES)) - used
            path = f"/f{serial}"
            serial += 1
            if not free:
                with pytest.raises(NoSpace):
                    _create(fs, path)
                continue
            ino = _create(fs, path)
            assert ino == min(free)
            used.add(ino)
            live[path] = ino
        elif op[0] == "unlink":
            if not live:
                continue
            path = sorted(live)[op[1] % len(live)]
            fs.unlink(path)
            used.discard(live.pop(path))
        else:
            fs.sync()
            device.power_fail()
            fs.crash()
            fs.remount()
            assert {fs.stat(p).ino for p in live} == set(live.values())
        bits = {
            b for b in range(N_MODEL_INODES)
            if fs._ibmap[b // 8] & (1 << (b % 8))
        }
        assert bits == used
