"""Oracle-checked crash-consistency sweeps (ISSUE acceptance tests).

The tier-1 tests replay a bounded, evenly-spaced subset of crash sites
for the three acceptance file systems and must always pass.  The
``crashsweep``-marked tests replay *every* site for *every* file system
and are opt-in (``pytest -m crashsweep``); CI runs them uncapped.

A failure message embeds the exact command that reproduces the failing
crash point standalone, e.g.::

    PYTHONPATH=src python -m repro crashsweep --fs f2fs --seed 0 --site 104
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import SweepConfig, run_crash, run_sweep
from repro.faults.oracle import OracleFS, _FileRec, _Trunc, _Write
from repro.fs.extfs import ExtFS
from tests.crashgen import run_and_check, sweep_or_report

#: ISSUE acceptance floor: the standard workload must reach at least this
#: many distinct crash sites on each acceptance file system.
MIN_SITES = 100

#: Tier-1 replay bound (overridable with ``pytest --max-sites=N``).
TIER1_MAX_REPLAYS = 120

ACCEPTANCE_FS = ["ext4", "bytefs", "bytefs-log"]

#: bytefs-dual (byte-addressed metadata, *no* firmware transactions) is
#: the paper's ablation point: compound namespace ops such as rename are
#: not atomic without the transaction log, and the sweep demonstrates it.
EXTENDED_FS = [
    "ext4",
    "f2fs",
    "nova",
    "pmfs",
    "bytefs",
    "bytefs-log",
    pytest.param(
        "bytefs-dual",
        marks=pytest.mark.xfail(
            reason="no firmware transactions: rename is not crash-atomic "
            "(the ablation that motivates ByteFS's transaction log)",
            strict=True,
        ),
    ),
]


def _max_replays(request) -> int:
    opt = request.config.getoption("--max-sites")
    return TIER1_MAX_REPLAYS if opt is None else opt


@pytest.mark.parametrize("fs_name", ACCEPTANCE_FS)
def test_crash_sweep_bounded(fs_name, request):
    """Every replayed crash point recovers to an oracle-consistent state."""
    report = run_and_check(
        fs_name, seed=0, max_sites=_max_replays(request), min_sites=MIN_SITES
    )
    # The bound selects sites evenly over the whole trace, so both early
    # (mkfs-adjacent) and late (post-sync quiesced) sites are exercised.
    assert report.sites_tested[0] == 0
    assert report.sites_tested[-1] == report.n_sites - 1


def test_crash_sweep_covers_all_mutation_kinds():
    """The standard workload reaches every class of crash site."""
    report = sweep_or_report("bytefs", max_sites=0)
    labels = set(report.label_histogram)
    # Byte-path MMIO stores, NVMe block writes, and the firmware log
    # must all appear; a missing class means part of the crash surface
    # went dark.
    assert "mssd.store" in labels, labels
    assert "mssd.write_block" in labels, labels
    assert "fw.log_append" in labels, labels


def test_crash_sweep_deterministic_enumeration():
    """Same (fs, seed) -> identical site count and label histogram."""
    a = sweep_or_report("ext4", seed=0, max_sites=0)
    b = sweep_or_report("ext4", seed=0, max_sites=0)
    assert a.n_sites == b.n_sites
    assert a.label_histogram == b.label_histogram


@pytest.mark.crashsweep
@pytest.mark.parametrize("fs_name", EXTENDED_FS)
def test_crash_sweep_full(fs_name, request):
    """Exhaustive sweep: every enumerated site, torn variants included."""
    opt = request.config.getoption("--max-sites")
    run_and_check(fs_name, seed=0, max_sites=opt, min_sites=MIN_SITES)


def test_recovery_exception_is_a_site_failure_not_an_abort(monkeypatch):
    """A remount that raises fails its own site; the sweep goes on."""
    real_remount = ExtFS.remount
    calls = []

    def flaky_remount(self):
        calls.append(1)
        if len(calls) == 2:
            raise KeyError(119)
        return real_remount(self)

    monkeypatch.setattr(ExtFS, "remount", flaky_remount)
    report = run_sweep(
        SweepConfig(fs_name="ext4", seed=0, max_sites=4, torn=False)
    )
    assert len(calls) == len(report.results) == 4
    assert [r.ok for r in report.results] == [True, False, True, True]
    failed = report.results[1]
    assert failed.errors == ["recovery raised KeyError(119)"]
    assert failed.describe() == (
        f"[ext4] site {failed.site} ({failed.fired.label}): "
        "recovery raised KeyError(119)"
    )


def test_replay_exception_is_reported_with_ops_completed():
    """A workload op that raises (not the injected crash) is reported."""
    ops = [("mkdir", "/a"), ("create", "/a/f"), ("bogus",)]
    result = run_crash(
        SweepConfig(fs_name="ext4", workload=ops), crash_site=10**6
    )
    assert result.fired is None
    assert result.n_ops_completed == 2
    assert result.errors == ["replay raised ValueError(\"unknown workload op 'bogus'\")"]


_small_bytes = st.binary(min_size=0, max_size=300).map(
    lambda b: bytes(x % 3 for x in b)
)


@settings(max_examples=200, deadline=None)
@given(
    durable=_small_bytes,
    content=_small_bytes,
    writes=st.lists(
        st.tuples(st.integers(0, 300), _small_bytes), max_size=4
    ),
    trunc=st.one_of(st.none(), st.integers(0, 300)),
)
def test_oracle_unexplained_bytes_match_per_byte_reference(
    durable, content, writes, trunc
):
    """The oracle's chunked byte-source check names the same bytes as a
    byte-by-byte scan (bytes drawn from {0, 1, 2} so matches are common)."""
    pending = [_Write(off, data) for off, data in writes]
    if trunc is not None:
        pending.insert(len(pending) // 2, _Trunc(trunc))
    n = len(content)
    base = durable[:n] + bytes(max(0, n - len(durable)))
    bad = [
        i for i in range(n)
        if content[i] != base[i]
        and not (trunc is not None and i >= trunc and content[i] == 0)
        and not any(
            w.offset <= i < w.offset + len(w.data)
            and content[i] == w.data[i - w.offset]
            for w in pending if isinstance(w, _Write)
        )
    ]
    errors = []
    OracleFS()._check_content(
        "/f", _FileRec(durable=durable, pending=pending), content, errors
    )
    reported = [e for e in errors if "match neither" in e]
    assert reported == (
        [
            f"/f: byte(s) at {bad[:8]} match neither the durable image "
            "nor any pending write"
        ]
        if bad
        else []
    )
