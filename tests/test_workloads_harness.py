"""Tests for workload generators, distributions, and the bench harness."""

import random

import pytest

from repro.bench.harness import RunResult, run_workload
from repro.bench.report import format_table, normalize
from repro.workloads import (
    MicroCreate,
    MicroDelete,
    MicroMkdir,
    MicroRmdir,
    OLTP,
    Varmail,
    Webproxy,
    Webserver,
    YCSB,
    ZipfianGenerator,
)
from repro.workloads.zipfian import LatestGenerator, UniformGenerator
from tests.conftest import SMALL_GEOMETRY


def test_zipfian_range_and_skew():
    rng = random.Random(1)
    gen = ZipfianGenerator(1000, rng=rng)
    samples = [gen.next() for _ in range(5000)]
    assert all(0 <= s < 1000 for s in samples)
    # Zipf 0.99: item 0 should be far more popular than the median item.
    top = samples.count(0)
    assert top > 100


def test_latest_generator_prefers_recent():
    rng = random.Random(2)
    gen = LatestGenerator(100, rng=rng)
    samples = [gen.next() for _ in range(2000)]
    assert all(0 <= s < 100 for s in samples)
    recent = sum(1 for s in samples if s >= 90)
    old = sum(1 for s in samples if s < 10)
    assert recent > old


def test_uniform_generator_covers_range():
    gen = UniformGenerator(10, random.Random(3))
    samples = {gen.next() for _ in range(500)}
    assert samples == set(range(10))


@pytest.mark.parametrize(
    "wl",
    [
        MicroCreate(n_files=48, n_threads=4),
        MicroDelete(n_files=48, n_threads=4),
        MicroMkdir(n_dirs=48, n_threads=4),
        MicroRmdir(n_dirs=48, n_threads=4),
    ],
    ids=lambda w: w.name,
)
def test_micro_workloads_run_on_bytefs(wl):
    result = run_workload("bytefs", wl, geometry=SMALL_GEOMETRY)
    assert result.ops == 48
    assert result.elapsed_s > 0
    assert result.throughput > 0


@pytest.mark.parametrize(
    "wl_cls,kwargs",
    [
        (Varmail, dict(n_files=40, n_threads=4, ops_per_thread=4)),
        (Webproxy, dict(n_files=40, n_threads=4, ops_per_thread=3)),
        (Webserver, dict(n_files=40, n_threads=4, ops_per_thread=3)),
        (OLTP, dict(n_files=2, file_size=1 << 18, n_threads=4,
                    ops_per_thread=3)),
    ],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_macro_workloads_run_on_ext4(wl_cls, kwargs):
    result = run_workload("ext4", wl_cls(**kwargs), geometry=SMALL_GEOMETRY)
    assert result.ops > 0
    assert result.app_write > 0


def test_workloads_are_deterministic():
    r1 = run_workload(
        "bytefs", Varmail(n_files=20, n_threads=2, ops_per_thread=3),
        geometry=SMALL_GEOMETRY,
    )
    r2 = run_workload(
        "bytefs", Varmail(n_files=20, n_threads=2, ops_per_thread=3),
        geometry=SMALL_GEOMETRY,
    )
    assert r1.elapsed_s == r2.elapsed_s
    assert r1.host_write == r2.host_write


def test_varmail_skips_victims_another_thread_holds():
    # Seed 11 at 300 cycles per thread draws a victim another thread has
    # just created and is about to read back; deleting it used to abort
    # the run with FileNotFound.
    wl = Varmail(ops_per_thread=300, seed=11)
    result = run_workload("bytefs", wl)
    cycles = wl.n_threads * wl.ops_per_thread
    assert result.latency.count("create+fsync") == cycles
    assert result.latency.count("read") == 2 * cycles
    assert not wl.busy


def test_ycsb_runs_and_reports_latency():
    wl = YCSB("A", n_records=60, n_ops=60, n_threads=2, value_size=64)
    result = run_workload("bytefs", wl, geometry=SMALL_GEOMETRY)
    assert result.ops == 60
    assert result.latency.count("read") > 0
    assert result.latency.count("update") > 0
    assert result.latency.percentile("read", 95) >= result.latency.percentile(
        "read", 5
    )


def test_ycsb_c_is_read_only():
    wl = YCSB("C", n_records=50, n_ops=40, n_threads=2, value_size=64)
    result = run_workload("ext4", wl, geometry=SMALL_GEOMETRY)
    assert result.latency.count("read") == 40
    assert result.latency.count("update") == 0


def test_ycsb_e_scans():
    wl = YCSB("E", n_records=50, n_ops=20, n_threads=2, value_size=64)
    result = run_workload("bytefs", wl, geometry=SMALL_GEOMETRY)
    assert result.latency.count("scan") > 0


def test_ycsb_unknown_letter_rejected():
    with pytest.raises(ValueError):
        YCSB("Z")


def test_setup_excluded_from_measurement():
    """MicroDelete's setup creates all the files; measured app writes
    must therefore be ~zero."""
    result = run_workload(
        "ext4", MicroDelete(n_files=24, n_threads=2),
        geometry=SMALL_GEOMETRY,
    )
    assert result.app_write == 0
    assert result.ops == 24


def test_run_result_amplification_properties():
    result = run_workload(
        "ext4", MicroCreate(n_files=24, n_threads=2),
        geometry=SMALL_GEOMETRY,
    )
    assert result.write_amplification > 1
    assert result.host_write == result.meta_write + result.data_write


def test_multithreaded_faster_than_single_threaded():
    r1 = run_workload(
        "bytefs", MicroCreate(n_files=96, n_threads=1),
        geometry=SMALL_GEOMETRY,
    )
    r8 = run_workload(
        "bytefs", MicroCreate(n_files=96, n_threads=8),
        geometry=SMALL_GEOMETRY,
    )
    assert r8.elapsed_s < r1.elapsed_s


def test_normalize_and_format_table():
    values = {"ext4": 2.0, "bytefs": 6.0}
    norm = normalize(values, "ext4")
    assert norm == {"ext4": 1.0, "bytefs": 3.0}
    table = format_table("T", ["sys", "x"], [("ext4", 1.0), ("bytefs", 3.0)])
    assert "ext4" in table and "3.00" in table


def test_bytefs_uses_byte_interface_ext4_does_not():
    wl_args = dict(n_files=48, n_threads=4)
    rb = run_workload("bytefs", MicroCreate(**wl_args), geometry=SMALL_GEOMETRY)
    re4 = run_workload("ext4", MicroCreate(**wl_args), geometry=SMALL_GEOMETRY)
    assert rb.byte_write > 0
    assert re4.byte_write == 0
    assert rb.meta_write < re4.meta_write


def test_config_echo_is_opt_in_and_golden_safe():
    """Without ``config_echo`` the JSON document must not grow new keys —
    the golden differential fixtures pin its exact byte content."""
    wl_args = dict(n_files=8, n_threads=1, seed=7)
    plain = run_workload(
        "bytefs", MicroCreate(**wl_args), geometry=SMALL_GEOMETRY
    )
    doc = plain.to_json()
    assert "seed" not in doc
    assert "config" not in doc

    echoed = run_workload(
        "bytefs", MicroCreate(**wl_args), geometry=SMALL_GEOMETRY,
        config_echo={"workload": "create", "log_bytes": 1 << 20},
    )
    doc = echoed.to_json()
    assert doc["seed"] == 7
    assert doc["config"] == {"workload": "create", "log_bytes": 1 << 20}
    # the echo annotates the document without perturbing the run itself
    assert echoed.throughput == plain.throughput
