"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bytefs" in out
    assert "varmail" in out
    assert "ycsb-a" in out


def test_run_micro(capsys):
    assert main(["run", "--fs", "bytefs", "--workload", "mkdir"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "mkdir" in out


def test_run_ycsb(capsys):
    assert main(["run", "--fs", "ext4", "--workload", "ycsb-c"]) == 0
    out = capsys.readouterr().out
    assert "read" in out


def test_compare(capsys):
    assert main(
        ["compare", "--workload", "create", "--systems", "ext4,bytefs"]
    ) == 0
    out = capsys.readouterr().out
    assert "vs ext4" in out


def test_unknown_workload():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "nonsense"])


def test_unknown_fs_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--fs", "ntfs"])


def test_run_json_echoes_seed_and_config(capsys):
    assert main(
        ["run", "--fs", "bytefs", "--workload", "mkdir", "--format=json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 42
    assert doc["config"]["workload"] == "mkdir"
    assert doc["config"]["log_bytes"] == 1 << 20


@pytest.mark.parametrize("size", ["-5", "-4K", " 12x "])
def test_bad_devcache_size_is_a_usage_error(size, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workload", "mkdir", f"--devcache={size}"])
    assert exc.value.code == 2
    assert f"invalid size {size!r}" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# repro serve
# ---------------------------------------------------------------------- #

_SERVE = ["serve", "--tenants", "2", "--ops", "10"]


def test_serve_text(capsys):
    assert main(_SERVE + ["--sched", "drr"]) == 0
    out = capsys.readouterr().out
    assert "tn0-mixed" in out
    assert "tn1-light" in out
    assert "p99 us" in out
    assert "total:" in out


def test_serve_json_is_valid_and_deterministic(capsys):
    from repro.cluster import validate_cluster_run

    assert main(_SERVE + ["--format=json"]) == 0
    first = capsys.readouterr().out
    assert main(_SERVE + ["--format=json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert validate_cluster_run(doc) == []
    assert doc["schema"] == "repro.cluster.run/v2"
    assert doc["seed"] == 42
    assert {t["spec"]["name"] for t in doc["tenants"]} == {
        "tn0-mixed", "tn1-light",
    }


def test_serve_every_policy_and_multi_device(capsys):
    for sched in ("fifo", "drr", "token-bucket"):
        argv = _SERVE + ["--sched", sched, "--devices", "2", "--format=json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scheduler"]["policy"] == sched
        assert len(doc["devices"]) == 2


def test_serve_out_writes_document(tmp_path, capsys):
    path = tmp_path / "cluster.json"
    assert main(_SERVE + ["--out", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro.cluster.run/v2"


def test_serve_rejects_unknown_scheduler():
    with pytest.raises(SystemExit):
        main(["serve", "--sched", "deadline"])


def test_serve_with_fault_reports_recovery(tmp_path, capsys):
    path = tmp_path / "faulted.json"
    argv = _SERVE + ["--fault", "crash:dev0@ops=5", "--out", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "recovery: dev0" in out
    assert "oracle clean" in out
    doc = json.loads(path.read_text())
    assert doc["fault_plan"] == [
        {"device": 0, "at_s": None, "after_ops": 5, "torn": False}
    ]
    assert len(doc["recovery"]) == 1
    assert doc["recovery"][0]["oracle"]["clean"] is True


def test_serve_bad_fault_spec_is_a_usage_error(capsys):
    assert main(_SERVE + ["--fault", "nonsense"]) == 2
    assert "bad fault spec" in capsys.readouterr().err
    assert main(_SERVE + ["--fault", "crash:dev9@t=0.1"]) == 2
    assert "device 9" in capsys.readouterr().err
