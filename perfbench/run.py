"""Benchmark runner: one workload, repeated in fresh interpreters.

Usage, from the repository root::

    python3 perfbench/run.py --workload varmail --seed 1 --seconds 30 --trace 0

Workloads: ``varmail``, ``serve``, ``mmap-devcache``, ``crashsweep``
(see ``perfbench/workloads.py`` and ``BENCHMARK.json``).  Each repeat
is a fresh ``python3 perfbench/child.py`` process that runs the
workload once with the given seed, so interpreter start, ``import
repro`` and stack build are inside the measurement.  Repeats continue
until ``--seconds`` is spent (at least three), and host figures are
medians over them.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repeats and prints every
per-layer metric: call counts, self time and share of each layer (see
``perfbench/layers.py``), counters read from the library's public
surfaces, and the tracing overhead.

Every run checks the program's outputs: the per-workload checks in
``workloads.py``, a simulated-result digest that must be identical over
all repeats (traced or not), and, with tracing, the bypass predictions
below.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("varmail", "serve", "mmap-devcache", "crashsweep")
MIN_REPEATS = 3
#: a repeat that runs longer than this is a hung simulation
CHILD_TIMEOUT_S = 150

#: Layers that must do no work outside the workload built for them.
EXCLUSIVE = {
    "devcache": "mmap-devcache",
    "host.mmap": "mmap-devcache",
    "cluster.kernel": "serve",
    "cluster.sched": "serve",
    "cluster.tenant": "serve",
    "faults.oracle": "crashsweep",
    "faults.recovery": "crashsweep",
}
#: The workload on which each remaining layer must be busy.
HOME = {
    "fs": "varmail",
    "host.page_cache": "serve",
    "interconnect": "varmail",
    "ssd.device": "varmail",
    "ssd.firmware": "varmail",
    "ftl": "varmail",
    "nand": "varmail",
    "sim": "varmail",
    "stats": "varmail",
    "core.build_stack": "crashsweep",
    **EXCLUSIVE,
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: tells a slower host apart
    from slower code.  Reported beside the metrics, not as one."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def spawn(workload: str, seed: int, trace: int) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_TRACE", None)  # the library's own tracer stays off
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} repeat exited with code {proc.returncode}"
        )
    report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    report["elapsed_s"] = time.perf_counter() - t_spawn
    return report


def run_repeats(workload: str, seed: int, seconds: float, traced: bool):
    """Repeat until ``seconds`` are spent; with ``traced``, alternate an
    untraced and a traced repeat (one pair at least)."""
    plain, tr = [], []
    t0 = time.perf_counter()
    while True:
        plain.append(spawn(workload, seed, 0))
        if traced:
            tr.append(spawn(workload, seed, 1))
        done = len(tr) >= 1 if traced else len(plain) >= MIN_REPEATS
        step = statistics.median(
            a["elapsed_s"] + (b["elapsed_s"] if traced else 0.0)
            for a, b in zip(plain, tr if traced else plain)
        )
        if done and time.perf_counter() - t0 + step > seconds:
            return plain, tr


def median(reports, key):
    return statistics.median(r[key] for r in reports)


def end_to_end(plain) -> dict:
    sim = plain[0]["sim"]
    return {
        "wall_s": median(plain, "wall_s"),
        "setup_s": median(plain, "setup_s"),
        "ops_per_s": statistics.median(
            r["ops"] / r["measured_s"] for r in plain),
        "peak_rss_mb": median(plain, "peak_rss_mb"),
        "sim_kops_per_s": sim["sim_kops_per_s"],
        "sim_mean_us": sim["sim_mean_us"],
        "sim_p99_us": sim["sim_p99_us"],
        "flash_wa": sim["flash_wa"],
    }


def per_layer(plain, tr) -> dict:
    out = {}
    layers = tr[0]["layers"]
    for name in layers["calls"]:
        out[f"{name}.calls"] = statistics.median_low(
            r["layers"]["calls"][name] for r in tr)
    for kind in ("self_s", "share"):
        for name in layers[kind]:
            out[f"{name}.{kind}"] = statistics.median(
                r["layers"][kind][name] for r in tr)
    for name in layers["counters"]:
        out[name] = statistics.median(
            r["layers"]["counters"][name] for r in tr)
    out["trace.overhead"] = (
        median(tr, "region_s") / median(plain, "region_s") - 1.0
    )
    return out


def bypass_problems(workload: str, metrics: dict):
    problems = []
    for layer, home in HOME.items():
        calls = metrics[f"{layer}.calls"]
        if workload == home and calls == 0:
            problems.append(f"{layer} did no work on its own workload")
        if EXCLUSIVE.get(layer, workload) != workload and calls != 0:
            problems.append(f"{layer} made {calls} calls outside {home}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    probe_s = calibrate()
    plain, tr = run_repeats(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    everyone = plain + tr
    problems = [p for r in everyone for p in r["problems"]]
    digests = {r["digest"] for r in everyone}
    if len(digests) != 1:
        problems.append(f"simulated results differ across repeats: "
                        f"{sorted(d[:12] for d in digests)}")
    values = per_layer(plain, tr) if args.trace else end_to_end(plain)
    if args.trace:
        problems += bypass_problems(args.workload, values)

    first = plain[0]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(tr)} traced fresh-interpreter "
          f"repeats")
    print(f"host probe: {probe_s:.4f} s for a fixed pure-Python loop "
          "(host speed anchor, not a metric)")
    sim = first["sim"]
    for m in wanted:
        note = f"median of {len(tr if args.trace else plain)} repeats"
        if m["name"] in ("sim_mean_us", "sim_p99_us"):
            note = f"simulated, {sim['latency_samples']} latency samples"
        elif m["name"] == "sim_kops_per_s":
            note = f"simulated, {sim['sim_ops']} ops"
        elif m["name"] == "flash_wa":
            note = (f"{sim['flash_bytes']} flash bytes / "
                    f"{sim['user_bytes']} user bytes")
        elif m["name"] == "ops_per_s":
            note += f", {first['ops']} ops each"
        print(f"  {m['name']:<42} {values[m['name']]:>14.6g} "
              f"{m['unit']:<8} {note}")
    if not args.trace:
        # The median repeats exactly across seeds on most workloads (most
        # ops share one simulated latency), so it is printed, not gated.
        print(f"  {'sim_p50_us':<42} {sim['sim_p50_us']:>14.6g} "
              f"{'us':<8} simulated, not gated")
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    print(f"  failed_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} attempted)")
    for key, val in sorted(first["extra"].items()):
        if val:
            print(f"  {key} {val}")
    print(f"simulated digest {first['digest'][:16]} over "
          f"{len(everyone)} repeats; "
          + ("; ".join(problems) if problems else "all checks passed"))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
