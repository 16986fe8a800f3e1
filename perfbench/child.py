"""One benchmark execution in a fresh interpreter.

Usage (from the repository root)::

    python3 perfbench/child.py --workload varmail --seed 1 --trace 0 \
        --t-spawn <perf_counter stamp taken by the parent before spawning>

Runs one workload once and prints a single JSON report line: host-time
stamps relative to ``--t-spawn`` (``time.perf_counter`` reads the
system-wide monotonic clock, so parent and child stamps compare), the
digest of the simulated result document, the simulated figures, and the
output checks.  With ``--trace 1`` the layer wrappers are installed
before anything is built and the report adds per-layer figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    args = ap.parse_args()

    import layers
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = layers.LayerTracer()
        layers.install(tracer)
    run = WORKLOADS[args.workload]
    if tracer is not None and args.workload == "crashsweep":
        out = run(args.seed, after_replay=tracer.fold_stacks)
    else:
        out = run(args.seed)
    report = {}
    if tracer is not None:
        # Freeze the per-layer figures before the output checks call
        # into the stack again.
        tracer.fold_stacks()
        report["layers"] = _layer_report(tracer, out.region_s)
    if out.post is not None:
        out.post(out)
    doc = json.dumps(out.doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(doc.encode()).hexdigest()
    t_done = time.perf_counter()
    problems = out.check()
    report.update({
        "digest": digest,
        "wall_s": t_done - args.t_spawn,
        "setup_s": out.t_epoch - args.t_spawn,
        "measured_s": out.measured_s,
        "region_s": out.region_s,
        "ops": out.ops,
        "attempted": out.attempted,
        "failed": out.failed,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim": out.sim,
        "extra": out.extra,
        "problems": problems,
    })
    print(json.dumps(report))
    return 0


def _layer_report(tracer, region_s: float):
    calls = dict(tracer.calls)
    self_s = dict(tracer.self_s)
    self_s["unattributed"] = region_s - sum(tracer.self_s.values())
    g = tracer.gauges
    lookups = g["page_cache_hits"] + g["page_cache_misses"]
    demand = g["devcache_hits"] + g["devcache_misses"]
    return {
        "calls": calls,
        "self_s": self_s,
        "share": {k: v / region_s for k, v in self_s.items()},
        "counters": {
            "host.page_cache.hit_ratio":
                g["page_cache_hits"] / lookups if lookups else 0.0,
            "ssd.device.write_blocks_pages_per_call":
                tracer.write_blocks_pages / tracer.write_blocks_calls
                if tracer.write_blocks_calls else 0.0,
            "ssd.firmware.log_cleanings": g["fw_log_cleanings"],
            "devcache.hit_rate":
                g["devcache_hits"] / demand if demand else 0.0,
            "devcache.prefetch_accuracy":
                g["devcache_prefetch_hits"] / g["devcache_prefetch_issued"]
                if g["devcache_prefetch_issued"] else 0.0,
            "ftl.gc_runs": g["gc_runs"],
            "nand.pages_written": g["nand_writes"],
            "nand.erases": g["nand_erases"],
        },
    }


if __name__ == "__main__":
    sys.exit(main())
