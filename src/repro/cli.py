"""Command-line interface: run workloads and regenerate figures.

Usage::

    python -m repro list
    python -m repro run --fs bytefs --workload varmail
    python -m repro run --fs ext4 --workload ycsb-a
    python -m repro compare --workload create
    python -m repro crashsweep --fs bytefs --max-sites 100
    python -m repro crashsweep --fs ext4 --site 42 --torn
    python -m repro serve --tenants 4 --fault crash:dev0@ops=50 \\
        --out run.json --telemetry-out series.jsonl
    python -m repro top run.json --series series.jsonl
    python -m repro lint
    python -m repro lint src/repro/fs --format=json
    python -m repro trace create --ssd bytefs --out trace.json
    python -m repro trace varmail --out trace.jsonl --format=jsonl \\
        --report critical-path
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional

from repro.bench.harness import run_workload
from repro.bench.report import format_table, normalize
from repro.core.bytefs import FIRMWARE_FOR
from repro.devcache import DevCacheConfig
from repro.workloads import MACRO_WORKLOADS, MICRO_WORKLOADS, YCSB
from repro.workloads.base import Workload

#: --evict choices (hardcoded: the CLI is host code and may only import
#: *Config names from the device-internal repro.devcache package)
EVICT_CHOICES = ("lru", "clock", "hotcold")


def _parse_size(text: str) -> int:
    """Parse a byte size: plain int or k/m/g suffix (``4m`` = 4 MiB)."""
    digits = text.strip().lower()
    factor = 1
    if digits and digits[-1] in "kmg":
        factor = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[digits[-1]]
        digits = digits[:-1]
    try:
        size = int(digits) * factor
    except ValueError:
        size = -1
    if size < 0:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (expected a non-negative byte count, "
            "e.g. 1048576, 256k, 4m)"
        )
    return size


def _add_devcache_args(p) -> None:
    p.add_argument(
        "--devcache", type=_parse_size, default=0, metavar="SIZE",
        help="device-DRAM page-frame cache between firmware and flash "
        "(bytes, k/m/g suffixes ok; 0 = disabled, the default)",
    )
    p.add_argument(
        "--evict", choices=EVICT_CHOICES, default="lru",
        help="devcache eviction policy (default lru)",
    )
    p.add_argument(
        "--prefetch", choices=("on", "off"), default="off",
        help="devcache speculative stride prefetcher (default off)",
    )


def _devcache_config(args) -> Optional[DevCacheConfig]:
    """The DevCacheConfig the --devcache/--evict/--prefetch flags ask
    for, or None when the cache is disabled."""
    if not args.devcache:
        return None
    return DevCacheConfig(
        cache_bytes=args.devcache,
        policy=args.evict,
        prefetch=args.prefetch == "on",
    )


def _make_workload(name: str) -> Workload:
    name = name.lower()
    if name in MICRO_WORKLOADS:
        return MICRO_WORKLOADS[name]()
    if name in MACRO_WORKLOADS:
        return MACRO_WORKLOADS[name]()
    if name.startswith("ycsb-"):
        return YCSB(name.split("-", 1)[1].upper(), n_records=600,
                    n_ops=600, n_threads=4, value_size=400)
    raise SystemExit(f"unknown workload {name!r}; try `repro list`")


def _cmd_list(_args) -> int:
    print("file systems :", ", ".join(sorted(FIRMWARE_FOR)))
    print("micro        :", ", ".join(sorted(MICRO_WORKLOADS)))
    print("macro        :", ", ".join(sorted(MACRO_WORKLOADS)))
    print("ycsb         :", ", ".join(f"ycsb-{x}" for x in "abcdef"))
    return 0


def _cmd_run(args) -> int:
    wl = _make_workload(args.workload)
    devcache = _devcache_config(args)
    config_echo = {
        "workload": args.workload,
        "log_bytes": args.log_bytes,
        "device_cache_bytes": args.device_cache_bytes,
    }
    if devcache is not None:
        # Echoed only when enabled so cache-off documents stay
        # byte-identical to pre-devcache ones.
        config_echo["devcache"] = {
            "cache_bytes": devcache.cache_bytes,
            "policy": devcache.policy,
            "prefetch": devcache.prefetch,
        }
    result = run_workload(
        args.fs, wl,
        log_bytes=args.log_bytes,
        device_cache_bytes=args.device_cache_bytes,
        devcache=devcache,
        # Reproducibility echo: the JSON document carries the resolved
        # seed and the harness knobs that produced it.
        config_echo=config_echo,
    )
    if args.format == "json":
        print(json.dumps(result.to_json(), sort_keys=True, indent=2))
        return 0
    rows = [
        ("throughput (ops/s)", result.throughput),
        ("simulated time (ms)", result.elapsed_s * 1000),
        ("write amplification", result.write_amplification),
        ("host writes (KB)", result.host_write / 1024),
        ("host reads (KB)", result.host_read / 1024),
        ("byte-interface writes (KB)", result.byte_write / 1024),
        ("flash writes (KB)", result.flash_write / 1024),
    ]
    print(format_table(
        f"{args.workload} on {args.fs}", ["metric", "value"], rows,
        col_width=28,
    ))
    for op in result.latency.ops():
        print(
            f"  {op:<16} n={result.latency.count(op):<6} "
            f"avg={result.latency.mean(op) / 1000:8.1f}us "
            f"p95={result.latency.percentile(op, 95) / 1000:8.1f}us"
        )
    return 0


def _cmd_serve(args) -> int:
    from repro.cluster import (
        ALL_OPS,
        default_tenants,
        serve_cluster,
        validate_cluster_run,
    )
    from repro.faults import parse_fault

    tenants = default_tenants(args.tenants, n_ops=args.ops)
    telemetry_on = args.telemetry_out is not None or args.listen is not None
    try:
        faults = [parse_fault(spec) for spec in (args.fault or ())]
        result = serve_cluster(
            tenants,
            fs_name=args.fs,
            n_devices=args.devices,
            sched=args.sched,
            seed=args.seed,
            queue_depth=args.queue_depth,
            max_queue=args.max_queue,
            quantum_ns=args.quantum_ns,
            devcache=_devcache_config(args),
            faults=faults,
            outage_policy=args.outage_policy,
            sample_every_ns=args.sample_ns if telemetry_on else None,
            workers=args.workers,
        )
    except ValueError as exc:
        # bad --fault spec / fault plan (device out of range, duplicate
        # device, unmirrorable workload): a usage error, not a crash
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    doc = result.to_json()
    problems = validate_cluster_run(doc)
    if problems:  # pragma: no cover - harness bug guard
        for p in problems:
            print(f"schema error: {p}", file=sys.stderr)
        return 2
    # Oracle verdicts gate the exit code: a recovery that lost
    # acked-durable data is a failed run even though it produced a
    # well-formed document.
    dirty = [r for r in result.recovery if not r["oracle"]["clean"]]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.telemetry_out:
        from repro.telemetry import write_series

        n_rows = write_series(result.telemetry, args.telemetry_out)
        print(
            f"wrote {args.telemetry_out} ({n_rows} samples)",
            file=sys.stderr,
        )
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
        if args.listen is not None:
            _serve_metrics(result, args.listen)
        return 1 if dirty else 0
    rows = []
    for t in doc["tenants"]:
        lat = t["latency"].get(ALL_OPS) or {}
        rows.append((
            t["spec"]["name"],
            t["device"],
            t["ops"],
            t["rejected"],
            t["slo_violations"],
            (lat.get("p50") or 0.0) / 1000,
            (lat.get("p95") or 0.0) / 1000,
            (lat.get("p99") or 0.0) / 1000,
        ))
    print(format_table(
        f"{args.tenants} tenants on {args.devices}x {args.fs} "
        f"({args.sched})",
        ["tenant", "dev", "ops", "rej", "slo!", "p50 us", "p95 us",
         "p99 us"],
        rows,
        col_width=16,
    ))
    print(
        f"  total: {doc['ops']} ops in {doc['elapsed_s'] * 1000:.2f} ms "
        f"simulated, {doc['slo_violations']} SLO violations, "
        f"{doc['rejected']} rejected"
        + (
            f", {doc['lost_to_crash']} lost to crash"
            if doc["lost_to_crash"] else ""
        )
    )
    # result.recovery keeps the measured wall_s; the JSON document nulls
    # it so identical invocations stay byte-identical.
    for rec in result.recovery:
        oc = rec["oracle"]
        verdict = (
            "clean" if oc["clean"]
            else f"VIOLATED ({sum(len(v) for v in oc['errors'].values())})"
        )
        fired = rec["fired"]
        print(
            f"  recovery: dev{rec['device']} down at "
            f"{rec['t_down_ns'] / 1e6:.3f} ms "
            f"({'mid-' + fired['label'] if fired else 'between ops'}"
            f"{', torn' if fired and fired['torn_bytes'] else ''}), "
            f"back at {rec['t_up_ns'] / 1e6:.3f} ms "
            f"(+{rec['virtual_ns'] / 1e6:.3f} ms virtual, "
            f"wall {rec['wall_s'] * 1e3:.1f} ms), "
            f"oracle {verdict} over {len(oc['checked'])} tenant(s)"
        )
    if args.listen is not None:
        _serve_metrics(result, args.listen)
    return 1 if dirty else 0


def _serve_metrics(result, port: int) -> None:
    """Block on a /metrics + /healthz endpoint over the run's telemetry."""
    from repro.telemetry import make_server, render_prometheus

    srv = make_server(
        lambda: render_prometheus(result.telemetry), port=port
    )
    host, bound = srv.server_address[:2]
    print(
        f"telemetry: http://{host}:{bound}/metrics and /healthz "
        "(Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        srv.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        srv.server_close()


def _cmd_top(args) -> int:
    from repro.telemetry import load_series, render_top, validate_series

    with open(args.result, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    series = None
    if args.series:
        series = load_series(args.series)
        problems = validate_series(series)
        if problems:
            for p in problems:
                print(f"series error: {p}", file=sys.stderr)
            return 2
    print(render_top(doc, series=series, top_n=args.top))
    return 0


def _cmd_compare(args) -> int:
    systems = args.systems.split(",")
    tput: Dict[str, float] = {}
    for fs in systems:
        wl = _make_workload(args.workload)
        tput[fs] = run_workload(fs, wl).throughput
    norm = normalize(tput, args.baseline)
    rows = [(fs, tput[fs] / 1000, norm[fs]) for fs in systems]
    print(format_table(
        f"{args.workload}: throughput comparison",
        ["fs", "kops/s", f"vs {args.baseline}"],
        rows,
    ))
    return 0


def _cmd_crashsweep(args) -> int:
    from repro.faults import SweepConfig, run_crash, run_sweep

    config = SweepConfig(
        fs_name=args.fs,
        seed=args.seed,
        max_sites=args.max_sites,
        torn=not args.no_torn,
    )
    if args.site is not None:
        # Reproduce a single crash point (e.g. from a failing sweep).
        result = run_crash(config, args.site, torn=args.torn)
        print(result.describe())
        return 0 if result.ok else 1
    report = run_sweep(config)
    print(report.summary())
    for label, n in sorted(report.label_histogram.items()):
        print(f"  {label:<24} {n}")
    for failure in report.failures:
        print(failure.describe())
    return 0 if report.ok else 1


def _cmd_trace(args) -> int:
    from repro.trace.export import (
        to_chrome_json,
        validate_chrome,
        write_chrome,
        write_jsonl,
    )
    from repro.trace.report import render_breakdown, render_critical_path

    wl = _make_workload(args.workload)
    result = run_workload(
        args.fs, wl,
        log_bytes=args.log_bytes,
        device_cache_bytes=args.device_cache_bytes,
        traced=True,
    )
    tracer = result.trace
    meta = {"fs": args.fs, "workload": args.workload}
    if args.out:
        if args.format == "jsonl":
            write_jsonl(tracer, args.out, meta)
        else:
            write_chrome(tracer, args.out, meta)
            problems = validate_chrome(to_chrome_json(tracer, meta))
            if problems:  # pragma: no cover - exporter bug guard
                for p in problems:
                    print(f"schema error: {p}", file=sys.stderr)
                return 1
        print(
            f"wrote {len(tracer.spans)} spans / {len(tracer.events)} events "
            f"to {args.out} ({args.format})"
        )
    if args.report == "breakdown":
        print(render_breakdown(tracer))
    elif args.report == "critical-path":
        print(render_critical_path(tracer))
    return 0


def _cmd_lint(args) -> int:
    import json as _json
    from pathlib import Path

    import repro
    from repro.analysis.baseline import (
        apply_baseline,
        load_baseline,
        render_baseline,
    )
    from repro.analysis.linter import lint_paths, render_json, render_text
    from repro.analysis.sarif import render_sarif

    paths = [Path(p) for p in args.paths] if args.paths else [
        Path(repro.__file__).parent
    ]
    rules = [r.strip() for r in args.rules.split(",")] if args.rules else []
    try:
        result = lint_paths(
            paths, rules, honor_suppressions=not args.no_suppressions
        )
    except ValueError as exc:
        raise SystemExit(str(exc))

    if args.coverage_out:
        if result.coverage is None:
            raise SystemExit(
                "--coverage-out requires the CS001/CS002 passes to run "
                "(drop --rules or include them)"
            )
        Path(args.coverage_out).write_text(
            _json.dumps(result.coverage, indent=2) + "\n", encoding="utf-8"
        )

    if args.update_baseline:
        if not args.baseline:
            raise SystemExit("--update-baseline requires --baseline PATH")
        Path(args.baseline).write_text(
            render_baseline(result.findings), encoding="utf-8"
        )
        print(
            f"wrote {len(result.findings)} baselined finding(s) "
            f"to {args.baseline}"
        )
        return 0
    if args.baseline:
        try:
            apply_baseline(result, load_baseline(Path(args.baseline)))
        except ValueError as exc:
            raise SystemExit(str(exc))

    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return result.exit_code


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ByteFS (ASPLOS'25) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list file systems and workloads")

    run_p = sub.add_parser("run", help="run one workload on one fs")
    run_p.add_argument("--fs", default="bytefs", choices=sorted(FIRMWARE_FOR))
    run_p.add_argument("--workload", default="varmail")
    run_p.add_argument("--log-bytes", type=int, default=1 << 20)
    run_p.add_argument("--device-cache-bytes", type=int, default=1 << 20)
    _add_devcache_args(run_p)
    run_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json: machine-readable run report (RunResult.to_json)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="multi-tenant serving run with QoS scheduling (repro.cluster)",
    )
    serve_p.add_argument(
        "--tenants", type=int, default=4,
        help="number of tenants (profiles cycle mixed/light/heavy/light)",
    )
    serve_p.add_argument(
        "--sched", default="drr", choices=("fifo", "drr", "token-bucket"),
        help="I/O scheduling policy arbitrating tenants per device",
    )
    serve_p.add_argument(
        "--devices", type=int, default=1,
        help="number of sharded M-SSD devices",
    )
    serve_p.add_argument(
        "--fs", default="bytefs", choices=sorted(FIRMWARE_FOR),
    )
    serve_p.add_argument("--seed", type=int, default=42)
    serve_p.add_argument(
        "--ops", type=int, default=200,
        help="requests submitted per tenant during the measured phase",
    )
    serve_p.add_argument(
        "--queue-depth", type=int, default=4,
        help="device submission-queue slots (concurrent in-flight ops)",
    )
    serve_p.add_argument(
        "--max-queue", type=int, default=64,
        help="per-tenant backlog cap; arrivals beyond it are rejected",
    )
    serve_p.add_argument(
        "--quantum-ns", type=float, default=None,
        help="DRR service quantum per weight unit (default 500us)",
    )
    _add_devcache_args(serve_p)
    serve_p.add_argument(
        "--fault", action="append", default=None, metavar="SPEC",
        help="crash and recover a device mid-run: 'crash:dev<k>@t=<s>' "
        "(virtual seconds after epoch start) or 'crash:dev<k>@ops=<n>' "
        "(after n dispatched requests), optional '+torn' suffix for a "
        "torn in-flight write; repeatable, at most one per device",
    )
    serve_p.add_argument(
        "--outage-policy", choices=("requeue", "reject"), default="requeue",
        help="arrivals landing while a device is down: wait for recovery "
        "(requeue, default) or count as rejected",
    )
    serve_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json: the repro.cluster.run/v2 document",
    )
    serve_p.add_argument(
        "--out", default=None,
        help="also write the JSON document to this path",
    )
    serve_p.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="sample live telemetry during the run and write the "
        "repro.telemetry.series/v1 JSONL to this path",
    )
    serve_p.add_argument(
        "--sample-ns", type=float, default=1_000_000,
        help="telemetry sampling interval in virtual ns (default 1ms)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="serve device shards in N worker processes and merge the "
        "fragments deterministically (byte-identical to the serial "
        "run); 0 (default) = in-process serial",
    )
    serve_p.add_argument(
        "--listen", type=int, default=None, metavar="PORT",
        help="after the run, serve Prometheus /metrics (+ /healthz) on "
        "127.0.0.1:PORT until interrupted (0 = ephemeral port)",
    )

    top_p = sub.add_parser(
        "top",
        help="terminal report over a serve result (+ telemetry series)",
    )
    top_p.add_argument(
        "result",
        help="repro.cluster.run JSON document (repro serve --out)",
    )
    top_p.add_argument(
        "--series", default=None, metavar="PATH",
        help="repro.telemetry.series/v1 JSONL (repro serve "
        "--telemetry-out) for timelines, GC storms, and outage windows",
    )
    top_p.add_argument(
        "--top", type=int, default=5,
        help="tenants per ranking table (default 5)",
    )

    tr_p = sub.add_parser(
        "trace",
        help="run one workload with span tracing and export the trace",
    )
    tr_p.add_argument("workload", help="workload name (see `repro list`)")
    tr_p.add_argument(
        "--fs", "--ssd", dest="fs", default="bytefs",
        choices=sorted(FIRMWARE_FOR),
    )
    tr_p.add_argument(
        "--out", default=None,
        help="output path; format chosen by --format",
    )
    tr_p.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="chrome: Perfetto-loadable trace_event JSON; "
             "jsonl: one span/event per line",
    )
    tr_p.add_argument(
        "--report", choices=("breakdown", "critical-path", "none"),
        default="breakdown",
        help="latency-attribution report printed after the run",
    )
    tr_p.add_argument("--log-bytes", type=int, default=1 << 20)
    tr_p.add_argument("--device-cache-bytes", type=int, default=1 << 20)

    cmp_p = sub.add_parser("compare", help="compare systems on a workload")
    cmp_p.add_argument("--workload", default="create")
    cmp_p.add_argument(
        "--systems", default="ext4,f2fs,nova,pmfs,bytefs"
    )
    cmp_p.add_argument("--baseline", default="ext4")

    cs_p = sub.add_parser(
        "crashsweep",
        help="crash-point sweep with oracle-checked recovery",
    )
    cs_p.add_argument("--fs", default="bytefs", choices=sorted(FIRMWARE_FOR))
    cs_p.add_argument("--seed", type=int, default=0)
    cs_p.add_argument(
        "--max-sites", type=int, default=None,
        help="replay at most N sites (evenly spaced); default: all",
    )
    cs_p.add_argument(
        "--no-torn", action="store_true",
        help="skip torn-write variants during a sweep",
    )
    cs_p.add_argument(
        "--site", type=int, default=None,
        help="replay a single crash site instead of sweeping",
    )
    cs_p.add_argument(
        "--torn", action="store_true",
        help="with --site: inject the torn-write variant",
    )

    lint_p = sub.add_parser(
        "lint",
        help="static-analysis passes (crash-site, determinism, layering)",
    )
    lint_p.add_argument(
        "paths", nargs="*",
        help="files or directories to lint; default: installed repro pkg",
    )
    lint_p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
    )
    lint_p.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint_p.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="grandfather findings listed in this baseline file; only "
             "new findings fail the run",
    )
    lint_p.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline PATH from the current findings and "
             "exit 0",
    )
    lint_p.add_argument(
        "--coverage-out", default=None, metavar="PATH",
        help="write the repro.lint.coverage/v1 crash-site coverage map "
             "(per mutation primitive: guarded sites + unguarded chains)",
    )
    lint_p.add_argument(
        "--no-suppressions", action="store_true",
        help="ignore every `# repro: allow[...]` comment (self-check "
             "mode)",
    )

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "compare": _cmd_compare,
        "crashsweep": _cmd_crashsweep,
        "lint": _cmd_lint,
        "trace": _cmd_trace,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Reports like `repro top | head` close the pipe early; exit
        # quietly instead of tracebacking.  stdout is left unflushable,
        # so detach it from the interpreter-exit flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
