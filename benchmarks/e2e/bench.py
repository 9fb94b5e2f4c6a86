#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/e2e/bench.py run --workload <name> --seed <n> \
        [--seconds <s>] [--trace 0|1]
    python3 benchmarks/e2e/bench.py suite --out A.json
    python3 benchmarks/e2e/bench.py compare A.json B.json
    python3 benchmarks/e2e/bench.py agree --sets 2 [--first A.json] --out C.json

``run`` builds its inputs from ``--seed``, sets up, runs a time-boxed closed
loop with tracing off, verifies every unit against the float64 serial
reference and prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and every end-to-end metric with its
unit.  ``--trace 1`` makes the separate traced run that prints the layer
overhead table and every per-layer metric instead.  Metric names, units,
bounds and workloads are fixed in ``BENCHMARK.json`` at the repo root; see
``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import measure
import report
from spec import import_program, load_spec

#: Set-up is repeated this many times per run and the median reported, so
#: one cold import or page-cache miss does not decide ``setup_s``.
SETUP_REPEATS = 3


def _untraced(workload, seconds: float):
    from workloads import timing_sample

    setup_s = []
    for _ in range(SETUP_REPEATS):
        workload.teardown()
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
    try:
        window = workload.run_window(seconds)
        # Read before the reference is computed: the float64 reference
        # kernel would otherwise set the driver's high-water mark.
        peak_rss_mb = measure.driver_maxrss_mb() + window.children_hwm_mb
    finally:
        workload.teardown()
    if not window.fresh:
        for unit in window.units:
            print(unit.error, file=sys.stderr)
        sys.exit("bench: no unit finished; nothing was measured")
    done = sum(u.error is None for u in window.units)
    sample, wall, cpu, fresh = timing_sample(workload, window)
    gen_walls = [w for u in sample for w in u.gen_walls]
    print(
        f"# window: units={done} fresh_candidates={window.fresh} "
        f"wall_s={window.wall:.3f} rate={window.fresh / window.wall / workload.cores:.2f}/s/core"
    )
    print(
        f"# samples: units={len(sample)} generations={len(gen_walls)} "
        f"fresh_candidates={fresh} setups={len(setup_s)} "
        f"cpu_ms_per_cand={1e3 * cpu / fresh:.3f} "
        f"({'each phase at its fastest repeat' if workload.report_fastest_unit else 'whole window'})"
    )
    metrics = {
        "setup_s": statistics.median(setup_s),
        "cand_per_s_per_core": fresh / wall / workload.cores,
        "gen_wall_ms_mean": 1e3 * statistics.fmean(gen_walls),
        "peak_rss_mb": peak_rss_mb,
        "job_latency_s_mean": statistics.fmean(u.end - u.start for u in sample),
        "jobs_per_min": 60.0 * len(sample) / wall,
    }
    return window.units, metrics


def _traced(workload, seconds: float, trace_out: str | None):
    from repro.telemetry import MetricsRegistry

    import ladder

    # Two half windows on the same unit seeds: tracing off, then on.  Their
    # rate ratio is the tracing overhead.
    workload.setup()
    try:
        untraced = workload.run_window(seconds / 2)
    finally:
        workload.teardown()
    registry = MetricsRegistry()
    recorder = ladder.Recorder()
    extra: dict[str, float] = {}
    workload.setup(telemetry=registry, recorder=recorder)
    try:
        traced = workload.run_window(seconds / 2)
        if "service" in workload.layers:
            # Jobs run inside the service, out of the proxy's reach; the
            # same campaigns on a bare FabricClient give both the recorded
            # batches for the lower rungs and the base of the service tax.
            bare = ladder.bare_fabric_campaigns(workload, recorder)
            extra = ladder.service_observations(workload, traced, bare)
    finally:
        workload.teardown()
    if "service" in workload.layers:
        extra.update(ladder.two_client_coalescing(workload))
    units = untraced.units + traced.units
    if not untraced.fresh or not traced.fresh:
        sys.exit("bench: no unit finished; nothing was measured")
    recorded = recorder.units()
    replayed = ladder.replay_ladder(workload, recorded)
    metrics = ladder.layer_metrics(
        workload,
        replayed,
        untraced=untraced,
        traced=traced,
        registry=registry,
        gen_walls=[w for u in units if u.error is None for w in u.gen_walls],
        extra=extra,
    )
    ladder.check_ladder(workload, recorded)
    print(ladder.overhead_table(workload, metrics))
    print(
        f"# samples: replayed_units={len(replayed)} "
        f"replayed_fresh_candidates={sum(int(t['fresh']) for t in replayed)} "
        f"spans={len(recorder.spans)}"
    )
    if trace_out:
        recorder.dump(trace_out)
    return units, metrics


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"bench: unknown workload {args.workload!r}")
    seconds = float(args.seconds if args.seconds is not None else spec["run_seconds"])
    import_program()
    from workloads import WORKERS, count_failed, make_workload

    workload = make_workload(args.workload, args.seed)
    workload.corrupt = args.corrupt_reference
    print(
        f"# {workload.name} seed={args.seed} measure_s={seconds:g} "
        f"trace={int(args.trace)} cores={workload.cores} workers={WORKERS}"
    )
    if args.trace:
        declared = spec["per_layer"]
        units, metrics = _traced(workload, seconds, args.trace_out)
    else:
        declared = spec["end_to_end"]
        units, metrics = _untraced(workload, seconds)
    failed = count_failed(workload, units)
    print(
        f"# verify_ok={int(failed == 0)} failed_share={failed}/{len(units)} "
        "(reference: serial provider on the float64 ChunkedNumpyKernel)"
    )
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        # Per-layer metrics of layers off this workload's path read 0: the
        # contract wants every declared name on every workload.
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure one workload")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help="measurement window (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    run.add_argument("--trace-out", default=None,
                     help="write the recorded spans here when the traced run ends")
    run.add_argument("--corrupt-reference", action="store_true",
                     help=argparse.SUPPRESS)  # the correctness gate's self-test
    run.set_defaults(func=cmd_run)

    report.add_parsers(sub)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    finally:
        # No process of ours may outlive the run, on any path out of it.
        measure.stop_children()


if __name__ == "__main__":
    sys.exit(main())
