"""Top-level CLI: ``python -m repro <command>``.

Commands
--------
design      run InSiPS against a target and print/save the design
profiles    list the scale profiles
evaluate    measure PIPE prediction accuracy on a world (ROC / FPR)
stats       run an instrumented design and report runtime telemetry
serve       run the multi-tenant design service over a job directory
jobs        submit/inspect/cancel design jobs (file control plane)
experiments shortcut to ``python -m repro.experiments``
"""

from __future__ import annotations

import argparse
import os
import sys


def _validate_run_args(args: argparse.Namespace) -> int | None:
    """Boundary validation of user-typed numbers, *before* any worker
    process is spawned or world built.  Returns an exit code (2) with an
    actionable message on bad input, None when everything checks out."""
    from repro.util.validation import check_int_range, check_positive

    try:
        check_int_range(args.seed, "--seed", lo=0)
        check_int_range(args.generations, "--generations", lo=1)
        if getattr(args, "workers", 0):
            check_int_range(args.workers, "--workers", lo=0, hi=256)
        if getattr(args, "checkpoint_every", None) is not None:
            check_int_range(args.checkpoint_every, "--checkpoint-every", lo=1)
        if getattr(args, "deadline_s", None) is not None:
            check_positive(args.deadline_s, "--deadline-s")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return None


def _check_backend_flags(args: argparse.Namespace, backend: str) -> int | None:
    """Reject flags that only apply to the process backend.

    The CLI used to forward shared-memory/degradation flags only when
    ``--backend process`` was chosen and silently drop them otherwise —
    ``--no-shm --backend fabric`` ran happily, flag ignored.  Now every
    ignored flag is named with exit code 2.
    """
    offending = []
    if backend != "process":
        if getattr(args, "no_shm", False):
            offending.append("--no-shm")
        if getattr(args, "fail_fast", None) is not None:
            offending.append("--fail-fast" if args.fail_fast else "--degrade")
    if offending:
        print(
            f"error: {', '.join(offending)} only apply to the process "
            f"backend, not --backend {backend}",
            file=sys.stderr,
        )
        return 2
    return None


def _cmd_design(args: argparse.Namespace) -> int:
    from repro import InhibitorDesigner, get_profile
    from repro.analysis.specificity import specificity_scan
    from repro.io import save_design_result
    from repro.telemetry import MetricsRegistry, export_jsonl, summary

    bad = _validate_run_args(args)
    if bad is not None:
        return bad
    registry = MetricsRegistry() if args.telemetry else None
    checkpoint = None
    resume_from = None
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_dir:
        from repro.checkpoint import CheckpointManager, find_latest

        checkpoint = CheckpointManager(
            args.checkpoint_dir,
            every=args.checkpoint_every,
            telemetry=registry,
        )
        if args.resume:
            latest = find_latest(args.checkpoint_dir)
            if latest is None:
                print(
                    f"error: --resume: no snapshot in {args.checkpoint_dir}",
                    file=sys.stderr,
                )
                return 2
            # Resume from the *directory*, not the resolved file: directory
            # mode quarantines a corrupt newest snapshot and walks back to
            # the previous valid one; file mode is deliberately strict.
            resume_from = args.checkpoint_dir
            print(f"resuming from {latest}")
    provider_factory = None
    fabrics = []
    backend = args.backend
    if backend == "serial" and args.workers:
        backend = "process"  # bare --workers keeps its pre---backend meaning
    bad = _check_backend_flags(args, backend)
    if bad is not None:
        return bad
    if backend != "serial":
        from repro.providers import make_score_provider

        def provider_factory(engine, target, non_targets):
            if backend == "fabric":
                from repro.fabric import ScoringFabric

                fabric = ScoringFabric(
                    engine,
                    num_workers=args.workers or None,
                    telemetry=registry,
                )
                fabrics.append(fabric)
                return make_score_provider(
                    fabric,
                    target,
                    non_targets,
                    backend="fabric",
                    telemetry=registry,
                )
            extra = {}
            if args.fail_fast is not None:
                extra["fail_fast"] = args.fail_fast
            return make_score_provider(
                engine,
                target,
                non_targets,
                backend="process",
                workers=args.workers or None,
                telemetry=registry,
                share_memory=not args.no_shm,
                **extra,
            )

    designer = InhibitorDesigner.from_profile(
        get_profile(args.profile),
        seed=args.seed,
        telemetry=registry,
        provider_factory=provider_factory,
    )
    result = designer.design(
        args.target,
        seed=args.seed + 1,
        termination=args.generations,
        checkpoint=checkpoint,
        resume_from=resume_from,
        deadline=args.deadline_s,
    )
    for fabric in fabrics:
        fabric.close()
    profile = result.inhibition_profile()
    print(f"designed anti-{args.target}: fitness {result.fitness:.4f}")
    if not result.completed:
        print(
            f"  (stopped early: {result.stop_reason} after "
            f"{result.generations} generations — resume with "
            "--checkpoint-dir/--resume)"
        )
    print(f"  PIPE(target)       {profile.target_score:.4f}")
    print(f"  max off-target     {profile.max_off_target_score:.4f}")
    print(f"  avg off-target     {profile.avg_off_target_score:.4f}")
    if args.scan:
        report = specificity_scan(
            designer.world.engine, result.best.encoded, args.target
        )
        print()
        print(report.top_table(args.scan))
        print(f"\ntarget rank in proteome: {report.rank_of_target()}")
    if args.out:
        save_design_result(result, args.out)
        print(f"\nsaved design to {args.out}")
    if registry is not None:
        lines = export_jsonl(registry, args.telemetry)
        print(f"\ntelemetry: {lines} records -> {args.telemetry}")
        print(summary(registry))
    print(f"\n>{result.designed_protein().name}")
    print(result.best.sequence)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run one instrumented design and report the runtime telemetry —
    PIPE kernel breakdown, per-generation GA stats, cache hit rate and
    (with ``--workers``) per-worker throughput/utilisation plus the
    fault-tolerance counters (deaths/respawns/retries/stale/failures)."""
    from repro import InhibitorDesigner, get_profile
    from repro.telemetry import MetricsRegistry, export_csv, export_jsonl, summary

    bad = _validate_run_args(args)
    if bad is not None:
        return bad
    registry = MetricsRegistry()
    profile = get_profile(args.profile)
    provider_factory = None
    runtimes = []  # one stats-tree reader per worker pool the run built
    fabrics = []
    backend = args.backend
    if backend == "serial" and args.workers:
        backend = "process"
    bad = _check_backend_flags(args, backend)
    if bad is not None:
        return bad
    if backend != "serial":
        from repro.providers import make_score_provider

        def provider_factory(engine, target, non_targets):
            if backend == "fabric":
                from repro.fabric import ScoringFabric

                fabric = ScoringFabric(
                    engine,
                    num_workers=args.workers or None,
                    telemetry=registry,
                )
                fabrics.append(fabric)
                client = make_score_provider(
                    fabric, target, non_targets, backend="fabric"
                )
                # Report the shared pool's worker stats alongside the
                # fabric line below.
                runtimes.append(fabric.pool.stats)
                return client
            provider = make_score_provider(
                engine,
                target,
                non_targets,
                backend="process",
                workers=args.workers or None,
                share_memory=not args.no_shm,
            )
            runtimes.append(provider.runtime_stats)
            return provider

    designer = InhibitorDesigner.from_profile(
        profile,
        seed=args.seed,
        telemetry=registry,
        provider_factory=provider_factory,
    )
    result = designer.design(
        args.target, seed=args.seed + 1, termination=args.generations
    )
    print(
        f"instrumented design of anti-{args.target} "
        f"({args.generations} generations, profile {args.profile!r}): "
        f"fitness {result.fitness:.4f}\n"
    )
    print(summary(registry))
    for read_stats in runtimes:
        stats = read_stats()
        print(f"\nworkers ({stats['num_workers']} processes, "
              f"{stats['dispatched']} items dispatched in "
              f"{stats['slices']} slices):")
        for wid, w in stats["workers"].items():
            print(
                f"  worker {wid}: items={int(w['items'])} "
                f"busy={w['busy_s']:.3f}s "
                f"cpu={w['cpu_s']:.3f}s faults={int(w['minor_faults'])} "
                f"inbox_wait={w['inbox_wait_s']:.3f}s "
                f"throughput={w['throughput_per_s']:.1f}/s "
                f"utilisation={w['utilisation'] * 100:.0f}%"
            )
        ft = stats["fault_tolerance"]
        print(
            f"  fault tolerance: deaths={ft['worker_deaths']} "
            f"respawns={ft['respawns']} retries={ft['retries']} "
            f"stale_dropped={ft['stale_dropped']} failures={ft['failures']} "
            f"degraded_items={ft['degraded_items']} "
            f"force_killed={ft['force_killed']} "
            f"breaker={ft['breaker']['state']}"
        )
        shm = stats.get("shm")
        if shm:
            print(
                f"  shared memory: segment={shm['token']} "
                f"bytes={shm['bytes']} arrays={shm['arrays']} "
                f"similarities={shm['similarities']}"
            )
    for fabric in fabrics:
        fs = fabric.fabric_stats()
        print(
            f"\nfabric: clients={fs['clients']}/{fs['total_clients']} "
            f"fused_batches={fs['fused_batches']} "
            f"fused_items={fs['fused_items']} "
            f"mean_fused={fs['mean_fused_size']:.1f}"
        )
        fabric.close()
    if args.out:
        if args.format == "csv":
            rows = export_csv(registry, args.out)
            print(f"\nexported {rows} CSV rows -> {args.out}")
        else:
            lines = export_jsonl(registry, args.out)
            print(f"\nexported {lines} JSON-lines records -> {args.out}")
    return 0


def _cmd_profiles(_args: argparse.Namespace) -> int:
    from repro.synthetic import PROFILES

    for name, prof in PROFILES.items():
        world = prof.world
        print(
            f"{name:<8} proteins={world.proteome.num_proteins:<6} "
            f"window={world.pipe.window_size:<3} "
            f"population={prof.population_size:<6} "
            f"design-gens={prof.design_generations:<5} {prof.description}"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.ppi.evaluation import evaluate_pipe
    from repro.synthetic import get_profile

    world = get_profile(args.profile).build_world(seed=args.seed)
    evaluation = evaluate_pipe(
        world.engine, max_positive=args.pairs, num_negative=args.pairs, seed=args.seed
    )
    threshold = world.config.pipe.decision_threshold
    print(f"PIPE accuracy on the {args.profile!r} world:")
    print(f"  known pairs scored     {evaluation.positive_scores.size}")
    print(f"  non-pairs sampled      {evaluation.negative_scores.size}")
    print(f"  ROC AUC                {evaluation.auc():.3f}")
    print(f"  median separation      {evaluation.separation():+.3f}")
    print(
        f"  at threshold {threshold}: TPR "
        f"{evaluation.true_positive_rate(threshold):.3f}, FPR "
        f"{evaluation.false_positive_rate(threshold):.4f} "
        "(paper quotes 0.0005 at production scale)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant design service over a durable job directory.

    The loop polls ``<root>/queue/`` for submit requests and honours
    ``cancel.request`` markers — ``python -m repro jobs ...`` is the
    matching client.  SIGKILL-safe: on restart, jobs found mid-flight are
    re-admitted and resume from their newest snapshot, bit-exact.
    """
    from repro import get_profile
    from repro.service import DesignService, TenantQuota
    from repro.util.validation import check_int_range, check_positive

    try:
        check_int_range(args.max_concurrent, "--max-concurrent", lo=1)
        check_int_range(args.max_queue, "--max-queue", lo=1)
        check_int_range(args.quota_running, "--quota-running", lo=1)
        if args.quota_demand is not None:
            check_int_range(args.quota_demand, "--quota-demand", lo=1)
        if args.workers:
            check_int_range(args.workers, "--workers", lo=1, hi=256)
        check_positive(args.poll_s, "--poll-s")
        if args.max_seconds is not None:
            check_positive(args.max_seconds, "--max-seconds")
        if args.idle_exit_s is not None:
            check_positive(args.idle_exit_s, "--idle-exit-s")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fabric_kwargs: dict[str, object] = {}
    if args.workers:
        fabric_kwargs["num_workers"] = args.workers
    if args.inject_delay_ms:
        from repro.parallel.worker import FaultPlan

        fabric_kwargs["faults"] = FaultPlan(delay=args.inject_delay_ms / 1000.0)
    world = get_profile(args.profile).build_world()
    service = DesignService(
        world,
        args.root,
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        default_quota=TenantQuota(
            max_running=args.quota_running, max_demand=args.quota_demand
        ),
        **fabric_kwargs,
    )
    stats = service.service_stats()
    print(
        f"serving design jobs under {args.root} "
        f"(profile {args.profile!r}, up to {args.max_concurrent} jobs at once, "
        f"{stats['recovered']} jobs recovered)",
        flush=True,
    )
    try:
        service.serve_forever(
            poll_s=args.poll_s,
            max_seconds=args.max_seconds,
            idle_exit_s=args.idle_exit_s,
        )
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    stats = service.service_stats()
    print(f"service stopped: {stats['jobs']}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    """Client side of the service: file-control-plane submit/inspect.

    ``status``/``result``/``list`` read the job artifacts directly, so
    they work with or without a live ``serve`` process; ``submit`` and
    ``cancel`` drop requests a running service picks up at its next
    poll.  ``status``/``result`` print the artifact JSON verbatim — the
    schemas are stable, so the output round-trips through ``json.loads``.
    """
    import json
    import os
    import time

    from repro import service as service_mod

    if args.jobs_command == "submit":
        job_id = args.job_id or f"job-{time.time_ns():x}-{os.getpid()}"
        non_targets = tuple(args.non_target) if args.non_target else None
        try:
            spec = service_mod.JobSpec(
                tenant=args.tenant,
                target=args.target,
                non_targets=non_targets,
                non_target_limit=args.non_target_limit,
                seed=args.seed,
                generations=args.generations,
                population_size=args.population,
                candidate_length=args.length,
                checkpoint_every=args.checkpoint_every,
                deadline_s=args.deadline_s,
                demand=args.demand,
                job_id=job_id,
            )
            service_mod.write_submit_request(args.root, spec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(job_id)
        return 0
    if args.jobs_command in ("status", "result"):
        reader = (
            service_mod.read_status
            if args.jobs_command == "status"
            else service_mod.read_result
        )
        try:
            payload = reader(args.root, args.job_id)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.jobs_command == "cancel":
        try:
            service_mod.write_cancel_request(args.root, args.job_id)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"cancel requested for {args.job_id}")
        return 0
    # list
    rows = service_mod.list_statuses(args.root, tenant=args.tenant)
    if not rows:
        print("no jobs")
        return 0
    print(f"{'JOB':<28} {'TENANT':<12} {'STATE':<10} {'GEN':>7} {'BEST':>10}")
    for row in rows:
        gens = f"{row.get('generations_done', 0)}/{row.get('generations_total', '?')}"
        best = row.get("best_fitness")
        best_s = f"{best:.4f}" if isinstance(best, (int, float)) else "-"
        print(
            f"{row.get('job_id', '?'):<28} {row.get('tenant', '?'):<12} "
            f"{row.get('state', '?'):<10} {gens:>7} {best_s:>10}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__.split("\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="design an inhibitory protein")
    p_design.add_argument("target", help="target protein name (e.g. YBL051C)")
    p_design.add_argument("--profile", default="tiny")
    p_design.add_argument("--seed", type=int, default=0)
    p_design.add_argument("--generations", type=int, default=25)
    p_design.add_argument(
        "--scan", type=int, default=0, metavar="K",
        help="print the top-K off-target specificity scan",
    )
    p_design.add_argument("--out", default=None, help="save design JSON here")
    p_design.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="record runtime telemetry, export it as JSON-lines to PATH "
        "and print a summary",
    )
    p_design.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write crash-safe snapshots of the GA state to DIR",
    )
    p_design.add_argument(
        "--checkpoint-every", type=int, default=5, metavar="K",
        help="snapshot every K generations (default: 5)",
    )
    p_design.add_argument(
        "--resume", action="store_true",
        help="resume from the latest snapshot in --checkpoint-dir "
        "(bit-exact: same result as an uninterrupted run)",
    )
    p_design.add_argument(
        "--workers", type=int, default=0,
        help="score through N worker processes (0 = serial)",
    )
    p_design.add_argument(
        "--backend", choices=("serial", "process", "fabric"),
        default="serial",
        help="scoring backend (bare --workers N implies 'process'); "
        "'fabric' runs the campaign as a client on a ScoringFabric; "
        "see repro.providers.make_score_provider",
    )
    p_design.add_argument(
        "--no-shm", action="store_true",
        help="with the process backend: pickle the full engine to each "
        "worker instead of sharing one read-only proteome segment",
    )
    p_design.add_argument(
        "--deadline-s", type=float, default=None, metavar="S",
        help="wall-clock budget: stop cleanly with the best-so-far design "
        "after S seconds (checkpointed runs stay resumable)",
    )
    degrade = p_design.add_mutually_exclusive_group()
    degrade.add_argument(
        "--degrade", dest="fail_fast", action="store_false",
        help="on permanent worker loss, fall back to serial scoring in "
        "the master instead of aborting (default)",
    )
    degrade.add_argument(
        "--fail-fast", dest="fail_fast", action="store_true",
        help="abort the run when the parallel runtime exhausts its "
        "retry budget (pre-supervisor behaviour)",
    )
    # fail_fast defaults to a sentinel so _check_backend_flags can tell
    # an explicit --fail-fast/--degrade from the (process-only) default.
    p_design.set_defaults(func=_cmd_design, fail_fast=None)

    p_stats = sub.add_parser(
        "stats", help="run an instrumented design and report telemetry"
    )
    p_stats.add_argument("target", nargs="?", default="YBL051C")
    p_stats.add_argument("--profile", default="tiny")
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--generations", type=int, default=10)
    p_stats.add_argument(
        "--workers", type=int, default=0,
        help="score through N worker processes (0 = serial)",
    )
    p_stats.add_argument(
        "--backend", choices=("serial", "process", "fabric"),
        default="serial",
        help="scoring backend (bare --workers N implies 'process'; "
        "'fabric' reports the fabric's dispatch line too)",
    )
    p_stats.add_argument(
        "--no-shm", action="store_true",
        help="disable the shared-memory proteome for the process backend",
    )
    p_stats.add_argument("--out", default=None, help="export telemetry here")
    p_stats.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_stats.set_defaults(func=_cmd_stats)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant design service"
    )
    p_serve.add_argument(
        "--root", required=True, metavar="DIR",
        help="durable service directory (jobs/, queue/, rejected/)",
    )
    p_serve.add_argument("--profile", default="tiny")
    p_serve.add_argument(
        "--workers", type=int, default=0,
        help="worker processes of the shared scoring fabric (0 = auto)",
    )
    p_serve.add_argument(
        "--max-concurrent", type=int, default=2, metavar="N",
        help="jobs that may run at once (default: 2)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=32, metavar="N",
        help="bound of the PENDING run queue (default: 32)",
    )
    p_serve.add_argument(
        "--quota-running", type=int, default=1, metavar="N",
        help="per-tenant concurrent-job quota (default: 1)",
    )
    p_serve.add_argument(
        "--quota-demand", type=int, default=None, metavar="N",
        help="per-tenant cap on summed job demand (default: unbounded)",
    )
    p_serve.add_argument(
        "--poll-s", type=float, default=0.2, metavar="S",
        help="control-plane poll interval (default: 0.2)",
    )
    p_serve.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="stop serving after S seconds (smoke tests/CI)",
    )
    p_serve.add_argument(
        "--idle-exit-s", type=float, default=None, metavar="S",
        help="exit after S seconds with no jobs or requests (CI)",
    )
    p_serve.add_argument(
        "--inject-delay-ms", type=float, default=0.0, help=argparse.SUPPRESS
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_jobs = sub.add_parser(
        "jobs", help="submit/inspect/cancel design jobs"
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)
    j_submit = jobs_sub.add_parser(
        "submit", help="queue one design job (prints its id)"
    )
    j_submit.add_argument("--root", required=True, metavar="DIR")
    j_submit.add_argument("target", help="target protein name")
    j_submit.add_argument("--tenant", default="default")
    j_submit.add_argument(
        "--non-target", action="append", default=[], metavar="NAME",
        help="explicit non-target (repeatable; default: resolved from "
        "the target's cellular component, capped by --non-target-limit)",
    )
    j_submit.add_argument("--non-target-limit", type=int, default=8)
    j_submit.add_argument("--seed", type=int, default=0)
    j_submit.add_argument("--generations", type=int, default=10)
    j_submit.add_argument("--population", type=int, default=12)
    j_submit.add_argument("--length", type=int, default=20)
    j_submit.add_argument("--checkpoint-every", type=int, default=1)
    j_submit.add_argument("--deadline-s", type=float, default=None)
    j_submit.add_argument(
        "--demand", type=int, default=1,
        help="declared workers'-worth of load (tenant demand quota)",
    )
    j_submit.add_argument(
        "--job-id", default=None,
        help="client-chosen id (default: generated, printed on stdout)",
    )
    j_submit.set_defaults(func=_cmd_jobs)
    for name, what in (
        ("status", "print a job's status.json"),
        ("result", "print a DONE job's result.json"),
        ("cancel", "request cancellation of a job"),
    ):
        j = jobs_sub.add_parser(name, help=what)
        j.add_argument("--root", required=True, metavar="DIR")
        j.add_argument("job_id")
        j.set_defaults(func=_cmd_jobs)
    j_list = jobs_sub.add_parser("list", help="list all jobs under a root")
    j_list.add_argument("--root", required=True, metavar="DIR")
    j_list.add_argument("--tenant", default=None)
    j_list.set_defaults(func=_cmd_jobs)

    p_profiles = sub.add_parser("profiles", help="list scale profiles")
    p_profiles.set_defaults(func=_cmd_profiles)

    p_eval = sub.add_parser("evaluate", help="measure PIPE accuracy")
    p_eval.add_argument("--profile", default="tiny")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--pairs", type=int, default=60)
    p_eval.set_defaults(func=_cmd_evaluate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `... jobs status | head`);
        # exit quietly instead of dumping a traceback.  Re-point stdout
        # at devnull so the interpreter's final flush stays silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
