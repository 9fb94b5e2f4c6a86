"""Runtime telemetry: metrics, timer spans and exporters.

The observability layer behind the reproduction's performance work.  Every
instrumented component (the PIPE kernels, the GA main loop, the score
providers, the multiprocessing runtime) accepts a
:class:`~repro.telemetry.MetricsRegistry` and defaults to the shared
zero-overhead :data:`~repro.telemetry.NULL_REGISTRY`, so instrumentation
costs nothing unless a run opts in::

    from repro import InhibitorDesigner, get_profile
    from repro.telemetry import MetricsRegistry, export_jsonl, summary

    telemetry = MetricsRegistry()
    designer = InhibitorDesigner.from_profile(
        get_profile("tiny"), seed=0, telemetry=telemetry
    )
    designer.design("YBL051C", seed=1, termination=10)
    print(summary(telemetry))
    export_jsonl(telemetry, "design_metrics.jsonl")

Metric namespaces in use:

==========================  =================================================
``pipe.*``                  PIPE kernel timers: ``window_build``,
                            ``triple_product``, ``box_filter``; counters
                            ``pipe.evaluations``
``ga.*``                    per-generation timers (``ga.evaluate``,
                            ``ga.next_generation``), operator counters
                            (``ga.op.copy`` …), the ``ga.fitness``
                            distribution and one ``ga.generation`` event
                            per generation
``provider.cache.*``        score-cache hits / misses / evictions
``parallel.*``              master/worker runtime: batch timers, dispatch
                            counters, queue-depth gauge and per-worker
                            ``parallel.worker.<id>.*`` busy time / items;
                            degradation accounting
                            (``parallel.degraded_items`` /
                            ``parallel.degraded_batches``), breaker
                            probes (``parallel.breaker_probes``) and
                            ``parallel.force_killed`` workers at close
``fabric.*``                scoring-fabric dispatch: ``fused_batches`` /
                            ``fused_items`` / ``failed_dispatches`` and
                            per-client ``fabric.client.<id>.items``
                            counters, the ``fabric.clients`` gauge and
                            the ``fabric.queue_wait`` histogram (a
                            dispatch's wait for the fabric lock)
``service.*``               design-service job orchestration: the
                            ``service.jobs.{queued,running,evicted}``
                            gauges, lifecycle counters
                            (``service.submitted`` / ``rejected`` /
                            ``resumed`` / ``recovered`` / ``done`` /
                            ``failed`` / ``cancelled`` / ``evicted``), a
                            ``service.job`` timing per finished job and
                            ``service.{rejected,job_finished}`` events
``checkpoint.*``            snapshot writes/bytes/restores, plus
                            ``checkpoint.corrupt_skipped`` (snapshots
                            quarantined during recovery) and one
                            ``checkpoint.quarantined`` event per renamed
                            file
``ga.supervised_stops``     clean early stops at deadline expiry (one
                            ``ga.supervised_stop`` event each, carrying
                            the reason)
==========================  =================================================
"""

from repro.telemetry.exporters import export_csv, export_jsonl, read_jsonl, summary
from repro.telemetry.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    TimerStat,
    get_registry,
    set_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "TimerStat",
    "export_csv",
    "export_jsonl",
    "get_registry",
    "read_jsonl",
    "set_registry",
    "summary",
]
