"""The InSiPS worker (Algorithm 2).

A worker receives the broadcast data once (here: via process inheritance /
pickled arguments, standing in for the paper's MPI broadcast that "relieves
considerable stress from the shared disks"), then loops: block on its
private inbox for the next item, build the candidate's
``sequence_similarity`` structure, run PIPE against the target and every
non-target, and return the scores — the reply doubles as the request for
more work.

Workers keep no state between items.  The similarity structures a delta
re-score patches from arrive on the
:class:`~repro.parallel.messages.WorkItem`, the structure built for the
candidate leaves on the :class:`~repro.parallel.messages.WorkResult`, and
the master's bounded LRU is the only cache — so every worker takes the
serial provider's delta route whichever worker scored the parents.

A candidate whose evaluation raises does **not** kill the worker: the
exception is captured as a :class:`~repro.parallel.messages.WorkFailure`
(with the full traceback) and the loop continues, so one poisoned sequence
costs one reply, not a worker process.  For deterministic testing of the
master's recovery paths, :class:`WorkerContext` optionally carries a
:class:`FaultPlan` that can delay, fail or hard-crash the worker on a
chosen item.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_mod
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ga.fitness import ScoreSet
from repro.parallel.messages import (
    EndSignal,
    RetireSignal,
    WorkFailure,
    WorkItem,
    WorkResult,
)
from repro.ppi.delta import DeltaStats, Provenance, SimilarityLRU
from repro.ppi.pipe import PipeConfig, PipeEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ppi.shm import SharedProteomeHandle, SharedProteomeView

__all__ = [
    "FaultPlan",
    "WorkerContext",
    "score_candidate",
    "score_candidate_with_delta",
    "worker_loop",
]


@dataclass(frozen=True)
class FaultPlan:
    """Test-only fault injection for the worker loop.

    Item indices are 0-based counts of items *this worker* has pulled from
    its inbox.  ``only_worker`` restricts injection to one worker id;
    respawned workers receive fresh (monotonically increasing) ids, so a
    crash plan targeting worker 0 fires at most once per run — the
    replacement worker is unaffected and recovery is deterministic.

    Attributes
    ----------
    fail_on_item:
        Raise inside the scoring path at this item (surfaces as a
        :class:`~repro.parallel.messages.WorkFailure`).
    crash_on_item:
        Hard-exit the worker process (``os._exit``) after pulling this
        item — the item is lost in flight, simulating a node failure.
        Replies to earlier items are flushed first, so what the master
        has lost is exactly the worker's window.
    hang_on_item / hang_s:
        Stop responding at this item: sleep ``hang_s`` seconds (bounded,
        so an orphaned test process still dies) while holding the item —
        simulating a hung node the master can only time out on.
    delay_on_item / delay:
        Sleep ``delay`` seconds before scoring, inside the timed region
        — the worker-reported elapsed (and hence the master's latency
        EWMA) includes it, simulating a genuinely slow item.  With
        ``delay_on_item`` set, only that item is delayed, otherwise
        every item is.
    """

    fail_on_item: int | None = None
    crash_on_item: int | None = None
    hang_on_item: int | None = None
    hang_s: float = 3600.0
    delay_on_item: int | None = None
    delay: float = 0.0
    only_worker: int | None = None

    def applies_to(self, worker_id: int) -> bool:
        return self.only_worker is None or self.only_worker == worker_id


@dataclass
class WorkerContext:
    """Everything a worker needs: the broadcast engine and the problem.

    The engine travels one of two ways.  Classic broadcast: ``engine`` is
    set and the whole database pickles into the worker at spawn.
    Shared-memory broadcast: ``engine`` is ``None`` and ``shm_handle`` +
    ``config`` describe a :class:`~repro.ppi.shm.SharedProteomeView`
    segment the worker attaches to (:meth:`ensure_engine`), so only a
    kilobyte-scale handle crosses the process boundary and every worker
    reads the same physical proteome pages.

    ``faults`` is a test-only :class:`FaultPlan`; production runs leave it
    ``None`` (the default) and pay nothing for it.

    ``use_delta=False`` disables incremental re-scoring entirely (every
    candidate pays the full sweep and no similarity structure travels in
    either direction, the pre-delta behaviour).

    ``problems`` (optional) is the fabric's registered-problem table:
    ``problem_id -> (target, non_targets)``.  Items carrying a
    ``problem_id`` are scored against that problem instead of the context
    default; a worker spawned after registration inherits the table at
    spawn, and items are self-describing anyway (see
    :class:`~repro.parallel.messages.WorkItem`).
    """

    engine: PipeEngine | None
    target: str
    non_targets: list[str]
    faults: FaultPlan | None = None
    use_delta: bool = True
    shm_handle: "SharedProteomeHandle | None" = None
    config: "PipeConfig | None" = None
    problems: dict[int, tuple[str, tuple[str, ...]]] | None = None

    def __post_init__(self) -> None:
        if self.engine is None:
            if self.shm_handle is None or self.config is None:
                raise ValueError(
                    "WorkerContext needs an engine, or a shm_handle + config "
                    "to rebuild one from shared memory"
                )
            # Name validation happens in ensure_engine, worker-side.
            return
        graph = self.engine.database.graph
        graph.index_of(self.target)
        for nt in self.non_targets:
            graph.index_of(nt)

    def for_shipment(self, handle: "SharedProteomeHandle") -> "WorkerContext":
        """A lightweight copy to pickle to workers: the engine is replaced
        by the shared-memory handle (plus the scalar config)."""
        if self.engine is None:
            raise ValueError("context already engine-less")
        return replace(
            self, engine=None, shm_handle=handle, config=self.engine.config
        )

    def ensure_engine(self) -> "SharedProteomeView | None":
        """Materialise :attr:`engine` if it travelled as a shm handle.

        Returns the attached view (the caller owns its ``close()``), or
        ``None`` when the engine was shipped directly.
        """
        if self.engine is not None:
            return None
        from repro.ppi.shm import SharedProteomeView

        view = SharedProteomeView.attach(self.shm_handle)
        database = view.build_database()
        self.engine = PipeEngine(database, self.config)
        graph = database.graph
        graph.index_of(self.target)
        for nt in self.non_targets:
            graph.index_of(nt)
        return view

    def warm_cache(self) -> None:
        """Precompute target/non-target similarity structures (the paper's
        offline preprocessing of natural proteins) — for the context
        problem and every registered fabric problem."""
        names = [self.target, *self.non_targets]
        for tgt, nts in (self.problems or {}).values():
            names.append(tgt)
            names.extend(nts)
        self.engine.database.precompute(list(dict.fromkeys(names)))


def score_candidate_with_delta(
    context: WorkerContext,
    encoded: np.ndarray,
    *,
    provenance: Provenance | None = None,
    similarity_cache: SimilarityLRU | None = None,
    problem: tuple[str, Sequence[str]] | None = None,
) -> tuple[ScoreSet, DeltaStats | None]:
    """One unit of worker work: candidate vs target + all non-targets.

    Builds the candidate's similarity structure once and reuses it for all
    predictions, exactly as Algorithm 2 prescribes.  With a
    ``similarity_cache``, the structure is built incrementally from the
    cached parent(s) named by ``provenance`` (re-sweeping only dirty
    windows); the returned :class:`~repro.ppi.delta.DeltaStats` reports
    which route was taken so the master can aggregate the accounting.

    ``problem`` overrides the context's ``(target, non_targets)`` for
    this one candidate (the fabric's fused-dispatch path); the similarity
    sweep is problem-independent, so the cache and delta route are shared
    across problems untouched.
    """
    engine = context.engine
    arr = np.asarray(encoded, dtype=np.uint8)
    if problem is None:
        target, non_targets = context.target, context.non_targets
    else:
        target, non_targets = problem[0], list(problem[1])
    if similarity_cache is not None:
        with engine.telemetry.span("pipe.window_build"):
            similarity, stats = similarity_cache.similarity_for(
                engine.database, arr, provenance
            )
    else:
        similarity, stats = engine.similarity_of(arr), None
    names = [target, *non_targets]
    scored = engine.score_against(arr, names, similarity=similarity)
    return (
        ScoreSet(
            target_score=scored[target],
            non_target_scores=tuple(scored[nt] for nt in non_targets),
        ),
        stats,
    )


def score_candidate(context: WorkerContext, encoded: np.ndarray) -> ScoreSet:
    """Full-sweep scoring of one candidate (the delta-unaware surface)."""
    scores, _ = score_candidate_with_delta(context, encoded)
    return scores


def worker_loop(worker_id: int, context: WorkerContext, inbox, result_queue) -> int:
    """Worker main loop; returns the number of candidates processed.

    Blocks on ``inbox`` — this worker's private queue, the only one it
    reads — until an :class:`EndSignal` (pool shutdown) or a
    :class:`RetireSignal` (elastic scale-down) arrives; inboxes are FIFO,
    so every item handed out before either signal is scored first.  Each
    reply on the shared ``result_queue`` is what prompts the master to
    hand this worker its next item.  A scoring exception is reported as a
    :class:`WorkFailure` and the loop continues with the next item.
    """
    view = context.ensure_engine()
    try:
        return _worker_loop_inner(worker_id, context, inbox, result_queue)
    finally:
        if view is not None:
            view.close()


def _worker_loop_inner(
    worker_id: int, context: WorkerContext, inbox, result_queue
) -> int:
    context.warm_cache()
    faults = context.faults
    inject = faults is not None and faults.applies_to(worker_id)
    # Fabric problem table: seeded from the shipped context, extended
    # in place from self-describing items (problems registered after
    # this worker spawned).
    problems: dict[int, tuple[str, tuple[str, ...]]] = dict(
        context.problems or {}
    )
    processed = 0
    while True:
        waited = time.perf_counter()
        message = inbox.get()
        inbox_wait = time.perf_counter() - waited
        if isinstance(message, (EndSignal, RetireSignal)):
            break
        if not isinstance(message, WorkItem):
            raise TypeError(f"unexpected message {type(message).__name__}")
        if inject:
            if faults.crash_on_item == processed:
                # Simulated node failure: the pulled item dies with us.
                # Replies already handed to the queue are flushed first:
                # exiting while the feeder thread is mid-send would take
                # the result queue's cross-process write lock with us — a
                # transport failure, not the node failure simulated here.
                result_queue.close()
                result_queue.join_thread()
                os._exit(1)
            if faults.hang_on_item == processed:
                # Simulated hung node: hold the item without replying.
                time.sleep(faults.hang_s)
        start = time.perf_counter()
        try:
            if inject and faults.delay > 0.0 and faults.delay_on_item in (
                None,
                processed,
            ):
                # Simulated slow item: inside the timed region, so the
                # reported elapsed (and the master's latency EWMA) sees it.
                time.sleep(faults.delay)
            if inject and faults.fail_on_item == processed:
                raise RuntimeError(
                    f"injected failure on item {processed} of worker {worker_id}"
                )
            problem = None
            if message.problem_id is not None:
                problem = problems.get(message.problem_id)
                if problem is None:
                    if message.problem is None:
                        raise RuntimeError(
                            f"unknown problem id {message.problem_id} "
                            "(item carries no spec)"
                        )
                    problem = message.problem
                    problems[message.problem_id] = problem
                    # One-time warm-up per newly seen problem: its
                    # target/non-target structures enter the shared
                    # known-protein cache.
                    context.engine.database.precompute(
                        [problem[0], *problem[1]]
                    )
            carried = None
            if context.use_delta:
                # A throwaway cache holding exactly what the item carries
                # (plus room for the structure about to be built): the
                # same cheapest-correct-route policy as the serial
                # provider, with no state surviving the item.
                carried = SimilarityLRU(len(message.similarities) + 1)
                for key, similarity in message.similarities:
                    carried.put(key, similarity)
            # Ship the built structure back unless the master already
            # holds it (or delta scoring is off).
            fresh = carried is not None and carried.get(message.payload) is None
            scores, delta = score_candidate_with_delta(
                context,
                message.decode(),
                provenance=message.provenance,
                similarity_cache=carried,
                problem=problem,
            )
        except Exception as exc:
            result_queue.put(
                WorkFailure(
                    sequence_id=message.sequence_id,
                    worker_id=worker_id,
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=traceback_mod.format_exc(),
                    batch_epoch=message.batch_epoch,
                )
            )
            processed += 1
            continue
        elapsed = time.perf_counter() - start
        result_queue.put(
            WorkResult(
                message.sequence_id,
                worker_id,
                scores,
                elapsed,
                batch_epoch=message.batch_epoch,
                delta=delta,
                similarity=carried.get(message.payload) if fresh else None,
                inbox_wait=inbox_wait,
            )
        )
        processed += 1
    return processed
