"""Multiprocessing realisation of the master/worker runtime.

:class:`MultiprocessScoreProvider` plugs into the GA engine through the
:class:`~repro.ga.fitness.ScoreProvider` interface, so
``InSiPSEngine(provider, ...)`` runs the identical GA whether scores come
from this parallel backend or the serial reference path — the property the
integration tests assert.

Request-on-demand dispatch (Algorithms 1–2)
-------------------------------------------
Every worker owns one private *inbox* and blocks on it; nothing is
polled and no queue is shared on the way out.  The master keeps a batch's
backlog in an :class:`~repro.parallel.scheduler.OnDemandScheduler` and
hands items out to keep :data:`IN_FLIGHT_WINDOW` items in flight per
worker — one executing, one prefetched, so a worker never idles for a
master round trip.  Each reply on the shared result queue is that
worker's request for more: the master records it and tops the worker's
window up.  Because the scheduler knows which worker holds which item,
recovery and retirement are precise (see below).

Workers are stateless.  The similarity structure a worker builds for a
candidate rides back on the reply into the master's bounded
:class:`~repro.ppi.delta.SimilarityLRU` (``similarity_cache_size ×
max_workers`` entries); each outgoing item carries the candidate's own
structure when the master holds it, else those of its provenance
parents, and the worker patches from exactly what the item carries.  So
every worker takes the serial provider's delta route — same rows
re-swept, same fallbacks — whichever worker scored the parents and
whatever the pool size.

Fault tolerance
---------------
The runtime is fault tolerant at the task level, the property the paper's
days-long Blue Gene/Q campaigns depend on:

* every batch is stamped with a monotonically increasing ``batch_epoch``;
  a reply from an earlier epoch (orphaned by a timeout or a dead worker)
  is counted and dropped, never assigned to a later candidate that reuses
  the same ``sequence_id``;
* the collection loop polls the result queue on short sub-timeouts and
  checks ``Process.is_alive()`` whenever it is quiet — a dead worker is
  reaped, a replacement (with a fresh worker id) is spawned, and exactly
  the items that were in the dead worker's window go back to the front
  of the backlog under a bounded per-item retry budget; the survivors'
  items are untouched;
* a worker-side scoring exception arrives as a
  :class:`~repro.parallel.messages.WorkFailure` and is re-raised on the
  master as :class:`WorkerFailureError` carrying the worker traceback,
  instead of killing the worker process silently.

Graceful degradation (the campaign-supervisor contract)
-------------------------------------------------------
By default the provider **never abandons a batch to the pool**: when the
re-dispatch retry budget is exhausted (workers keep dying) or the
collection loop stalls past ``timeout`` (workers hang), the lost items
are scored *serially in the master* through the same
``score_candidate_with_delta`` path the workers run, patching from the
LRU the replies filled — bit-exact with the pool's answers — and
counted as ``parallel.degraded_items`` / ``parallel.degraded_batches``.
A :class:`~repro.resilience.CircuitBreaker` then keeps subsequent
batches serial (no respawn-and-die thrash); every few batches it lets
one *half-open probe* try the pool again, closing the breaker on
success.  ``fail_fast=True`` restores the pre-supervisor behaviour:
exhausting the budget raises :class:`DeadWorkerError` naming the dead
workers and lost items, and a stall raises ``RuntimeError``.

Shutdown is bounded: ``close()`` sends every inbox an
:class:`~repro.parallel.messages.EndSignal`, joins each worker under a
grace period, then escalates ``terminate()`` → ``kill()`` (counted as
``parallel.force_killed``), so a hung worker cannot wedge the master.

Elastic pool (the telemetry-driven control loop)
------------------------------------------------
The pool is *elastic*: a :class:`~repro.parallel.elastic.ScalingPolicy`
(``scaling="fixed" | "queue-depth" | "latency-target"``, or any policy
instance) observes queue depth and a per-item latency EWMA on every
scheduling step and resizes the pool between ``min_workers`` and
``max_workers``:

* **scale-up** spawns workers that *late-attach* to the existing
  :class:`~repro.ppi.shm.SharedProteomeView` segment (a handle, not a
  pickled engine, crosses the process boundary — the same broadcast the
  initial pool got); the next hand-out fills their windows;
* **scale-down** puts a
  :class:`~repro.parallel.messages.RetireSignal` on the inbox of the
  worker with the least in flight and stops handing it work: the worker
  finishes what its inbox already holds and exits — nothing is drained
  back, nothing can be trapped.  A retiring worker that crashes instead
  of exiting cleanly is recovered by the exact death machinery above.

Policies decide, the provider executes — so elastic runs return scores
bit-exact with the fixed pool, whatever the policy does.  The control
loop shares the resilience layer's injectable clock
(:class:`~repro.resilience.Deadline` cooldowns; the provider's ``clock``
parameter also drives stall detection, making timeout paths testable
without real sleeps).

The provider shares the bounded-LRU score cache with the serial path
through :class:`~repro.ga.fitness.CachingScoreProvider` and reports the
master-side view of the runtime through telemetry: batch wall time
(``parallel.batch``), dispatch counters, the live outstanding-item count
(``parallel.queue_depth``, decaying to 0 as each batch drains), the pool
size and latency signals (``parallel.pool_size``,
``parallel.item_latency_ewma``, ``parallel.scale_{up,down}``,
``parallel.retired``), the fault-tolerance counters
(``parallel.{worker_deaths,respawns,retries,stale_dropped,failures}``)
and — from what each worker stamps on its replies — per-worker busy
time, item counts, throughput, utilisation and the time spent blocked on
an empty inbox (``parallel.inbox_wait``;
:meth:`MultiprocessScoreProvider.worker_stats`), exactly the quantities
behind the paper's Figures 5–6.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time

import numpy as np

from repro.ga.fitness import CachingScoreProvider, ScoreSet
from repro.parallel.elastic import (
    ElasticController,
    PoolSnapshot,
    ScalingPolicy,
    make_scaling_policy,
)
from repro.parallel.messages import (
    EndSignal,
    RetireSignal,
    WorkFailure,
    WorkItem,
    WorkResult,
)
from repro.parallel.scheduler import OnDemandScheduler
from repro.parallel.worker import (
    FaultPlan,
    WorkerContext,
    score_candidate_with_delta,
    worker_loop,
)
from repro.ppi.delta import Provenance, SimilarityLRU
from repro.ppi.pipe import PipeEngine
from repro.ppi.shm import SharedProteomeView
from repro.resilience.policies import BreakerState, CircuitBreaker
from repro.telemetry import MetricsRegistry

__all__ = [
    "IN_FLIGHT_WINDOW",
    "MultiprocessScoreProvider",
    "WorkerFailureError",
    "DeadWorkerError",
]

#: Items in flight per worker: one executing plus one prefetched, so a
#: worker finds its next item already in the inbox when it replies.  The
#: rest of a batch's backlog waits in the master's scheduler.
IN_FLIGHT_WINDOW = 2


class WorkerFailureError(RuntimeError):
    """A worker's ``score_candidate`` raised; carries the worker traceback."""


class DeadWorkerError(RuntimeError):
    """Workers died and an item exhausted its re-dispatch retry budget."""


def _worker_entry(worker_id, context, inbox, result_queue):
    """Top-level function so it pickles under any start method."""
    worker_loop(worker_id, context, inbox, result_queue)


class MultiprocessScoreProvider(CachingScoreProvider):
    """Master-side score provider dispatching candidates to worker
    processes on demand, with task-level fault tolerance (see the module
    docstring for the recovery semantics).

    Use as a context manager (``with MultiprocessScoreProvider(...) as p:``)
    so the workers are reaped even when the surrounding GA raises.

    Parameters
    ----------
    engine:
        The broadcast PIPE engine (pickled to each worker at spawn — the
        paper's "broadcast all loaded data to worker processes").
    target, non_targets:
        The design problem.
    num_workers:
        Initial worker process count (paper: nodes - 1; default:
        available CPUs).  Under an elastic policy this is where the pool
        *starts*; it then floats between ``min_workers`` and
        ``max_workers``.
    min_workers, max_workers:
        Bounds of the elastic pool.  Default to ``num_workers`` for the
        fixed policy (no resizing) and to ``(1, num_workers)`` for the
        adaptive ones.  Ignored when ``scaling`` is already a policy
        instance (its own bounds win).
    scaling:
        ``"fixed"`` (default — the classic constant pool),
        ``"queue-depth"``, ``"latency-target"``, or any
        :class:`~repro.parallel.elastic.ScalingPolicy` instance.
    latency_target_s:
        The ``latency-target`` policy's wall-clock drain target.
    scale_cooldown_s:
        Minimum time (by ``clock``) between resizes — hysteresis against
        scale thrash; 0 disables.
    clock:
        Monotonic clock used by stall detection and the elastic
        controller's cooldowns (injectable for tests; default
        :func:`time.monotonic`).
    timeout:
        Seconds of *no progress* (no reply received, no dead worker
        recovered) the collection loop tolerates before declaring the
        pool stalled (degrading the batch, or raising under
        ``fail_fast``).
    poll_interval:
        Sub-timeout of each result-queue poll; between polls the loop
        checks worker liveness, so a worker death is detected within
        roughly one interval instead of one full ``timeout``.
    max_retries:
        Per-item budget of re-dispatches after worker deaths; exceeding
        it degrades the batch to master-serial scoring (or raises
        :class:`DeadWorkerError` under ``fail_fast``).
    fail_fast:
        When True, pool loss raises (:class:`DeadWorkerError` /
        ``RuntimeError``) exactly as before the supervisor existed; when
        False (default) lost items are scored serially in the master and
        the circuit breaker keeps the provider serial until a half-open
        probe finds the pool healthy again.
    breaker:
        The :class:`~repro.resilience.CircuitBreaker` guarding the pool;
        defaults to one that probes every 4th batch while open.  Ignored
        under ``fail_fast``.
    close_grace_s:
        Per-worker join grace during :meth:`close` before escalating to
        ``terminate()`` then ``kill()`` (``parallel.force_killed``).
    cache_size:
        Bound of the shared LRU score cache.
    similarity_cache_size:
        Per-worker share of the master's similarity-structure LRU (the
        delta path's patch source): it holds ``similarity_cache_size ×
        max_workers`` structures.
    use_delta:
        When False, workers always run the full similarity sweep and no
        provenance or similarity structure travels (the benchmark
        baseline).
    share_memory:
        When True (default), the database's read-only arrays are placed
        in a single ``multiprocessing.shared_memory`` segment
        (:class:`~repro.ppi.shm.SharedProteomeView`) and workers receive
        a kilobyte-scale handle instead of a pickled engine — every
        worker maps the same physical proteome pages.  The segment is
        refcounted and unlinked on the provider's last :meth:`close`;
        a SIGKILLed worker cannot leak it.  Set False to restore the
        classic pickle-the-engine broadcast.
    faults:
        Test-only :class:`~repro.parallel.worker.FaultPlan` forwarded to
        the workers; leave ``None`` in production.
    telemetry:
        Metrics registry; defaults to the zero-overhead null registry.
    """

    def __init__(
        self,
        engine: PipeEngine,
        target: str,
        non_targets: list[str],
        *,
        num_workers: int | None = None,
        min_workers: int | None = None,
        max_workers: int | None = None,
        scaling: "ScalingPolicy | str" = "fixed",
        latency_target_s: float = 0.25,
        scale_cooldown_s: float = 0.0,
        clock=time.monotonic,
        timeout: float = 300.0,
        poll_interval: float = 0.25,
        max_retries: int = 3,
        start_method: str | None = None,
        cache_size: int = 100_000,
        similarity_cache_size: int = 256,
        use_delta: bool = True,
        fail_fast: bool = False,
        breaker: CircuitBreaker | None = None,
        close_grace_s: float = 10.0,
        share_memory: bool = True,
        faults: FaultPlan | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {poll_interval}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if similarity_cache_size < 1:
            raise ValueError(
                f"similarity_cache_size must be >= 1, got {similarity_cache_size}"
            )
        if close_grace_s < 0:
            raise ValueError(f"close_grace_s must be >= 0, got {close_grace_s}")
        super().__init__(cache_size=cache_size, telemetry=telemetry)
        self.context = WorkerContext(
            engine,
            target,
            list(non_targets),
            faults,
            use_delta=use_delta,
        )
        self.num_workers = num_workers or max(1, os.cpu_count() or 1)
        if isinstance(scaling, ScalingPolicy):
            self._policy = scaling
        else:
            if scaling == "fixed":
                lo = min_workers if min_workers is not None else self.num_workers
                hi = max_workers if max_workers is not None else self.num_workers
            else:
                lo = min_workers if min_workers is not None else 1
                hi = max_workers if max_workers is not None else max(
                    self.num_workers, min_workers or 1
                )
            self._policy = make_scaling_policy(
                scaling,
                min_workers=lo,
                max_workers=hi,
                latency_target_s=latency_target_s,
            )
        self.min_workers = self._policy.min_workers
        self.max_workers = self._policy.max_workers
        self._clock = clock
        self._controller = ElasticController(
            self._policy, cooldown_s=scale_cooldown_s, clock=clock
        )
        self._target_workers = self._policy.clamp(self.num_workers)
        self.timeout = float(timeout)
        self.poll_interval = float(poll_interval)
        self.max_retries = int(max_retries)
        self.use_delta = bool(use_delta)
        self.fail_fast = bool(fail_fast)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.close_grace_s = float(close_grace_s)
        method = start_method or ("fork" if "fork" in mp.get_all_start_methods() else None)
        self._ctx = mp.get_context(method)
        self.share_memory = bool(share_memory)
        self._shm_view: SharedProteomeView | None = None
        self._ship_context: WorkerContext = self.context
        self._result_queue = None
        self._workers: dict[int, mp.Process] = {}
        self._retiring: dict[int, mp.Process] = {}
        # One private queue per live or retiring worker.
        self._inboxes: dict[int, object] = {}
        self._next_worker_id = 0
        # Fabric-registered problems: items dispatched through
        # :meth:`score_fused` carry one of these ids and are scored
        # against that problem instead of the context default.
        self._problems: dict[int, tuple[str, tuple[str, ...]]] = {}
        self._next_problem_id = 0
        self._epoch = 0
        self.dispatched = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.retired = 0
        self.worker_deaths = 0
        self.respawns = 0
        self.retries = 0
        self.stale_dropped = 0
        self.failures = 0
        self.degraded_items = 0
        self.degraded_batches = 0
        self.force_killed = 0
        # The pool's only similarity cache: filled from worker replies,
        # read when items are built and by the serial-degradation path.
        self._master_similarity = SimilarityLRU(
            int(similarity_cache_size) * self.max_workers
        )
        self.delta_hits = 0
        self.delta_fallbacks = 0
        self.delta_rows_rescored = 0
        self.delta_rows_total = 0
        self._worker_items: dict[int, int] = {}
        self._worker_busy: dict[int, float] = {}
        self._worker_inbox_wait: dict[int, float] = {}
        self._batches = 0
        self._batch_wall = 0.0

    @property
    def target(self) -> str:
        """The design problem's target, mirroring the serial provider's
        attribute — checkpoint fingerprints read it off any provider."""
        return self.context.target

    @property
    def non_targets(self) -> list[str]:
        return list(self.context.non_targets)

    # -- fused multi-problem scoring (the fabric surface) --------------------

    def register_problem(self, target: str, non_targets: list[str]) -> int:
        """Register one ``(target, non_targets)`` design problem and
        return its id for :meth:`score_fused` items.

        Validates the names against the proteome up front (a typo fails
        here, not inside a worker).  Problems registered before the pool
        starts contribute their similarity structures to the shared
        proteome segment; later registrations are self-describing on the
        wire and warmed worker-side on first sight.
        """
        non_targets = list(non_targets)
        if target in non_targets:
            raise ValueError(
                f"target {target!r} also appears in the non-target list"
            )
        graph = self.context.engine.database.graph
        graph.index_of(target)
        for nt in non_targets:
            graph.index_of(nt)
        pid = self._next_problem_id
        self._next_problem_id += 1
        spec = (target, tuple(non_targets))
        self._problems[pid] = spec
        if self.context.problems is None:
            self.context.problems = {}
        # The ship context shares this dict (dataclasses.replace copies
        # the reference), so workers spawned later inherit the table.
        self.context.problems[pid] = spec
        return pid

    def score_fused(
        self,
        arrays: list[np.ndarray],
        provenances: list[Provenance | None] | None,
        problem_ids: list[int | None],
    ) -> list[ScoreSet]:
        """Score one fused batch whose items may belong to *different*
        registered problems.

        This entry point deliberately bypasses the provider-level score
        cache: that LRU is keyed by sequence bytes alone, which is only
        correct when every item shares one problem.  Fabric clients keep
        their own per-problem caches instead.  Degradation, retries,
        delta re-scoring and the elastic pool behave exactly as in
        :meth:`scores` — the similarity sweep is problem-independent, so
        one problem's children patch from structures another problem's
        candidates left in the master's LRU.
        """
        arrs = [np.asarray(a, dtype=np.uint8) for a in arrays]
        provs = (
            list(provenances) if provenances is not None else [None] * len(arrs)
        )
        pids = list(problem_ids)
        if len(provs) != len(arrs) or len(pids) != len(arrs):
            raise ValueError(
                f"{len(arrs)} sequences, {len(provs)} provenances, "
                f"{len(pids)} problem ids — lengths must match"
            )
        for pid in pids:
            if pid is not None and pid not in self._problems:
                raise ValueError(f"unregistered problem id {pid}")
        self._closed = False
        return self._score_problem_batch(arrs, provs, pids)

    # -- lifecycle ---------------------------------------------------------

    def _spawn_worker(self) -> int:
        """Start one worker process under a fresh, never-reused worker id.

        Every worker gets a private inbox, the only queue it reads.  A
        worker spawned mid-campaign (elastic scale-up) late-attaches to
        the existing shared proteome segment; if the segment is somehow
        gone the pickled engine is shipped instead — slower, never wrong.
        """
        wid = self._next_worker_id
        self._next_worker_id += 1
        ship = self._ship_context
        if ship is not self.context and self._shm_view is not None:
            if self._shm_view.closed or not SharedProteomeView.attachable(
                self._shm_view.handle
            ):  # pragma: no cover - defensive, segment lives while open
                ship = self.context
        inbox = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(wid, ship, inbox, self._result_queue),
            daemon=True,
        )
        proc.start()
        self._workers[wid] = proc
        self._inboxes[wid] = inbox
        self.telemetry.set_gauge("parallel.pool_size", len(self._workers))
        return wid

    def _ensure_started(self) -> None:
        if self._workers:
            return
        # Warm the shared engine cache *before* forking so every worker
        # inherits the preprocessed target/non-target structures instead of
        # recomputing them (the paper's offline preprocessing + broadcast).
        with self.telemetry.span("parallel.spawn"):
            self.context.warm_cache()
            if self.share_memory and self._shm_view is None:
                # One segment holds the proteome arrays plus the
                # preprocessed target/non-target similarity CSRs; workers
                # get the handle, not the engine.
                names = [self.context.target, *self.context.non_targets]
                for tgt, nts in self._problems.values():
                    names.append(tgt)
                    names.extend(nts)
                self._shm_view = SharedProteomeView.share(
                    self.context.engine.database,
                    similarity_names=list(dict.fromkeys(names)),
                    telemetry=self.telemetry,
                )
                self._ship_context = self.context.for_shipment(
                    self._shm_view.handle
                )
            self._result_queue = self._ctx.Queue()
            for _ in range(self._target_workers):
                self._spawn_worker()
        self.telemetry.count("parallel.spawns")

    def close(self) -> None:
        if not self._workers and not self._retiring:
            self._release_shm()
            super().close()
            return
        # Drain replies orphaned by a failed batch so worker result puts
        # cannot block shutdown.
        while True:
            try:
                self._result_queue.get_nowait()
            except queue_mod.Empty:
                break
        # Retiring workers already hold their RetireSignal.  A failed
        # batch strands at most IN_FLIGHT_WINDOW items ahead of the
        # signal per worker; its backlog never left the master.
        for wid in self._workers:
            self._inboxes[wid].put(EndSignal())
        for proc in [*self._workers.values(), *self._retiring.values()]:
            proc.join(timeout=self.close_grace_s)
            if proc.is_alive():
                # A hung or wedged worker will never see the EndSignal;
                # escalate so close() stays bounded.
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
                self.force_killed += 1
                self.telemetry.count("parallel.force_killed")
        self._workers = {}
        self._retiring = {}
        for wid in list(self._inboxes):
            self._discard_inbox(wid)
        self._result_queue = None
        # Workers are gone (joined, terminated or killed above), so this
        # is the last mapping in our ownership scope: unlink-on-last-close.
        self._release_shm()
        super().close()

    def _discard_inbox(self, wid: int) -> None:
        """Release the inbox of a worker that is gone.  Whatever is still
        buffered for it has no reader, so interpreter exit must not wait
        for the queue's feeder thread to flush it."""
        inbox = self._inboxes.pop(wid)
        inbox.cancel_join_thread()
        inbox.close()

    def _release_shm(self) -> None:
        """Drop the shared proteome segment; safe with dead workers (the
        kernel frees memory when the last mapping disappears)."""
        if self._shm_view is not None:
            self._shm_view.close()
            self._shm_view = None
        self._ship_context = self.context

    # -- scoring -----------------------------------------------------------

    def _score_uncached(
        self,
        arrays: list[np.ndarray],
        provenances: list[Provenance | None] | None = None,
    ) -> list[ScoreSet]:
        provs = (
            list(provenances) if provenances is not None else [None] * len(arrays)
        )
        return self._score_problem_batch(arrays, provs, [None] * len(arrays))

    def _score_problem_batch(
        self,
        arrays: list[np.ndarray],
        provs: list[Provenance | None],
        pids: list[int | None],
    ) -> list[ScoreSet]:
        """One batch through the supervised pool; ``pids`` binds each item
        to a registered problem (None = the context default)."""
        start = time.perf_counter()
        degrade = not self.fail_fast
        if degrade and not self.breaker.allow():
            # Breaker open: the pool recently lost a batch; stay serial
            # (no respawn-and-die thrash) until a probe is due.
            results = self._score_batch_serial(
                arrays, provs, pids, reason="breaker_open"
            )
        else:
            probing = degrade and self.breaker.state == BreakerState.HALF_OPEN
            if probing:
                self.telemetry.count("parallel.breaker_probes")
            degraded = 0
            try:
                results, degraded = self._score_via_pool(arrays, provs, pids)
            finally:
                # A WorkerFailureError (scoring bug) says nothing about
                # pool health, so only batches that ran to completion
                # update the breaker.
                if degrade and (degraded or probing):
                    if degraded:
                        self.breaker.record_failure()
                    else:
                        self.breaker.record_success()
        self._batches += 1
        self._batch_wall += time.perf_counter() - start
        return results

    def _work_item(
        self,
        sid: int,
        epoch: int,
        arr: np.ndarray,
        prov: Provenance | None,
        pid: int | None,
    ) -> WorkItem:
        """One wire item, carrying what the master's LRU holds for it: the
        candidate's own structure if known, else those of its provenance
        parents (a parent the LRU evicted only enlarges the re-sweep)."""
        key = arr.tobytes()
        carried = ()
        if self.use_delta:
            own = self._master_similarity.get(key)
            if own is not None:
                carried = ((key, own),)
            elif prov is not None:
                carried = tuple(
                    (parent, similarity)
                    for parent in prov.parent_keys()
                    if (similarity := self._master_similarity.get(parent))
                    is not None
                )
        return WorkItem(
            sequence_id=sid,
            payload=key,
            batch_epoch=epoch,
            provenance=prov if self.use_delta else None,
            problem_id=pid,
            problem=self._problems[pid] if pid is not None else None,
            similarities=carried,
        )

    def _snapshot(self, sched: OnDemandScheduler, batch_size: int) -> PoolSnapshot:
        """The observation record the elastic controller decides from."""
        return PoolSnapshot(
            live_workers=len(self._workers),
            backlog=sched.remaining,
            outstanding=sched.outstanding,
            latency_ewma_s=self._controller.latency_ewma_s,
            batch_size=batch_size,
        )

    def _set_queue_depth(self, depth: int) -> None:
        self.telemetry.set_gauge("parallel.queue_depth", depth)

    def _hand_out(self, sched: OnDemandScheduler) -> None:
        """Top every live worker's window up from the backlog, one item
        per worker per pass so a short batch spreads over the pool."""
        for _ in range(IN_FLIGHT_WINDOW):
            for wid in self._workers:
                if sched.in_flight(wid) >= IN_FLIGHT_WINDOW:
                    continue
                item = sched.next_for(wid)
                if item is None:
                    return
                self._inboxes[wid].put(item)
                self.dispatched += 1
                self.telemetry.count("parallel.dispatched")

    def _score_via_pool(
        self,
        arrays: list[np.ndarray],
        provs: list[Provenance | None],
        pids: list[int | None],
    ) -> tuple[list[ScoreSet], int]:
        """Dispatch one batch to the worker pool; returns the scores and
        how many items had to be degraded to master-serial scoring."""
        self._ensure_started()
        # Workers lost *between* batches: reap them now so the controller
        # observes the real pool, then refill to target.
        if self._reap_dead_workers():
            self._respawn_to_target()
        self._epoch += 1
        epoch = self._epoch
        degraded = 0
        results: list[ScoreSet | None] = [None] * len(arrays)
        with self.telemetry.span("parallel.batch"):
            sched = OnDemandScheduler(
                [
                    self._work_item(sid, epoch, arr, provs[sid], pids[sid])
                    for sid, arr in enumerate(arrays)
                ]
            )

            def pump() -> None:
                # Resize first: fresh workers get work in the same step
                # and a retiring one is never handed more.
                self._maybe_resize(self._snapshot(sched, len(arrays)), sched)
                self._hand_out(sched)
                self._set_queue_depth(sched.remaining)

            try:
                pump()
                last_progress = self._clock()
                while not sched.done:
                    try:
                        msg = self._result_queue.get(timeout=self.poll_interval)
                    except queue_mod.Empty:
                        dead = self._reap_dead_workers()
                        if dead:
                            try:
                                self._recover(dead, sched)
                            except DeadWorkerError as exc:
                                if self.fail_fast:
                                    raise
                                degraded += self._degrade_pending(
                                    arrays, provs, pids, sched.missing(),
                                    results, reason=str(exc),
                                )
                                break
                            last_progress = self._clock()
                        elif self._clock() - last_progress > self.timeout:
                            missing = sched.missing()
                            if self.fail_fast:
                                raise RuntimeError(
                                    f"timed out waiting for worker results "
                                    f"({len(arrays) - len(missing)}/{len(arrays)} "
                                    f"received; missing sequence ids {missing[:10]})"
                                ) from None
                            degraded += self._degrade_pending(
                                arrays, provs, pids, missing, results,
                                reason=(
                                    f"collection stalled for {self.timeout}s "
                                    f"with {len(missing)} item(s) outstanding"
                                ),
                            )
                            break
                        pump()
                        continue
                    last_progress = self._clock()
                    if isinstance(msg, WorkFailure):
                        if msg.batch_epoch != epoch:
                            self._drop_stale()
                            continue
                        self.failures += 1
                        self.telemetry.count("parallel.failures")
                        raise WorkerFailureError(
                            f"worker {msg.worker_id} failed on sequence "
                            f"{msg.sequence_id}: {msg.error}\n"
                            f"--- worker traceback ---\n{msg.traceback}"
                        )
                    if not isinstance(msg, WorkResult):  # pragma: no cover
                        raise TypeError(f"unexpected result {type(msg).__name__}")
                    if msg.batch_epoch != epoch or not sched.record(msg):
                        # Stale epoch, or a late reply for an item that was
                        # requeued after a death — either way, not wanted.
                        self._drop_stale()
                        continue
                    results[msg.sequence_id] = msg.scores
                    self._record_result(msg, arrays[msg.sequence_id].tobytes())
                    pump()
            finally:
                # Whatever path ended the batch, consumers of the gauge
                # must never read a stale mid-batch depth.
                self._set_queue_depth(0)
        assert all(r is not None for r in results)
        return results, degraded  # type: ignore[return-value]

    # -- graceful degradation ----------------------------------------------

    def _score_serial(
        self,
        arr: np.ndarray,
        prov: Provenance | None,
        pid: int | None = None,
    ) -> ScoreSet:
        """Score one candidate in the master, exactly as a worker would.

        Runs the same :func:`~repro.parallel.worker.score_candidate_with_delta`
        code path the workers run (delta re-scoring is bit-exact with the
        full sweep), so a degraded item's scores match the pool's answer
        bit for bit.  ``pid`` binds the item to a registered problem (the
        fused path's degradations stay per-problem correct).
        """
        scores, stats = score_candidate_with_delta(
            self.context,
            arr,
            provenance=prov if self.use_delta else None,
            similarity_cache=self._master_similarity if self.use_delta else None,
            problem=self._problems[pid] if pid is not None else None,
        )
        self._record_delta(stats)
        return scores

    def _degrade_pending(
        self,
        arrays: list[np.ndarray],
        provs: list[Provenance | None],
        pids: list[int | None],
        missing: list[int],
        results: list[ScoreSet | None],
        *,
        reason: str,
    ) -> int:
        """Score this batch's unacknowledged items serially in the master.

        Called when the pool is lost (retry budget exhausted) or stalled
        (no progress past ``timeout``); fills ``results`` in place for the
        ``missing`` sequence ids and emits the ``parallel.degraded_*``
        telemetry.
        """
        count = len(missing)
        self.degraded_batches += 1
        self.telemetry.count("parallel.degraded_batches")
        self.telemetry.event(
            "parallel.degraded", items=count, reason=reason
        )
        with self.telemetry.span("parallel.degraded_scoring"):
            for sid in missing:
                results[sid] = self._score_serial(
                    arrays[sid], provs[sid], pids[sid]
                )
                self.degraded_items += 1
                self.telemetry.count("parallel.degraded_items")
        return count

    def _score_batch_serial(
        self,
        arrays: list[np.ndarray],
        provs: list[Provenance | None],
        pids: list[int | None],
        *,
        reason: str,
    ) -> list[ScoreSet]:
        """Score a whole batch serially without touching the pool (the
        breaker-open path; also counts as a degraded batch)."""
        # The pool may never have started (breaker tripped on batch one of
        # a fresh provider after resume); make sure the master's engine
        # holds the preprocessed problem structures.
        self.context.warm_cache()
        self.degraded_batches += 1
        self.telemetry.count("parallel.degraded_batches")
        self.telemetry.event(
            "parallel.degraded", items=len(arrays), reason=reason
        )
        with self.telemetry.span("parallel.degraded_scoring"):
            out: list[ScoreSet] = []
            for arr, prov, pid in zip(arrays, provs, pids):
                out.append(self._score_serial(arr, prov, pid))
                self.degraded_items += 1
                self.telemetry.count("parallel.degraded_items")
        return out

    # -- elastic control ---------------------------------------------------

    def _maybe_resize(self, snap: PoolSnapshot, sched: OnDemandScheduler) -> None:
        """Converge the pool toward the controller's decision.

        Scale-up spawns workers (late-attaching to the shared proteome
        segment); scale-down retires the workers with the least in flight
        first, never dropping below one live worker mid-batch.  The
        target is then pinned to the executed size so death recovery
        (:meth:`_respawn_to_target`) refills to what the policy last
        wanted, not the original ``num_workers``.
        """
        desired = self._controller.decide(snap)
        live = len(self._workers)
        if desired > live:
            added = 0
            while len(self._workers) < desired:
                self._spawn_worker()
                added += 1
            self.scale_ups += added
            self.telemetry.count("parallel.scale_up", added)
        elif desired < live:
            floor = max(1, self.min_workers)
            # Retire the idlest workers first: they exit soonest.
            candidates = sorted(
                self._workers, key=lambda wid: (sched.in_flight(wid), -wid)
            )
            removed = 0
            for wid in candidates:
                if len(self._workers) <= max(floor, desired):
                    break
                self._retire_worker(wid)
                removed += 1
            if removed:
                self.scale_downs += removed
                self.telemetry.count("parallel.scale_down", removed)
        self._target_workers = len(self._workers)

    def _retire_worker(self, wid: int) -> None:
        """Retire one worker: stop handing it work and send the
        :class:`RetireSignal`; the inbox is FIFO, so the worker finishes
        the items already in its window first and their replies are
        recorded as usual."""
        self._retiring[wid] = self._workers.pop(wid)
        self._inboxes[wid].put(RetireSignal())
        self.telemetry.set_gauge("parallel.pool_size", len(self._workers))

    def _respawn_to_target(self) -> None:
        """Refill the pool to the controller's last executed target."""
        while len(self._workers) < max(1, self._target_workers):
            self._spawn_worker()
            self.respawns += 1
            self.telemetry.count("parallel.respawns")

    # -- fault handling ----------------------------------------------------

    def _reap_dead_workers(self) -> list[int]:
        """Remove and count workers whose processes have exited.

        Retiring workers (elastic scale-down) are reaped here too: a clean
        exit (``exitcode`` 0) is the expected retirement and counts as
        ``parallel.retired``; a nonzero exit is a death like any other and
        joins the returned list so recovery re-dispatches its items.
        """
        dead = [wid for wid, proc in self._workers.items() if not proc.is_alive()]
        for wid in dead:
            proc = self._workers.pop(wid)
            proc.join(timeout=0.1)
            self._discard_inbox(wid)
            self.worker_deaths += 1
            self.telemetry.count("parallel.worker_deaths")
        for wid in [w for w, p in self._retiring.items() if not p.is_alive()]:
            proc = self._retiring.pop(wid)
            proc.join(timeout=0.1)
            self._discard_inbox(wid)
            if proc.exitcode not in (0, None):
                # Died mid-retirement — its in-flight item needs recovery.
                dead.append(wid)
                self.worker_deaths += 1
                self.telemetry.count("parallel.worker_deaths")
            else:
                self.retired += 1
                self.telemetry.count("parallel.retired")
        if dead:
            self.telemetry.set_gauge("parallel.pool_size", len(self._workers))
        return dead

    def _recover(self, dead: list[int], sched: OnDemandScheduler) -> None:
        """Respawn replacements and readmit exactly the items the dead
        workers held (the scheduler knows who held what); they go to the
        front of the backlog and the next hand-out re-dispatches them."""
        self._respawn_to_target()
        lost = [sid for wid in dead for sid in sched.requeue_lost(wid)]
        exhausted = sorted(
            sid for sid in lost if sched.retries(sid) > self.max_retries
        )
        if exhausted:
            raise DeadWorkerError(
                f"worker(s) {sorted(dead)} died and sequence(s) "
                f"{exhausted[:10]} exhausted the retry budget of "
                f"{self.max_retries}; {len(lost)} item(s) lost"
            )
        if lost:
            self.retries += len(lost)
            self.telemetry.count("parallel.retries", len(lost))

    def _drop_stale(self) -> None:
        self.stale_dropped += 1
        self.telemetry.count("parallel.stale_dropped")

    def _record_result(self, msg: WorkResult, payload: bytes) -> None:
        wid = msg.worker_id
        self._worker_items[wid] = self._worker_items.get(wid, 0) + 1
        self._worker_busy[wid] = self._worker_busy.get(wid, 0.0) + msg.elapsed
        self._worker_inbox_wait[wid] = (
            self._worker_inbox_wait.get(wid, 0.0) + msg.inbox_wait
        )
        self.telemetry.observe("parallel.inbox_wait", msg.inbox_wait)
        ewma = self._controller.observe_latency(msg.elapsed)
        self.telemetry.set_gauge("parallel.item_latency_ewma", ewma)
        if msg.similarity is not None:
            # Future children of this sequence patch from it, on any worker.
            self._master_similarity.put(payload, msg.similarity)
        if msg.delta is not None:
            if msg.delta.hit:
                self.delta_hits += 1
                self.telemetry.count("pipe.delta.hits")
            else:
                self.delta_fallbacks += 1
                self.telemetry.count("pipe.delta.fallbacks")
            self.delta_rows_rescored += msg.delta.rows_rescored
            self.delta_rows_total += msg.delta.rows_total
            self.telemetry.count("pipe.delta.rows_rescored", msg.delta.rows_rescored)
            self.telemetry.count("pipe.delta.rows_total", msg.delta.rows_total)
        if self.telemetry.enabled:
            self.telemetry.count(f"parallel.worker.{wid}.items")
            self.telemetry.record_timing(f"parallel.worker.{wid}.busy", msg.elapsed)

    # -- runtime statistics --------------------------------------------------

    def worker_stats(self) -> dict[int, dict[str, float]]:
        """Per-worker throughput summary from worker-reported wall times.

        ``utilisation`` divides a worker's busy time by the provider's
        total batch wall time — the per-worker efficiency panel of the
        paper's worker-scaling figures.  ``inbox_wait_s`` is the time the
        worker sat blocked on an empty inbox before its items arrived
        (idle time between batches included).
        """
        out: dict[int, dict[str, float]] = {}
        for wid in sorted(self._worker_items):
            items = self._worker_items[wid]
            busy = self._worker_busy[wid]
            out[wid] = {
                "items": float(items),
                "busy_s": busy,
                "inbox_wait_s": self._worker_inbox_wait[wid],
                "throughput_per_s": items / busy if busy > 0 else 0.0,
                "utilisation": (
                    busy / self._batch_wall if self._batch_wall > 0 else 0.0
                ),
            }
        return out

    def delta_stats(self) -> dict[str, int]:
        """Delta-scoring counters aggregated from worker replies.

        Mirrors the ``pipe.delta.*`` telemetry.  ``sticky_routed`` is
        kept for consumers of the old affinity dispatch and reads 0 by
        construction: every item is handed out on demand.
        """
        return {
            "hits": self.delta_hits,
            "fallbacks": self.delta_fallbacks,
            "rows_rescored": self.delta_rows_rescored,
            "rows_total": self.delta_rows_total,
            "sticky_routed": 0,
        }

    def fault_stats(self) -> dict[str, object]:
        """Fault-tolerance counters (mirrors the ``parallel.*`` telemetry)."""
        return {
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "retries": self.retries,
            "stale_dropped": self.stale_dropped,
            "failures": self.failures,
            "degraded_items": self.degraded_items,
            "degraded_batches": self.degraded_batches,
            "force_killed": self.force_killed,
            "breaker": self.breaker.stats(),
            "epoch": self._epoch,
        }

    def elastic_stats(self) -> dict[str, object]:
        """Elastic-pool counters (mirrors the scaling telemetry)."""
        return {
            **self._controller.stats(),
            "live_workers": len(self._workers),
            "target_workers": self._target_workers,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "retired": self.retired,
        }

    def runtime_stats(self) -> dict[str, object]:
        """Master-side runtime summary (batches, wall time, cache, workers)."""
        return {
            "num_workers": self.num_workers,
            "dispatched": self.dispatched,
            "batches": self._batches,
            "batch_wall_s": self._batch_wall,
            "cache": self.cache_stats,
            "workers": self.worker_stats(),
            "fault_tolerance": self.fault_stats(),
            "elastic": self.elastic_stats(),
            "delta": self.delta_stats(),
            "shm": self.shm_stats(),
        }

    def shm_stats(self) -> dict[str, object] | None:
        """Shared-proteome segment accounting; None when ``share_memory``
        is off or the pool has not started."""
        return self._shm_view.stats() if self._shm_view is not None else None
