"""Multiprocessing realisation of the master/worker runtime.

One scoring stack, two thin fronts.  :class:`WorkerPool` is the runtime:
worker processes, request-on-demand dispatch, recovery and the shared
proteome segment.  It owns no design problem
and no score cache — every item it is handed names the
:data:`~repro.ga.fitness.Problem` it is scored against, so one
campaign or many take the same path through it.  Its whole surface is
:meth:`~WorkerPool.warm`, :meth:`~WorkerPool.score`,
:meth:`~WorkerPool.stats` and :meth:`~WorkerPool.close`.

:class:`MultiprocessScoreProvider` is the dedicated front: one problem,
the bounded-LRU score cache of
:class:`~repro.ga.fitness.CachingScoreProvider`, and a pool of its own.
It plugs into the GA engine through the
:class:`~repro.ga.fitness.ScoreProvider` interface, so
``InSiPSEngine(provider, ...)`` runs the identical GA whether scores come
from this parallel backend or the serial reference path — the property the
integration tests assert.  The shared front is
:class:`repro.fabric.ScoringFabric`, whose clients' batches are fused
onto one pool.

Request-on-demand dispatch in slices (Algorithms 1–2)
-----------------------------------------------------
The channels are point-to-point, as in the paper's MPI: one duplex pipe
per worker and nothing shared between workers.  A worker blocks in
``recv()`` on its pipe and answers with a synchronous ``send()``; the
master blocks in one :func:`multiprocessing.connection.wait` over every
worker's pipe and process sentinel.  No queue, lock or thread sits in
between.  The master keeps a batch's backlog in an
:class:`~repro.parallel.scheduler.OnDemandScheduler` and hands it out in
**slices**: k candidates a worker scores in one
:func:`~repro.ga.fitness.score_batch` and answers in one reply.  The
slice size needs no knob — guided self-scheduling with a floor,
``max(SLICE_FLOOR, ceil(backlog / (2 × live workers)))``, and a backlog
short of ``live workers × SLICE_FLOOR`` split evenly over the workers
holding none of it — so early slices are large, the tail balances on
demand, and no slice pays a round trip for one candidate
(:data:`~repro.parallel.scheduler.SLICE_FLOOR` = 8, the smallest slice
within ~10 % of a large slice's cost per candidate).  It keeps
:data:`IN_FLIGHT_WINDOW` slices in flight per worker — one executing,
one prefetched, so a worker never idles for a master round trip.  Each
reply is that worker's request for more: the master records it and tops
the worker's window up.  Because the scheduler knows which worker holds
which slice, recovery is precise (see below).

Sends are synchronous, and a master blocked sending to a worker that is
itself blocked sending a reply would be a deadlock no stall timeout
could catch — the master would never get back to its wait.  So the master
pickles each slice itself and sends the frame with ``send_bytes``,
trimming the slice until the frame fits the worker pipe's share of the
socket buffer: the master end's ``SO_SNDBUF``, read at spawn, divided by
:data:`IN_FLIGHT_WINDOW`.  A worker sending a reply has read the slice
it answers, so at most one other slice — one share — is unread in its
pipe and the master's send completes.  A single candidate whose frame
alone exceeds the share goes only to a worker with nothing unanswered,
which is reading its pipe.  The window counts every slice sent and not
yet answered, a previous batch's orphans included.  The master's sends
therefore never wait on a worker that is waiting on the master.

The pool has one size, ``num_workers`` — the paper's nodes − 1 workers —
spawned on the first batch; death recovery refills it to that size.

The broadcast is one shared-memory segment
(:class:`~repro.ppi.shm.SharedProteomeView`), created when the pool
starts: the proteome arrays plus the warmed problems' similarity
structures and PIPE evidence, built once in the master.  Every worker,
a respawned one too, under every start method, gets a kilobyte-scale
handle, maps the segment and builds its engine over it with the
evidence already in its LRU — ready to score the moment it is up.  A worker that
cannot map it (the segment was unlinked behind the pool's back) dies at
once and is recovered like any other death; when the retry budget runs
out, the batch degrades to serial scoring in the master (below).

Workers are stateless, and the pool is a plain "score these candidates
against these problems" runtime: a slice carries sequence ids, payloads
and problems; a worker scores it with
``score_batch(engine, arrays, problems)``, the full-sweep reference; a
reply carries the score sets and the worker's usage figures.  As in
Algorithm 2, a worker builds every candidate's similarity structure
itself from the broadcast data, so no structure crosses a pipe and the
pool keeps no similarity cache.  Delta re-scoring is the serial
provider's route (:class:`~repro.ga.fitness.SerialScoreProvider`); it is
bit-exact with the full sweep, so which provider runs changes only the
cost, never a score.

Fault tolerance
---------------
The runtime is fault tolerant at the task level, the property the paper's
days-long Blue Gene/Q campaigns depend on:

* every batch is stamped with a monotonically increasing ``batch_epoch``;
  a reply from an earlier epoch (orphaned by a stall or a dead worker)
  is counted and dropped, never assigned to a later candidate that reuses
  the same ``sequence_id``;
* a worker's process sentinel firing in the collection loop's wait *is*
  its death notice (a truncated frame or end-of-file on its pipe counts
  as one too): the dead worker's pipe is read to its end and the replies
  it completed are recorded, then it is reaped, a replacement (with a
  fresh worker id) is spawned, and exactly the candidates of its
  unacknowledged slices go back to the front of the backlog under a
  bounded per-candidate retry budget; the survivors' slices and pipes
  are untouched;
* a worker leaves its loop when the master's end of its pipe closes, so
  a killed master leaves no worker (and no proteome segment) behind;
* a worker-side scoring exception arrives as a
  :class:`~repro.parallel.messages.WorkFailure` and is re-raised on the
  master as :class:`WorkerFailureError` naming every sequence id of the
  slice and carrying the worker traceback, instead of killing the worker
  process silently.

Graceful degradation (the campaign-supervisor contract)
-------------------------------------------------------
The pool **never abandons a batch**: when the re-dispatch retry budget
(:attr:`WorkerPool.MAX_RETRIES`) is exhausted (workers keep dying) or
the collection loop makes no progress for
:attr:`WorkerPool.TIMEOUT_S` (workers hang), the lost items are scored
*serially in the master* by one :func:`~repro.ga.fitness.score_batch`
— the call the workers make — each against its own problem, bit-exact
with the pool's answers, and counted as
``parallel.degraded_items`` / ``parallel.degraded_batches``; the
``parallel.degraded`` event's ``reason`` names the dead workers, the
items that exhausted the budget and the budget, or the stall.
A :class:`~repro.resilience.CircuitBreaker` then keeps subsequent
batches serial (no respawn-and-die thrash); every few batches it lets
one *half-open probe* try the pool again, closing the breaker on
success.

Shutdown is bounded: ``close()`` sends every worker an
:class:`~repro.parallel.messages.EndSignal`, keeps reading (and
discarding) their pipes until each has exited or the grace period runs
out (:attr:`WorkerPool.CLOSE_GRACE_S`) — a worker blocked sending an
orphaned reply still reaches its signal — then escalates ``terminate()``
→ ``kill()`` (counted as ``parallel.force_killed``), so a hung worker
cannot wedge the master.  Settings no caller varies are class constants
of :class:`WorkerPool`, not arguments; tests reach their edge cases with
``monkeypatch.setattr``.

The pool reports the master-side view of the runtime through telemetry
and, as one tree with the same figures, :meth:`WorkerPool.stats`: batch
wall time
(``parallel.batch``), dispatch counters (``parallel.dispatched`` counts
candidates, ``parallel.slices`` the slices they went out in), the live
outstanding-item count
(``parallel.queue_depth``, decaying to 0 as each batch drains), the pool
size (``parallel.pool_size``), the fault-tolerance counters
(``parallel.{worker_deaths,respawns,retries,stale_dropped,failures}``)
and — from what each worker stamps on its replies — per-worker busy
time, item counts, throughput, utilisation and the time spent blocked in
``recv()`` on an empty pipe (``parallel.inbox_wait``, one observation
per slice), exactly the quantities behind the paper's Figures 5–6.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import socket
import time
from multiprocessing.connection import Connection, wait

import numpy as np

from repro.ga.fitness import (
    CachingScoreProvider,
    Problem,
    ScoreSet,
    make_problem,
    score_batch,
)
from repro.parallel.messages import EndSignal, WorkFailure, WorkResult, WorkSlice
from repro.parallel.scheduler import OnDemandScheduler
from repro.parallel.worker import FaultPlan, worker_loop
from repro.ppi.pipe import PipeEngine
from repro.ppi.shm import SharedProteomeView
from repro.resilience.policies import BreakerState, CircuitBreaker
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "IN_FLIGHT_WINDOW",
    "WorkerPool",
    "MultiprocessScoreProvider",
    "WorkerFailureError",
]

#: Slices in flight per worker: one executing plus one prefetched, so a
#: worker finds its next slice already in its pipe when it replies.  The
#: rest of a batch's backlog waits in the master's scheduler.  It also
#: splits the worker pipe's send buffer into frame budgets.
IN_FLIGHT_WINDOW = 2

#: Real seconds between stall checks while every pipe is quiet.  Replies
#: and deaths wake the master at once; this only bounds how late a stall
#: is noticed.
STALL_CHECK_S = 0.25


class WorkerFailureError(RuntimeError):
    """Scoring raised inside a worker; carries the worker traceback."""


def _frame_budget(conn: Connection) -> int:
    """Bytes a slice frame to this pipe may take: the master end's socket
    send buffer, as the kernel reports it, split between the
    :data:`IN_FLIGHT_WINDOW` frames that can sit unread in it."""
    with socket.socket(fileno=os.dup(conn.fileno())) as sock:
        sndbuf = sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    return sndbuf // IN_FLIGHT_WINDOW


def _worker_entry(worker_id, handle, config, faults, conn, master_ends):
    """Top-level function so it pickles under any start method.

    Maps the pool's proteome segment (``handle``), builds the worker's
    engine over it — evidence of every warmed problem included
    (:meth:`~repro.ppi.shm.SharedProteomeView.build_engine`), the one
    worker-init path under every start method — and runs
    :func:`~repro.parallel.worker.worker_loop` until the pipe ``conn``
    says stop.  ``master_ends`` are the master's ends of the pipes open
    at spawn — this worker's own and its older siblings' — which a
    forked child inherits; held open here they would hide the master's
    death."""
    for end in master_ends:
        end.close()
    view = SharedProteomeView.attach(handle)
    try:
        worker_loop(worker_id, view.build_engine(config), conn, faults)
    finally:
        view.close()


class WorkerPool:
    """Supervised pool of worker processes scoring candidates on demand,
    each against the problem its item names (see the module docstring for
    the dispatch and recovery semantics).

    Use as a context manager so the workers are reaped on any exit path.
    Spawning is lazy (the first :meth:`score`), and a closed pool starts
    again on the next one.

    Parameters
    ----------
    engine:
        The broadcast PIPE engine — the paper's "broadcast all loaded
        data to worker processes".  When the pool starts, the database's
        read-only arrays go into one ``multiprocessing.shared_memory``
        segment (:class:`~repro.ppi.shm.SharedProteomeView`); each
        worker receives a kilobyte-scale handle and builds its engine
        over the same physical proteome pages.  The segment is unlinked
        on the pool's :meth:`close`; a SIGKILLed worker cannot leak it.
    num_workers:
        Worker process count (paper: nodes - 1; default: available
        CPUs).  Death recovery refills the pool to it.
    faults:
        Test-only :class:`~repro.parallel.worker.FaultPlan` forwarded to
        the workers; leave ``None`` in production.
    telemetry:
        Metrics registry; defaults to the zero-overhead null registry.

    The pool is guarded by a :class:`~repro.resilience.CircuitBreaker`
    (:attr:`breaker`) that probes every 4th batch while open.
    """

    #: Seconds of *no progress* (no reply received, no dead worker
    #: recovered) the collection loop tolerates before the pool counts as
    #: stalled and the batch's outstanding items degrade.
    TIMEOUT_S = 300.0
    #: Per-item budget of re-dispatches after worker deaths; an item past
    #: it degrades the batch's outstanding items.
    MAX_RETRIES = 3
    #: Grace :meth:`close` gives the workers to exit before escalating to
    #: ``terminate()`` then ``kill()`` (``parallel.force_killed``).
    CLOSE_GRACE_S = 10.0
    #: :mod:`multiprocessing` start method; None means fork where the
    #: platform has it, else the platform default.
    START_METHOD: str | None = None

    def __init__(
        self,
        engine: PipeEngine,
        *,
        num_workers: int | None = None,
        faults: FaultPlan | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self.engine = engine
        self.faults = faults
        self.num_workers = num_workers or max(1, os.cpu_count() or 1)
        self.breaker = CircuitBreaker()
        method = self.START_METHOD
        if method is None and "fork" in mp.get_all_start_methods():
            method = "fork"
        self._ctx = mp.get_context(method)
        self._shm_view: SharedProteomeView | None = None
        self._workers: dict[int, mp.Process] = {}
        # The master's end of the pipe to each worker, the frame budget
        # measured on it at spawn, and the slices sent down it whose reply
        # has not been read (any batch's: the window the budget divides).
        self._conns: dict[int, Connection] = {}
        self._budgets: dict[int, int] = {}
        self._unanswered: dict[int, int] = {}
        self._next_worker_id = 0
        # The protein names (target first) of every warmed problem, in
        # first-seen order: their similarity CSRs and evidence are built
        # before the first spawn and placed in the shm segment.
        self._warm_problems: dict[tuple[str, ...], None] = {}
        self._epoch = 0
        self.dispatched = 0
        self.slices = 0
        self.worker_deaths = 0
        self.respawns = 0
        self.retries = 0
        self.stale_dropped = 0
        self.failures = 0
        self.degraded_items = 0
        self.degraded_batches = 0
        self.force_killed = 0
        # Per worker id: candidates handed out and answered, busy and
        # inbox-wait seconds.
        self._tallies: dict[int, dict[str, float]] = {}
        self._batches = 0
        self._batch_wall = 0.0

    def warm(self, target: str, non_targets: list[str]) -> Problem:
        """Validate one design problem (:func:`~repro.ga.fitness.make_problem`)
        and return it in wire form.

        Problems warmed before the pool starts have their similarity
        structures and evidence built in the master and placed in the
        shared proteome segment, so a worker's first slice of one builds
        nothing; one first named later is built worker-side on first
        sight.
        """
        problem = make_problem(self.engine.database.graph, target, non_targets)
        self._warm_problems[(target, *problem[1])] = None
        return problem

    # -- lifecycle ---------------------------------------------------------

    def _spawn_worker(self) -> int:
        """Start one worker process under a fresh, never-reused worker id.

        Every worker gets a duplex pipe of its own, its only channel,
        whose frame budget is measured here.  A worker respawned after a
        death late-attaches to the existing shared proteome segment.
        """
        wid = self._next_worker_id
        self._next_worker_id += 1
        conn, worker_end = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(
                wid,
                self._shm_view.handle,
                self.engine.config,
                self.faults,
                worker_end,
                [*self._conns.values(), conn],
            ),
            daemon=True,
        )
        proc.start()
        # The worker holds its end now; a copy kept here would hide the
        # worker's death from recv().
        worker_end.close()
        self._workers[wid] = proc
        self._conns[wid] = conn
        self._budgets[wid] = _frame_budget(conn)
        self._unanswered[wid] = 0
        self.telemetry.set_gauge("parallel.pool_size", len(self._workers))
        return wid

    def _ensure_started(self) -> None:
        if self._workers:
            return
        # Warm the engine *before* sharing so the segment carries the
        # preprocessed target/non-target structures and each problem's
        # evidence, and no worker recomputes them (the paper's offline
        # preprocessing + broadcast).
        with self.telemetry.span("parallel.spawn"):
            problems = list(self._warm_problems)
            names = list(dict.fromkeys(n for names in problems for n in names))
            database = self.engine.database
            database.precompute(names)
            if self._shm_view is None:
                # One segment holds the proteome arrays, the target and
                # non-target similarity CSRs and the problems' evidence;
                # workers get the handle, not the engine.
                evidence = {
                    names: arrays
                    for names in problems
                    if (arrays := self.engine.evidence_arrays(names)) is not None
                }
                self._shm_view = SharedProteomeView.share(
                    database,
                    similarity_names=names,
                    evidence=evidence,
                    telemetry=self.telemetry,
                )
            for _ in range(self.num_workers):
                self._spawn_worker()
        self.telemetry.count("parallel.spawns")

    def close(self) -> None:
        """Reap the workers and release the segment; idempotent, bounded."""
        # A failed batch strands at most IN_FLIGHT_WINDOW slices ahead of
        # the signal per worker; its backlog never left the master.
        end = pickle.dumps(EndSignal(), pickle.HIGHEST_PROTOCOL)
        for wid in self._workers:
            self._send(wid, end)
        # Keep reading while they exit: a worker blocked sending a reply
        # nobody wants must get past it to reach its signal.
        procs = self._workers
        deadline = time.monotonic() + self.CLOSE_GRACE_S
        while procs and (left := deadline - time.monotonic()) > 0:
            self._wait(procs, left)
            procs = {wid: proc for wid, proc in procs.items() if proc.is_alive()}
        for proc in procs.values():
            # A hung or wedged worker will never see the EndSignal;
            # escalate so close() stays bounded.
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
            self.force_killed += 1
            self.telemetry.count("parallel.force_killed")
        for conn in self._conns.values():
            conn.close()
        self._workers = {}
        self._conns = {}
        self._budgets = {}
        self._unanswered = {}
        # Workers are gone (joined, terminated or killed above), so this
        # is the last mapping in our ownership scope: unlink-on-last-close.
        # Safe with dead workers too (the kernel frees the memory when the
        # last mapping disappears).
        if self._shm_view is not None:
            self._shm_view.close()
            self._shm_view = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _send(self, wid: int, frame: bytes) -> None:
        """Send one frame the master pickled itself (a slice, or the end
        signal) to worker ``wid``."""
        try:
            self._conns[wid].send_bytes(frame)
        except OSError:
            # Died since the last wait: its sentinel is about to fire and
            # requeues whatever the scheduler says it held.
            pass

    def _wait(
        self, procs: dict[int, mp.Process], timeout: float
    ) -> tuple[list[object], list[int]]:
        """Block until one of ``procs`` replies or ends, ``timeout`` real
        seconds at most; returns the replies read and the ids of the
        workers that are gone.

        A gone worker's pipe is read to its end first, so every reply it
        completed is in the list.  End-of-file or a frame truncated by a
        kill mid-``send`` marks the worker gone; it is never data.  Each
        reply read frees a place in its worker's window.
        """
        conns = {self._conns[wid]: wid for wid in procs}
        sentinels = {proc.sentinel: wid for wid, proc in procs.items()}
        ready = set(wait([*conns, *sentinels], timeout))
        replies: list[object] = []
        gone = {wid for sentinel, wid in sentinels.items() if sentinel in ready}
        for conn, wid in conns.items():
            try:
                if conn in ready:
                    replies.append(conn.recv())
                    self._unanswered[wid] -= 1
                while wid in gone and conn.poll():
                    replies.append(conn.recv())
                    self._unanswered[wid] -= 1
            except (EOFError, OSError):
                gone.add(wid)
        return replies, sorted(gone)

    # -- scoring -----------------------------------------------------------

    def score(
        self, arrays: list[np.ndarray], problems: list[Problem]
    ) -> list[ScoreSet]:
        """Score one batch, item ``i`` against ``problems[i]``, in input
        order.

        The items of a batch may belong to different problems: the
        similarity sweep is problem-independent, so one slice may mix
        them.  Nothing is cached by sequence here — a score cache is only
        correct per problem and belongs to the caller.
        """
        arrays = [np.asarray(a, dtype=np.uint8) for a in arrays]
        problems = list(problems)
        if len(problems) != len(arrays):
            raise ValueError(
                f"{len(arrays)} sequences, {len(problems)} problems — "
                "lengths must match"
            )
        start = time.perf_counter()
        results: list[ScoreSet | None] = [None] * len(arrays)
        if not self.breaker.allow():
            # Breaker open: the pool recently lost a batch; stay serial
            # (no respawn-and-die thrash) until a probe is due.
            self._degrade(
                arrays, problems, range(len(arrays)), results,
                reason="breaker_open",
            )
        else:
            probing = self.breaker.state == BreakerState.HALF_OPEN
            if probing:
                self.telemetry.count("parallel.breaker_probes")
            degraded = 0
            try:
                degraded = self._score_via_pool(arrays, problems, results)
            finally:
                # A WorkerFailureError (scoring bug) says nothing about
                # pool health, so only batches that ran to completion
                # update the breaker.
                if degraded:
                    self.breaker.record_failure()
                elif probing:
                    self.breaker.record_success()
        self._batches += 1
        self._batch_wall += time.perf_counter() - start
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _set_queue_depth(self, depth: int) -> None:
        self.telemetry.set_gauge("parallel.queue_depth", depth)

    def _hand_out(self, sched: OnDemandScheduler) -> None:
        """Top every live worker's window up with slices of the backlog,
        one slice per worker per pass so a short batch spreads over the
        pool."""
        for _ in range(IN_FLIGHT_WINDOW):
            for wid in self._workers:
                if not sched.backlog:
                    return
                unanswered = self._unanswered[wid]
                if unanswered >= IN_FLIGHT_WINDOW:
                    continue
                handed = sched.next_for(
                    wid,
                    workers=len(self._workers),
                    budget=self._budgets[wid],
                    idle=unanswered == 0,
                )
                if handed is None:
                    continue  # its head fits only an idle worker's pipe
                sids, frame = handed
                self._send(wid, frame)
                self._unanswered[wid] += 1
                self._tally(wid)["dispatched"] += len(sids)
                self.dispatched += len(sids)
                self.slices += 1
                self.telemetry.count("parallel.dispatched", len(sids))
                self.telemetry.count("parallel.slices")

    def _score_via_pool(
        self,
        arrays: list[np.ndarray],
        problems: list[Problem],
        results: list[ScoreSet | None],
    ) -> int:
        """Dispatch one batch to the worker pool, filling ``results``;
        returns how many items had to be degraded to master-serial
        scoring."""
        self._ensure_started()
        # Workers lost *between* batches: reap them and refill the pool
        # before anything is handed out.
        lost = [wid for wid, proc in self._workers.items() if not proc.is_alive()]
        if lost:
            self._reap(lost)
            self._respawn_to_target()
        self._epoch += 1
        epoch = self._epoch
        with self.telemetry.span("parallel.batch"):
            payloads = [arr.tobytes() for arr in arrays]

            def frame(sids: tuple[int, ...]) -> bytes:
                return pickle.dumps(
                    WorkSlice(
                        epoch,
                        sids,
                        tuple(payloads[sid] for sid in sids),
                        tuple(problems[sid] for sid in sids),
                    ),
                    pickle.HIGHEST_PROTOCOL,
                )

            sched = OnDemandScheduler(range(len(arrays)), frame)

            def pump() -> None:
                self._hand_out(sched)
                self._set_queue_depth(sched.remaining)

            def degrade_missing(reason: str) -> int:
                return self._degrade(
                    arrays, problems, sched.missing(), results, reason=reason
                )

            try:
                pump()
                last_progress = time.monotonic()
                while not sched.done:
                    replies, gone = self._wait(self._workers, STALL_CHECK_S)
                    # Record what the dead completed, only then requeue
                    # their slices and refill.
                    for msg in replies:
                        if isinstance(msg, WorkFailure):
                            if msg.batch_epoch != epoch:
                                self._drop_stale()
                                continue
                            self.failures += 1
                            self.telemetry.count("parallel.failures")
                            raise WorkerFailureError(
                                f"worker {msg.worker_id} failed on sequence(s) "
                                f"{list(msg.sequence_ids)}: {msg.error}\n"
                                f"--- worker traceback ---\n{msg.traceback}"
                            )
                        if not isinstance(msg, WorkResult):  # pragma: no cover
                            raise TypeError(f"unexpected result {type(msg).__name__}")
                        if msg.batch_epoch != epoch or not sched.record(msg):
                            # Stale epoch, or a late reply for a slice that
                            # was requeued after a death — either way, not
                            # wanted.
                            self._drop_stale()
                            continue
                        for sid, scores in zip(msg.sequence_ids, msg.scores):
                            results[sid] = scores
                        self._record_result(msg)
                    if gone:
                        self._reap(gone)
                        exhausted = self._recover(gone, sched)
                        if exhausted is not None:
                            return degrade_missing(exhausted)
                    if replies or gone:
                        last_progress = time.monotonic()
                    elif time.monotonic() - last_progress > self.TIMEOUT_S:
                        return degrade_missing(
                            f"collection stalled for {self.TIMEOUT_S}s with "
                            f"{len(sched.missing())} item(s) outstanding"
                        )
                    pump()
            finally:
                # Whatever path ended the batch, consumers of the gauge
                # must never read a stale mid-batch depth.
                self._set_queue_depth(0)
        return 0

    # -- graceful degradation ----------------------------------------------

    def _degrade(
        self,
        arrays: list[np.ndarray],
        problems: list[Problem],
        sids,
        results: list[ScoreSet | None],
        *,
        reason: str,
    ) -> int:
        """Score items ``sids`` serially in the master, filling
        ``results`` in place; returns their count.

        Called for a batch's unacknowledged items when the pool is lost
        (retry budget exhausted) or stalled (no progress for
        :attr:`TIMEOUT_S`), and for a whole batch while the breaker is
        open.
        The items go through one :func:`~repro.ga.fitness.score_batch`
        — the call the workers make — each against its own problem, so a
        degraded item's scores match the pool's answer bit for bit.
        """
        sids = list(sids)
        self.degraded_batches += 1
        self.telemetry.count("parallel.degraded_batches")
        self.telemetry.event("parallel.degraded", items=len(sids), reason=reason)
        with self.telemetry.span("parallel.degraded_scoring"):
            score_sets, _ = score_batch(
                self.engine,
                [arrays[sid] for sid in sids],
                [problems[sid] for sid in sids],
            )
        for sid, score_set in zip(sids, score_sets):
            results[sid] = score_set
        self.degraded_items += len(sids)
        self.telemetry.count("parallel.degraded_items", len(sids))
        return len(sids)

    # -- fault handling ----------------------------------------------------

    def _respawn_to_target(self) -> None:
        """Refill the pool to ``num_workers`` after deaths."""
        while len(self._workers) < self.num_workers:
            self._spawn_worker()
            self.respawns += 1
            self.telemetry.count("parallel.respawns")

    def _reap(self, dead: list[int]) -> None:
        """Remove the workers ``dead`` (their processes have ended) and
        count each as a death."""
        for wid in dead:
            self._workers.pop(wid).join(timeout=0.1)
            self._conns.pop(wid).close()
            del self._budgets[wid], self._unanswered[wid]
            self.worker_deaths += 1
            self.telemetry.count("parallel.worker_deaths")
        self.telemetry.set_gauge("parallel.pool_size", len(self._workers))

    def _recover(self, dead: list[int], sched: OnDemandScheduler) -> str | None:
        """Respawn replacements and readmit exactly the candidates of the
        dead workers' unacknowledged slices (the scheduler knows who held
        what); they go to the front of the backlog and the next hand-out
        re-dispatches them, each under its own retry budget.

        Returns None, or — when an item has exhausted
        :attr:`MAX_RETRIES` — the reason the batch must degrade, naming
        the dead workers, the exhausted items and the budget."""
        self._respawn_to_target()
        lost = [sid for wid in dead for sid in sched.requeue_lost(wid)]
        exhausted = sorted(
            sid for sid in lost if sched.retries(sid) > self.MAX_RETRIES
        )
        if exhausted:
            return (
                f"worker(s) {sorted(dead)} died and sequence(s) "
                f"{exhausted[:10]} exhausted the retry budget of "
                f"{self.MAX_RETRIES}; {len(lost)} item(s) lost"
            )
        if lost:
            self.retries += len(lost)
            self.telemetry.count("parallel.retries", len(lost))
        return None

    def _drop_stale(self) -> None:
        self.stale_dropped += 1
        self.telemetry.count("parallel.stale_dropped")

    def _tally(self, wid: int) -> dict[str, float]:
        return self._tallies.setdefault(
            wid,
            {
                "dispatched": 0.0,
                "items": 0.0,
                "busy_s": 0.0,
                "cpu_s": 0.0,
                "minor_faults": 0.0,
                "inbox_wait_s": 0.0,
            },
        )

    def _record_result(self, msg: WorkResult) -> None:
        """Fold one recorded slice into the per-worker tallies."""
        wid = msg.worker_id
        items = len(msg.sequence_ids)
        tally = self._tally(wid)
        tally["items"] += items
        tally["busy_s"] += msg.elapsed
        tally["cpu_s"] += msg.cpu_s
        tally["minor_faults"] += msg.minor_faults
        tally["inbox_wait_s"] += msg.inbox_wait
        self.telemetry.observe("parallel.inbox_wait", msg.inbox_wait)
        if self.telemetry.enabled:
            self.telemetry.count(f"parallel.worker.{wid}.items", items)
            self.telemetry.record_timing(f"parallel.worker.{wid}.busy", msg.elapsed)

    # -- runtime statistics --------------------------------------------------

    def stats(self) -> dict[str, object]:
        """The master-side view of the runtime as one tree (mirrors the
        ``parallel.*`` / ``shm.*`` telemetry).

        ``dispatched`` counts candidates handed out (re-dispatches
        included) and ``slices`` the slices they went out in.
        ``workers[wid]`` holds the candidates handed to that worker
        (``dispatched``) and answered by it (``items``); its
        ``utilisation`` divides its busy time by the pool's total batch
        wall time — the per-worker efficiency panel of the paper's
        worker-scaling figures; ``cpu_s`` and ``minor_faults`` sum the
        worker's own ``getrusage`` deltas over its recorded slices (from
        ``recv()`` returning to just before its reply is sent), so
        ``cpu_s / items`` is the worker's CPU per candidate;
        ``inbox_wait_s`` is the time the worker sat blocked in ``recv()``
        before its slices arrived (idle time between batches included).
        ``delta`` holds only ``sticky_routed``, kept for consumers of the
        old affinity dispatch; it reads 0 by construction (all work is
        handed out on demand, and workers full-sweep, so the pool has no
        delta accounting — ``pipe.delta.*`` comes from the serial provider
        only).  ``shm`` is None while the pool has not started.
        """
        workers: dict[int, dict[str, float]] = {}
        for wid in sorted(self._tallies):
            tally = self._tallies[wid]
            busy = tally["busy_s"]
            workers[wid] = {
                **tally,
                "throughput_per_s": tally["items"] / busy if busy > 0 else 0.0,
                "utilisation": (
                    busy / self._batch_wall if self._batch_wall > 0 else 0.0
                ),
            }
        return {
            "num_workers": self.num_workers,
            "dispatched": self.dispatched,
            "slices": self.slices,
            "batches": self._batches,
            "batch_wall_s": self._batch_wall,
            "workers": workers,
            "fault_tolerance": {
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
            },
            "delta": {"sticky_routed": 0},
            "shm": self._shm_view.stats() if self._shm_view is not None else None,
        }


class MultiprocessScoreProvider(CachingScoreProvider):
    """The dedicated front: one design problem, a bounded-LRU score cache
    and a :class:`WorkerPool` of its own.

    ``num_workers``, ``faults`` and ``telemetry`` go to the
    :class:`WorkerPool`.  The runtime's
    state — counters, breaker, processes — lives on :attr:`pool`.  ``target`` /
    ``non_targets`` mirror the serial provider's attributes (checkpoint
    fingerprints read them off any provider).

    Use as a context manager (``with MultiprocessScoreProvider(...) as p:``)
    so the workers are reaped even when the surrounding GA raises.
    """

    def __init__(
        self,
        engine: PipeEngine,
        target: str,
        non_targets: list[str],
        *,
        num_workers: int | None = None,
        faults: FaultPlan | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(telemetry=telemetry)
        self.pool = WorkerPool(
            engine, num_workers=num_workers, faults=faults, telemetry=telemetry
        )
        self.problem = self.pool.warm(target, non_targets)
        self.target = target
        self.non_targets = list(non_targets)

    def _score_uncached(
        self, arrays: list[np.ndarray], provenances=None
    ) -> list[ScoreSet]:
        # Workers full-sweep: provenance is advisory (see ScoreProvider).
        return self.pool.score(arrays, [self.problem] * len(arrays))

    def set_telemetry(self, telemetry: MetricsRegistry | None) -> None:
        """Attach a registry to this provider and to its :attr:`pool`, so
        the ``parallel.*``/``shm.*`` metrics land in it too."""
        super().set_telemetry(telemetry)
        self.pool.telemetry = self.telemetry

    def runtime_stats(self) -> dict[str, object]:
        """:meth:`WorkerPool.stats` plus this provider's ``cache`` counters."""
        return {**self.pool.stats(), "cache": self.cache_stats}

    def close(self) -> None:
        self.pool.close()
        super().close()
