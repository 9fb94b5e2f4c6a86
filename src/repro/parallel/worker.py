"""The InSiPS worker (Algorithm 2).

A worker receives the broadcast data once (here: it maps the pool's
shared proteome segment and builds its engine over it, standing in for
the paper's MPI broadcast that "relieves considerable stress from the
shared disks"), then loops: block in
``recv()`` on its own pipe to the master for the next slice of k
candidates, score all k with one :func:`~repro.ga.fitness.score_batch` —
build every candidate's ``sequence_similarity`` structure in one kernel
pass, run PIPE against each problem's target and non-targets in one
fused product per (problem, group) — and ``send()`` the k score sets back
on the same pipe in one reply, which doubles as the request for more
work.  Algorithm 2 builds a candidate's structure once and reuses it for
every prediction; a slice applies the same reuse one level up, paying a
call's fixed costs once per slice instead of once per candidate.  When
the master's end of the pipe closes (the master exited or was killed)
the worker leaves its loop: no worker outlives its master.

Workers keep no state between slices and own no design problem (what
persists is scratch memory: the thread's
:class:`~repro.ppi.kernels.ScratchArena`, whose bytes each slice's
sweep tiles and fused groups overwrite before reading, so a warm worker
does not fault its working set in again on every slice).  The
problems arrive on the :class:`~repro.parallel.messages.WorkSlice` (the
engine's known-protein and evidence caches fill with a problem's
structures the first time a slice names it, unless the shm segment
already carries them — it does for every problem warmed before the pool
started).
Structures neither arrive nor leave: ``score_batch`` runs with no
similarity cache, the full-sweep reference, and the reply carries the
score sets.  Each reply also carries the worker's own ``getrusage``
deltas for the slice (CPU seconds and minor page faults, from ``recv()``
returning to just before the send), which the pool sums per worker.

A slice whose evaluation raises does **not** kill the worker: the
exception is captured as a :class:`~repro.parallel.messages.WorkFailure`
(with the full traceback) and the loop continues, so one poisoned slice
costs one reply, not a worker process.  For deterministic testing of the
master's recovery paths, :func:`worker_loop` optionally takes a
:class:`FaultPlan` that can delay, fail or hard-crash the worker on a
chosen slice.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_mod
from dataclasses import dataclass

from repro.ga.fitness import score_batch
from repro.parallel.messages import EndSignal, WorkFailure, WorkResult, WorkSlice
from repro.ppi.pipe import PipeEngine

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:  # pragma: no cover - not POSIX: usage reads as zero
    getrusage = None

__all__ = [
    "FaultPlan",
    "worker_loop",
]


@dataclass(frozen=True)
class FaultPlan:
    """Test-only fault injection for the worker loop.

    The ``*_on_item`` indices are 0-based counts of the slices *this
    worker* has received on its pipe (a slice holds one or more
    candidates).  ``only_worker`` restricts injection to one worker id;
    respawned workers receive fresh (monotonically increasing) ids, so a
    crash plan targeting worker 0 fires at most once per run — the
    replacement worker is unaffected and recovery is deterministic.

    Attributes
    ----------
    fail_on_item:
        Raise inside the scoring path at this slice (surfaces as a
        :class:`~repro.parallel.messages.WorkFailure` naming its
        candidates).
    crash_on_item:
        Hard-exit the worker process (``os._exit``) after receiving this
        slice — it is lost in flight, simulating a node failure.  Replies
        to earlier slices were sent synchronously, so what the master has
        lost is exactly the worker's unacknowledged slices.
    hang_on_item / hang_s:
        Stop responding at this slice: sleep ``hang_s`` seconds (bounded,
        so an orphaned test process still dies) while holding it —
        simulating a hung node the master can only time out on.
    delay_on_item / delay:
        Sleep ``delay`` seconds before scoring, inside the timed region
        — the worker-reported elapsed (and hence the busy time the
        master accounts to the worker) includes it, simulating a
        genuinely slow slice.  With ``delay_on_item`` set, only that
        slice is delayed, otherwise every slice is.
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


def worker_loop(
    worker_id: int, engine: PipeEngine, conn, faults: FaultPlan | None = None
) -> int:
    """Worker main loop; returns the number of slices answered.

    Blocks in ``conn.recv()`` — this worker's end of its own duplex pipe
    to the master, the only channel it has — until an :class:`EndSignal`
    (pool shutdown) arrives or the master's end closes; the pipe is FIFO,
    so every slice handed out before the signal is scored first.  Each
    slice is scored in one ``score_batch`` against ``engine`` and
    answered with one reply, sent synchronously on the same pipe; it is
    what prompts the master to hand this worker its next slice.  A
    scoring exception is reported as a :class:`WorkFailure` and the loop
    continues with the next slice.  ``faults`` is a test-only
    :class:`FaultPlan`; production runs leave it ``None``.
    """
    inject = faults is not None and faults.applies_to(worker_id)
    processed = 0
    while True:
        waited = time.perf_counter()
        try:
            message = conn.recv()
        except (EOFError, ConnectionError):
            # The master's end is closed — it exited or was killed — so
            # there is nobody left to serve.
            break
        inbox_wait = time.perf_counter() - waited
        cpu_at_recv, faults_at_recv = _usage()
        if isinstance(message, EndSignal):
            break
        if not isinstance(message, WorkSlice):
            raise TypeError(f"unexpected message {type(message).__name__}")
        if inject:
            if faults.crash_on_item == processed:
                # Simulated node failure: the received slice dies with us.
                os._exit(1)
            if faults.hang_on_item == processed:
                # Simulated hung node: hold the slice without replying.
                time.sleep(faults.hang_s)
        start = time.perf_counter()
        try:
            if inject and faults.delay > 0.0 and faults.delay_on_item in (
                None,
                processed,
            ):
                # Simulated slow slice: inside the timed region, so the
                # reported elapsed (the worker's busy time) includes it.
                time.sleep(faults.delay)
            if inject and faults.fail_on_item == processed:
                raise RuntimeError(
                    f"injected failure on slice {processed} of worker {worker_id}"
                )
            scores, _ = score_batch(
                engine, message.arrays(), list(message.problems)
            )
            cpu_s, minor_faults = _usage()
            reply = WorkResult(
                message.sequence_ids,
                worker_id,
                tuple(scores),
                time.perf_counter() - start,
                batch_epoch=message.batch_epoch,
                inbox_wait=inbox_wait,
                cpu_s=cpu_s - cpu_at_recv,
                minor_faults=minor_faults - faults_at_recv,
            )
        except Exception as exc:
            reply = WorkFailure(
                sequence_ids=message.sequence_ids,
                worker_id=worker_id,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback_mod.format_exc(),
                batch_epoch=message.batch_epoch,
            )
        try:
            conn.send(reply)
        except ConnectionError:
            break  # master gone mid-batch: as above
        processed += 1
    return processed


def _usage() -> tuple[float, int]:
    """This process's CPU seconds (user + system) and minor page faults."""
    if getrusage is None:  # pragma: no cover - not POSIX
        return 0.0, 0
    usage = getrusage(RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, usage.ru_minflt
