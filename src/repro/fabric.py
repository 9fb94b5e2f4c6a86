"""Shared scoring fabric: many design campaigns, one worker pool.

Every campaign paying for its own pool — its own shared-memory segment,
its own spawn cost, its own half-empty batches — is the ceiling on
serving many concurrent design problems.  The expensive work per
candidate (the similarity sweep against the proteome) is
*problem-independent*: the per-problem part is a cheap per-protein score
lookup afterwards.  So candidates from campaigns with *different*
targets can ride in the same dispatch batches — the continuous-batching
pattern from inference serving, applied to protein design.

* :class:`ScoringFabric` owns exactly one
  :class:`~repro.parallel.mp_backend.WorkerPool` (one shared proteome
  segment, one pool) — the same pool, driven through the same
  ``score(arrays, provenances, problems)`` call, that a dedicated
  :class:`~repro.parallel.mp_backend.MultiprocessScoreProvider` wraps —
  and hands out :class:`FabricClient` handles.
* :class:`FabricClient` is a full
  :class:`~repro.ga.fitness.ScoreProvider` bound to its own
  ``(target, non_targets)`` problem — any existing GA engine runs on it
  unchanged, with its *own* bounded LRU score cache (the pool caches no
  scores: a sequence-keyed cache is only correct per problem).  Every
  item of a fused dispatch names its client's problem, so problems
  travel with the work and need no registration.
* A dispatcher thread coalesces concurrently submitted batches into
  fused dispatches.  Flush triggers: ``max_items`` pending,
  ``max_wait_ms`` elapsed since the oldest submission, or every active
  client already has work pending (no more concurrency can arrive, so
  waiting longer buys nothing — a single-client fabric therefore adds
  zero latency).  Items are interleaved round-robin across clients and
  each fused dispatch is capped at ``max_items``, so a 10x-larger
  campaign cannot starve a small one: a client with ``k`` pending items
  waits at most ``ceil(k * n_clients / max_items)`` dispatches.
* Delta re-scoring is untouched: similarity structures are keyed by
  sequence bytes, not by problem, so the pool's one LRU and delta
  provenance work across clients exactly as within one campaign.
* A client closing (or its campaign crashing and abandoning a
  submission mid-batch) never wedges the fabric: its pending items are
  discarded (``fabric.abandoned_items``) and the remaining clients keep
  being served; pool faults degrade through the pool's supervisor
  machinery as usual and fail only the submissions fused into the
  faulty dispatch.

Results are **bit-exact per campaign** with a dedicated
:class:`~repro.parallel.mp_backend.MultiprocessScoreProvider`: scoring
is a pure function of (candidate, problem, database), each client's LRU
matches a dedicated provider's, and the GA's RNG trajectory never
depends on how batches were fused.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.ga.fitness import CachingScoreProvider, ScoreSet
from repro.parallel.messages import Problem
from repro.parallel.mp_backend import WorkerPool
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ppi.delta import Provenance

__all__ = [
    "ScoringFabric",
    "FabricClient",
    "FabricClosedError",
    "ClientClosedError",
    "plan_fused_take",
]


class FabricClosedError(RuntimeError):
    """The fabric was closed while (or before) a submission was served."""


class ClientClosedError(RuntimeError):
    """The client was closed; its pending submissions were abandoned."""


def plan_fused_take(pending: Mapping[int, int], max_items: int) -> dict[int, int]:
    """How many items each client contributes to the next fused dispatch.

    Round-robin: one item per client per round, clients visited in id
    order, until ``max_items`` are taken or every queue is empty.  This
    is the fabric's fairness rule — a small client's items always land
    within the first few dispatches regardless of how deep a large
    client's backlog is.  Pure function, unit-testable without threads.
    """
    if max_items < 1:
        raise ValueError(f"max_items must be >= 1, got {max_items}")
    remaining = {cid: int(n) for cid, n in pending.items() if n > 0}
    take = dict.fromkeys(remaining, 0)
    budget = max_items
    while budget > 0 and remaining:
        for cid in sorted(remaining):
            if budget == 0:
                break
            take[cid] += 1
            remaining[cid] -= 1
            if remaining[cid] == 0:
                del remaining[cid]
            budget -= 1
    return {cid: n for cid, n in take.items() if n > 0}


@dataclass
class _ClientState:
    """Master-side record of one registered client."""

    client_id: int
    problem: Problem
    closed: bool = False
    items_scored: int = 0


@dataclass
class _Submission:
    """One client batch awaiting fused dispatch.

    ``cursor`` counts items already scored (a large submission is served
    across several fused dispatches); the waiter is released when every
    item has a result, or immediately with ``error`` set.
    """

    client: _ClientState
    arrays: list[np.ndarray]
    provenances: list["Provenance | None"]
    enqueued_at: float
    results: list[ScoreSet | None] = field(default_factory=list)
    cursor: int = 0
    error: BaseException | None = None
    event: threading.Event = field(default_factory=threading.Event)

    def __post_init__(self) -> None:
        if not self.results:
            self.results = [None] * len(self.arrays)

    @property
    def remaining(self) -> int:
        return len(self.arrays) - self.cursor

    def fail(self, exc: BaseException) -> None:
        self.error = exc
        self.event.set()

    def finish(self) -> None:
        self.event.set()


class _Shutdown:
    """Inbox sentinel: drain, fail leftovers, exit the dispatcher."""


_WAKE = object()  # inbox sentinel: re-evaluate flush/abandon conditions


class ScoringFabric:
    """A long-lived scoring service multiplexing campaigns onto one pool.

    Parameters
    ----------
    source:
        Anything :func:`repro.providers.make_engine` accepts (an engine,
        database, graph or world) — the one proteome every client's
        problem must name proteins from.
    config:
        PIPE parameters when ``source`` is a graph.
    max_items:
        Cap on items per fused dispatch; also the backlog level that
        triggers an immediate flush.  Bounds both batch latency and the
        fairness delay (see :func:`plan_fused_take`).
    max_wait_ms:
        Coalescing window: a submission is never held longer than this
        waiting for co-riders.  The window only matters when some active
        client is *between* generations — once every active client has
        work pending, the fabric flushes immediately.
    telemetry:
        Registry for the ``fabric.*`` metrics (and the pool's
        ``parallel.*`` ones).  Updated from the dispatcher thread under
        the fabric lock.
    **pool_settings:
        Forwarded to the single
        :class:`~repro.parallel.mp_backend.WorkerPool`
        (``num_workers=``, ``timeout=``, ``faults=`` ...),
        which is built here — a bad setting fails the constructor, not
        the first job — while its workers still spawn on first use.

    Use as a context manager; :meth:`close` closes every client, stops
    the dispatcher and reaps the pool.
    """

    def __init__(
        self,
        source: object,
        *,
        config: object | None = None,
        max_items: int = 64,
        max_wait_ms: float = 5.0,
        telemetry: MetricsRegistry | None = None,
        **pool_settings: object,
    ) -> None:
        if max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {max_items}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        from repro.providers import make_engine

        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._engine = make_engine(source, config, telemetry=telemetry)
        self.max_items = int(max_items)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self.pool = WorkerPool(
            self._engine, telemetry=self.telemetry, **pool_settings
        )
        self._lock = threading.Lock()
        self._clients: dict[int, _ClientState] = {}
        self._next_client_id = 0
        self._inbox: "queue_mod.Queue[object]" = queue_mod.Queue()
        self._dispatcher: threading.Thread | None = None
        self._closed = False
        self._broken: BaseException | None = None
        self.fused_batches = 0
        self.fused_items = 0
        self.abandoned_items = 0
        self.pending_items = 0

    # -- client lifecycle ----------------------------------------------------

    def client(
        self,
        target: str,
        non_targets: list[str],
        *,
        cache_size: int = 100_000,
        telemetry: MetricsRegistry | None = None,
    ) -> "FabricClient":
        """Validate a design problem and return its scoring handle.

        ``cache_size``/``telemetry`` configure the client's own LRU
        score cache — same defaults as a dedicated provider, so campaign
        cache behaviour (and hence the scores, history and RNG
        trajectory) is bit-exact with one.
        """
        with self._lock:
            if self._closed:
                raise FabricClosedError("cannot register on a closed fabric")
            problem = self.pool.warm(target, non_targets)
            cid = self._next_client_id
            self._next_client_id += 1
            state = _ClientState(cid, problem)
            self._clients[cid] = state
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="repro-fabric-dispatch",
                    daemon=True,
                )
                self._dispatcher.start()
            self.telemetry.set_gauge("fabric.clients", self._active_locked())
        return FabricClient(
            self, state, cache_size=cache_size, telemetry=telemetry
        )

    def _active_locked(self) -> int:
        return sum(1 for s in self._clients.values() if not s.closed)

    def _close_client(self, state: _ClientState) -> None:
        with self._lock:
            if state.closed:
                return
            state.closed = True
            self.telemetry.set_gauge("fabric.clients", self._active_locked())
        # Nudge the dispatcher so the client's pending submissions are
        # abandoned promptly instead of at the next natural wake-up.
        self._inbox.put(_WAKE)

    def close(self) -> None:
        """Close every client, stop the dispatcher, reap the pool.

        Idempotent; safe with submissions in flight (their waiters get
        :class:`FabricClosedError`).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for state in self._clients.values():
                state.closed = True
            self.telemetry.set_gauge("fabric.clients", 0)
            dispatcher = self._dispatcher
        if dispatcher is not None:
            self._inbox.put(_Shutdown())
            dispatcher.join(timeout=60.0)
        self.pool.close()

    def __enter__(self) -> "ScoringFabric":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- submission (client threads) -----------------------------------------

    def _submit(
        self,
        state: _ClientState,
        arrays: list[np.ndarray],
        provenances: "list[Provenance | None] | None",
    ) -> list[ScoreSet]:
        if self._closed:
            raise FabricClosedError("fabric is closed")
        if state.closed:
            raise ClientClosedError(f"fabric client {state.client_id} is closed")
        if self._broken is not None:
            raise FabricClosedError(
                "fabric dispatcher died"
            ) from self._broken
        arrs = [np.asarray(a, dtype=np.uint8) for a in arrays]
        if not arrs:
            return []
        provs = (
            list(provenances)
            if provenances is not None
            else [None] * len(arrs)
        )
        sub = _Submission(
            client=state,
            arrays=arrs,
            provenances=provs,
            enqueued_at=time.monotonic(),
        )
        self._inbox.put(sub)
        # Wake periodically so a dispatcher death between our enqueue and
        # its drain can never strand this waiter.
        while not sub.event.wait(timeout=1.0):
            if self._broken is not None:
                raise FabricClosedError(
                    "fabric dispatcher died"
                ) from self._broken
        if sub.error is not None:
            raise sub.error
        return list(sub.results)  # type: ignore[arg-type]

    # -- dispatcher (one background thread) ----------------------------------

    def _dispatch_loop(self) -> None:
        pending: "OrderedDict[int, deque[_Submission]]" = OrderedDict()
        try:
            while True:
                for msg in self._next_messages(pending):
                    if isinstance(msg, _Shutdown):
                        self._drain_on_shutdown(pending)
                        return
                    if isinstance(msg, _Submission):
                        if msg.client.closed:
                            msg.fail(
                                ClientClosedError(
                                    f"client {msg.client.client_id} closed"
                                )
                            )
                        else:
                            pending.setdefault(
                                msg.client.client_id, deque()
                            ).append(msg)
                self._discard_abandoned(pending)
                while self._should_flush(pending):
                    self._execute_dispatch(pending)
                    self._discard_abandoned(pending)
        except BaseException as exc:  # pragma: no cover - safety net
            self._broken = exc
            for q in pending.values():
                for sub in q:
                    sub.fail(exc)
            raise

    def _next_messages(
        self, pending: "OrderedDict[int, deque[_Submission]]"
    ) -> list[object]:
        """Block for at least one inbox message (bounded by the oldest
        pending submission's coalescing deadline), then drain the rest
        non-blocking so co-arrivals fuse in one planning pass."""
        timeout = None
        oldest = self._oldest_enqueue(pending)
        if oldest is not None:
            timeout = max(
                0.0, oldest + self.max_wait_s - time.monotonic()
            )
        msgs: list[object] = []
        try:
            msgs.append(self._inbox.get(timeout=timeout))
        except queue_mod.Empty:
            pass  # coalescing window expired; flush check takes over
        while True:
            try:
                msgs.append(self._inbox.get_nowait())
            except queue_mod.Empty:
                return msgs

    @staticmethod
    def _oldest_enqueue(
        pending: "OrderedDict[int, deque[_Submission]]"
    ) -> float | None:
        heads = [q[0].enqueued_at for q in pending.values() if q]
        return min(heads) if heads else None

    def _should_flush(
        self, pending: "OrderedDict[int, deque[_Submission]]"
    ) -> bool:
        total = sum(sub.remaining for q in pending.values() for sub in q)
        if total == 0:
            return False
        if total >= self.max_items:
            return True
        oldest = self._oldest_enqueue(pending)
        if oldest is not None and time.monotonic() - oldest >= self.max_wait_s:
            return True
        # Every active client already has work queued: no further
        # concurrency can arrive (each campaign blocks on its
        # submission), so waiting longer only adds latency.
        with self._lock:
            active = [
                s.client_id
                for s in self._clients.values()
                if not s.closed
            ]
        return bool(active) and all(
            pending.get(cid) for cid in active
        )

    def _discard_abandoned(
        self, pending: "OrderedDict[int, deque[_Submission]]"
    ) -> None:
        """Drop pending submissions of closed clients so an abandoned
        campaign cannot hold fused-dispatch capacity (or wedge waiters
        that may no longer exist)."""
        for cid in list(pending):
            with self._lock:
                state = self._clients.get(cid)
                closed = state is None or state.closed
            if not closed:
                continue
            dropped = 0
            for sub in pending.pop(cid):
                dropped += sub.remaining
                sub.fail(ClientClosedError(f"client {cid} closed"))
            if dropped:
                self.abandoned_items += dropped
                with self._lock:
                    self.telemetry.count("fabric.abandoned_items", dropped)
                    self.telemetry.event(
                        "fabric.client_abandoned", client=cid, items=dropped
                    )
        # Reconcile the pending gauge from the structure itself rather
        # than incrementally: a client close racing the flush used to
        # leave its abandoned items counted as pending forever.  This
        # runs after every inbox drain and every fused dispatch, so the
        # gauge always reflects exactly what is still awaiting dispatch.
        self._reconcile_pending(pending)

    def _reconcile_pending(
        self, pending: "Mapping[int, deque[_Submission]]"
    ) -> None:
        count = sum(sub.remaining for q in pending.values() for sub in q)
        self.pending_items = count
        with self._lock:
            self.telemetry.set_gauge("fabric.pending_items", count)

    def _execute_dispatch(
        self, pending: "OrderedDict[int, deque[_Submission]]"
    ) -> None:
        """Plan, interleave and score one fused dispatch synchronously."""
        now = time.monotonic()
        counts = {
            cid: sum(sub.remaining for sub in q)
            for cid, q in pending.items()
            if q
        }
        take = plan_fused_take(counts, self.max_items)
        # Per-client FIFO selections honouring each submission's cursor.
        lanes: dict[int, deque[tuple[_Submission, int]]] = {}
        for cid, n in take.items():
            lane: deque[tuple[_Submission, int]] = deque()
            offset = 0
            for sub in pending[cid]:
                idx = sub.cursor
                while idx < len(sub.arrays) and offset < n:
                    lane.append((sub, idx))
                    idx += 1
                    offset += 1
                if offset >= n:
                    break
            lanes[cid] = lane
        order: list[tuple[_Submission, int]] = []
        while any(lanes.values()):
            for cid in sorted(lanes):
                if lanes[cid]:
                    order.append(lanes[cid].popleft())
        arrays = [sub.arrays[i] for sub, i in order]
        provs = [sub.provenances[i] for sub, i in order]
        problems = [sub.client.problem for sub, _ in order]
        with self._lock:
            for sub, _ in order:
                self.telemetry.observe(
                    "fabric.queue_wait", now - sub.enqueued_at
                )
        try:
            scores = self.pool.score(arrays, provs, problems)
        except BaseException as exc:
            # Fail exactly the submissions fused into this dispatch; the
            # rest of the backlog (and future submissions) keep flowing.
            failed = {id(sub): sub for sub, _ in order}
            for sub in failed.values():
                sub.fail(exc)
                q = pending.get(sub.client.client_id)
                if q is not None and sub in q:
                    q.remove(sub)
            with self._lock:
                self.telemetry.count("fabric.failed_dispatches")
            return
        taken_per_sub: dict[int, int] = {}
        for (sub, i), score in zip(order, scores):
            sub.results[i] = score
            taken_per_sub[id(sub)] = taken_per_sub.get(id(sub), 0) + 1
        subs = {id(sub): sub for sub, _ in order}
        for key, sub in subs.items():
            sub.cursor += taken_per_sub[key]
            if sub.cursor == len(sub.arrays):
                q = pending[sub.client.client_id]
                q.remove(sub)
                sub.finish()
        for cid in [c for c, q in pending.items() if not q]:
            del pending[cid]
        self.fused_batches += 1
        self.fused_items += len(order)
        with self._lock:
            self.telemetry.count("fabric.fused_batches")
            self.telemetry.count("fabric.fused_items", len(order))
            if self.telemetry.enabled:
                per_client: dict[int, int] = {}
                for sub, _ in order:
                    cid = sub.client.client_id
                    per_client[cid] = per_client.get(cid, 0) + 1
                for cid, n in per_client.items():
                    self._clients[cid].items_scored += n
                    self.telemetry.count(f"fabric.client.{cid}.items", n)
            else:
                for sub, _ in order:
                    sub.client.items_scored += 1

    def _drain_on_shutdown(
        self, pending: "OrderedDict[int, deque[_Submission]]"
    ) -> None:
        """Fail every pending and still-enqueued submission on close."""
        exc = FabricClosedError("fabric closed with submissions in flight")
        for q in pending.values():
            for sub in q:
                sub.fail(exc)
        pending.clear()
        self._reconcile_pending(pending)
        while True:
            try:
                msg = self._inbox.get_nowait()
            except queue_mod.Empty:
                return
            if isinstance(msg, _Submission):
                msg.fail(exc)

    # -- statistics ----------------------------------------------------------

    def fabric_stats(self) -> dict[str, object]:
        """Coalescer counters (mirrors the ``fabric.*`` telemetry)."""
        with self._lock:
            per_client = {
                state.client_id: {
                    "target": state.problem[0],
                    "items": state.items_scored,
                    "closed": state.closed,
                }
                for state in self._clients.values()
            }
            active = self._active_locked()
        fused_batches = self.fused_batches
        fused_items = self.fused_items
        return {
            "clients": active,
            "total_clients": self._next_client_id,
            "fused_batches": fused_batches,
            "fused_items": fused_items,
            "mean_fused_size": (
                fused_items / fused_batches if fused_batches else 0.0
            ),
            "abandoned_items": self.abandoned_items,
            "pending": self.pending_items,
            "max_items": self.max_items,
            "max_wait_ms": self.max_wait_s * 1000.0,
            "per_client": per_client,
        }


class FabricClient(CachingScoreProvider):
    """One campaign's scoring handle on a :class:`ScoringFabric`.

    A full :class:`~repro.ga.fitness.ScoreProvider`: the GA engine uses
    it exactly like a dedicated provider.  Scoring submits the batch to
    the fabric and blocks until the coalescer has served every item
    (possibly across several fused dispatches).  The client keeps its
    *own* bounded LRU score cache — per-problem caching cannot be shared
    across clients — sized like a dedicated provider's by default, so
    campaign behaviour is bit-exact with one.

    ``target``/``non_targets`` mirror the other providers' attributes
    (checkpoint fingerprints read them off any provider).  Unlike other
    providers, a closed client is *final*: closing deregisters it from
    the fabric, so scoring again raises :class:`ClientClosedError`
    instead of silently re-acquiring resources.
    """

    def __init__(
        self,
        fabric: ScoringFabric,
        state: _ClientState,
        *,
        cache_size: int = 100_000,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(cache_size=cache_size, telemetry=telemetry)
        self._fabric = fabric
        self._state = state
        self.target, non_targets = state.problem
        self.non_targets = list(non_targets)

    @property
    def client_id(self) -> int:
        """The fabric-assigned client id (the ``fabric.client.<id>.*``
        telemetry key)."""
        return self._state.client_id

    def scores_with_provenance(
        self,
        arrays: "list[np.ndarray]",
        provenances: "list[Provenance | None] | None",
    ) -> list[ScoreSet]:
        # Checked at the public entry, not just the uncached path: a
        # closed client must not keep answering out of its LRU either —
        # close is final and deregisters it from the fabric.
        if self._state.closed:
            raise ClientClosedError(
                f"fabric client {self._state.client_id} is closed"
            )
        return super().scores_with_provenance(arrays, provenances)

    def _score_uncached(
        self,
        arrays: list[np.ndarray],
        provenances: "list[Provenance | None] | None" = None,
    ) -> list[ScoreSet]:
        return self._fabric._submit(self._state, arrays, provenances)

    def close(self) -> None:
        """Deregister from the fabric (abandoning any in-flight
        submissions) and close; idempotent, and final."""
        self._fabric._close_client(self._state)
        super().close()
