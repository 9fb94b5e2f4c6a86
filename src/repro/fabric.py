"""Shared scoring fabric: many design campaigns, one worker pool.

Every campaign paying for its own pool — its own shared-memory segment,
its own spawn cost, its own half-empty batches — is the ceiling on
serving many concurrent design problems.  The expensive work per
candidate (the similarity sweep against the proteome) is
*problem-independent*: the per-problem part is a cheap per-protein score
lookup afterwards.  So candidates from campaigns with *different*
targets can ride in the same dispatch batch.

* :class:`ScoringFabric` owns exactly one
  :class:`~repro.parallel.mp_backend.WorkerPool` (one shared proteome
  segment, one pool) — the same pool, driven through the same
  ``score(arrays, problems)`` call, that a dedicated
  :class:`~repro.parallel.mp_backend.MultiprocessScoreProvider` wraps —
  and hands out :class:`FabricClient` handles.
* :class:`FabricClient` is a full
  :class:`~repro.ga.fitness.ScoreProvider` bound to its own
  ``(target, non_targets)`` problem, handed out only by
  :meth:`ScoringFabric.client` (one campaign alone takes
  ``make_score_provider(..., backend="process")``, the same pool path)
  — any existing GA engine runs on it unchanged, with its *own* bounded
  LRU score cache (the pool caches no scores: a sequence-keyed cache is
  only correct per problem).  Every
  item of a fused dispatch names its client's problem, so problems
  travel with the work and need no registration.
* :meth:`ScoringFabric.dispatch` is the one way work reaches the pool:
  one round's cache misses from any number of clients, scored by one
  ``pool.score`` in request order, under one lock.  The design service
  calls it once per round with every running job's misses, so fusion
  happens at the generation barrier and a fused batch's size is an
  exact count, not a property of timing.  A client scoring on its own
  (``FabricClient.scores``, from any thread) dispatches one request;
  concurrent threads are serialised by the lock, not fused.
* Work reaches the pool as candidates and problems only: pool workers
  full-sweep every candidate, so a client's GA provenance is advisory
  here exactly as on a dedicated pool, and fusing campaigns cannot change
  which route scored a candidate.
* Closing a client is final (its next call raises
  :class:`ClientClosedError`) and leaves the fabric serving every other
  client; a pool fault degrades through the pool's supervisor machinery
  as usual and fails only the requests fused into the faulty dispatch.

Results are **bit-exact per campaign** with a dedicated
:class:`~repro.parallel.mp_backend.MultiprocessScoreProvider`: scoring
is a pure function of (candidate, problem, database), each client's LRU
matches a dedicated provider's, and the GA's RNG trajectory never
depends on how batches were fused.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ga.fitness import CacheLookup, CachingScoreProvider, Problem, ScoreSet
from repro.parallel.mp_backend import WorkerPool
from repro.parallel.worker import FaultPlan
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "ScoringFabric",
    "FabricClient",
    "FabricClosedError",
    "ClientClosedError",
]


class FabricClosedError(RuntimeError):
    """The fabric was closed before the dispatch could be served."""


class ClientClosedError(RuntimeError):
    """The client was closed; closing a client is final."""


@dataclass
class _ClientState:
    """Master-side record of one registered client."""

    client_id: int
    problem: Problem
    closed: bool = False
    items_scored: int = 0


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
    num_workers, faults:
        Settings of the single
        :class:`~repro.parallel.mp_backend.WorkerPool`, which is built
        here — a bad setting fails the constructor, not the first job —
        while its workers still spawn on first use.
    telemetry:
        Registry for the ``fabric.*`` metrics (and the pool's
        ``parallel.*`` ones).  Updated under the fabric lock.

    Use as a context manager; :meth:`close` closes every client and
    reaps the pool.
    """

    def __init__(
        self,
        source: object,
        *,
        config: object | None = None,
        num_workers: int | None = None,
        faults: FaultPlan | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        from repro.providers import make_engine

        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._engine = make_engine(source, config, telemetry=telemetry)
        self.pool = WorkerPool(
            self._engine,
            num_workers=num_workers,
            faults=faults,
            telemetry=self.telemetry,
        )
        self._lock = threading.Lock()
        self._clients: dict[int, _ClientState] = {}
        self._next_client_id = 0
        self._closed = False
        self.fused_batches = 0
        self.fused_items = 0

    # -- client lifecycle ----------------------------------------------------

    def client(
        self,
        target: str,
        non_targets: list[str],
        *,
        telemetry: MetricsRegistry | None = None,
    ) -> "FabricClient":
        """Validate a design problem and return its scoring handle.

        The client keeps its own LRU score cache, sized like a dedicated
        provider's, so campaign cache behaviour (and hence the scores,
        history and RNG trajectory) is bit-exact with one; ``telemetry``
        receives its cache counters.
        """
        with self._lock:
            if self._closed:
                raise FabricClosedError("cannot register on a closed fabric")
            problem = self.pool.warm(target, non_targets)
            cid = self._next_client_id
            self._next_client_id += 1
            state = _ClientState(cid, problem)
            self._clients[cid] = state
            self.telemetry.set_gauge("fabric.clients", self._active_locked())
        return FabricClient(self, state, telemetry=telemetry)

    def _active_locked(self) -> int:
        return sum(1 for s in self._clients.values() if not s.closed)

    def _close_client(self, state: _ClientState) -> None:
        with self._lock:
            if state.closed:
                return
            state.closed = True
            self.telemetry.set_gauge("fabric.clients", self._active_locked())

    def close(self) -> None:
        """Close every client and reap the pool; idempotent.

        A dispatch in flight finishes first (it holds the lock); every
        later call raises :class:`FabricClosedError` or
        :class:`ClientClosedError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for state in self._clients.values():
                state.closed = True
            self.telemetry.set_gauge("fabric.clients", 0)
        self.pool.close()

    def __enter__(self) -> "ScoringFabric":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the one dispatch ------------------------------------------------------

    def dispatch(
        self,
        requests: Sequence[tuple["FabricClient", list[np.ndarray]]],
    ) -> list[list[ScoreSet]]:
        """Score one round's cache misses with one ``pool.score``.

        ``requests`` are ``(client, arrays)`` pairs; their items ride in
        the fused batch in request order, and the result holds each
        request's score sets.  Raises :class:`FabricClosedError` on a
        closed fabric and :class:`ClientClosedError` if any request's
        client is closed; a pool failure propagates and so fails every
        request of the call.
        """
        arrays: list[np.ndarray] = []
        problems: list[Problem] = []
        for client, arrs in requests:
            arrays.extend(arrs)
            problems.extend([client._state.problem] * len(arrs))
        asked = time.perf_counter()
        with self._lock:
            # Nonzero only when clients dispatch from several threads and
            # one waits for another's dispatch to finish.
            self.telemetry.observe(
                "fabric.queue_wait", time.perf_counter() - asked
            )
            if self._closed:
                raise FabricClosedError("fabric is closed")
            for client, _ in requests:
                if client._state.closed:
                    raise ClientClosedError(
                        f"fabric client {client._state.client_id} is closed"
                    )
            if not arrays:
                return [[] for _ in requests]
            try:
                scores = self.pool.score(arrays, problems)
            except BaseException:
                self.telemetry.count("fabric.failed_dispatches")
                raise
            self.fused_batches += 1
            self.fused_items += len(arrays)
            self.telemetry.count("fabric.fused_batches")
            self.telemetry.count("fabric.fused_items", len(arrays))
            out: list[list[ScoreSet]] = []
            start = 0
            for client, arrs in requests:
                state = client._state
                state.items_scored += len(arrs)
                self.telemetry.count(
                    f"fabric.client.{state.client_id}.items", len(arrs)
                )
                out.append(scores[start : start + len(arrs)])
                start += len(arrs)
        return out

    # -- statistics ----------------------------------------------------------

    def fabric_stats(self) -> dict[str, object]:
        """Dispatch counters (mirrors the ``fabric.*`` telemetry)."""
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
            "per_client": per_client,
        }


class FabricClient(CachingScoreProvider):
    """One campaign's scoring handle on a :class:`ScoringFabric`.

    A full :class:`~repro.ga.fitness.ScoreProvider`: the GA engine uses
    it exactly like a dedicated provider.  Scoring answers what the
    client's *own* bounded LRU score cache holds — per-problem caching
    cannot be shared across clients — and sends the misses through
    :meth:`ScoringFabric.dispatch` as one request.  The cache is sized
    like a dedicated provider's, so campaign behaviour is bit-exact with
    one.  The design service uses the two cache halves
    (:meth:`lookup`, :meth:`store`) directly, around its fused dispatch.

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
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(telemetry=telemetry)
        self._fabric = fabric
        self._state = state
        self.target, non_targets = state.problem
        self.non_targets = list(non_targets)

    @property
    def client_id(self) -> int:
        """The fabric-assigned client id (the ``fabric.client.<id>.*``
        telemetry key)."""
        return self._state.client_id

    def lookup(self, arrays: "list[np.ndarray]", provenances) -> CacheLookup:
        # Checked at the cache, not just the dispatch: a closed client
        # must not keep answering out of its LRU either — close is final.
        if self._state.closed:
            raise ClientClosedError(
                f"fabric client {self._state.client_id} is closed"
            )
        return super().lookup(arrays, provenances)

    def _score_uncached(
        self, arrays: list[np.ndarray], provenances=None
    ) -> list[ScoreSet]:
        # Workers full-sweep: provenance is advisory (see ScoreProvider).
        return self._fabric.dispatch([(self, arrays)])[0]

    def close(self) -> None:
        """Deregister from the fabric and close; idempotent, and final."""
        self._fabric._close_client(self._state)
        super().close()
