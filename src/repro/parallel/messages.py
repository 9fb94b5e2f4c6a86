"""Wire protocol between the InSiPS master and workers.

Mirrors the MPI message flow of Algorithms 1–2: the master answers each
work request with either a candidate sequence to analyse or an END signal;
workers attach the result of their previous assignment to the next request.
Here the channel is one duplex pipe per worker, point-to-point like the
MPI original: a :class:`WorkResult` arriving at the master *is* the
worker's next work request, answered by sending the next
:class:`WorkItem` down that worker's pipe.  :class:`EndSignal` is an
ordinary message on the same pipe, so a worker only ever blocks in one
``recv()``.

Workers are stateless between items and know no design problem of their
own: every :class:`WorkItem` names the
:data:`~repro.ga.fitness.Problem` it is scored against, so one pool
serves one campaign or many (see :mod:`repro.fabric`) through the same
path.  The similarity structures a
delta re-score patches from travel *with the work* too: an item carries
the structures the master already holds for the candidate or its
provenance parents, and the :class:`WorkResult` brings the newly built
structure back for the master's bounded LRU.

Every dispatch-side message carries a ``batch_epoch``: the master tags each
batch with a monotonically increasing epoch and drops any reply stamped
with an older one, so a result orphaned by a timeout or a worker death can
never be mis-assigned to a later batch that happens to reuse the same
``sequence_id``.  A worker-side exception travels back as a
:class:`WorkFailure` (with the full traceback) instead of silently killing
the worker process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ga.fitness import Problem, ScoreSet
from repro.ppi.database import SequenceSimilarity
from repro.ppi.delta import DeltaStats, Provenance

__all__ = [
    "Problem",
    "WorkItem",
    "WorkResult",
    "WorkFailure",
    "EndSignal",
]


@dataclass(frozen=True)
class WorkItem:
    """One candidate sequence dispatched for PIPE analysis.

    ``problem`` is the ``(target, non_targets)`` the candidate is scored
    against.  Items are self-describing: a worker's engine fills its
    known-protein cache with the problem's structures on first sight, so
    a problem first named while the pool is running needs no control
    message (and no ordering to get wrong).

    ``provenance`` (optional) records how the candidate was derived from
    its parent(s).  ``similarities`` holds the ``(sequence bytes,
    structure)`` pairs the master knows for the candidate itself or, failing
    that, for its provenance parents; the worker patches from exactly these
    and re-sweeps only the dirty windows.  Both are advisory — an item
    carrying neither simply gets the full sweep.
    """

    sequence_id: int
    payload: bytes  # encoded (uint8) sequence bytes; cheap to pickle
    problem: Problem
    batch_epoch: int = 0
    provenance: Provenance | None = None
    similarities: tuple[tuple[bytes, SequenceSimilarity], ...] = ()

    def __post_init__(self) -> None:
        if self.sequence_id < 0:
            raise ValueError(f"sequence_id must be >= 0, got {self.sequence_id}")
        if not self.payload:
            raise ValueError("payload must be non-empty")
        if self.batch_epoch < 0:
            raise ValueError(f"batch_epoch must be >= 0, got {self.batch_epoch}")

    @classmethod
    def from_encoded(
        cls,
        sequence_id: int,
        encoded: np.ndarray,
        problem: Problem,
        *,
        batch_epoch: int = 0,
        provenance: Provenance | None = None,
        similarities: tuple[tuple[bytes, SequenceSimilarity], ...] = (),
    ) -> "WorkItem":
        return cls(
            sequence_id,
            np.asarray(encoded, dtype=np.uint8).tobytes(),
            problem,
            batch_epoch,
            provenance,
            similarities,
        )

    def decode(self) -> np.ndarray:
        return np.frombuffer(self.payload, dtype=np.uint8)


@dataclass(frozen=True)
class WorkResult:
    """PIPE scores returned by a worker for one candidate.

    ``elapsed`` is the worker-side wall-clock seconds spent computing the
    scores; the master aggregates it into per-worker busy time and
    throughput telemetry (the Fig. 5/6 quantities).  ``batch_epoch`` echoes
    the dispatching :class:`WorkItem`'s epoch so the master can reject
    stale replies from an earlier, abandoned batch.  ``delta`` reports the
    worker-side delta-scoring outcome (worker registries are process-local,
    so the accounting rides the reply and the master folds it into the
    ``pipe.delta.*`` counters).  ``similarity`` is the structure the worker
    built for the candidate (``None`` when the item already carried it, or
    delta scoring is off).  ``inbox_wait`` is how long the worker sat
    blocked in ``recv()`` before this item arrived — the dispatch
    latency the master cannot observe from its side.
    """

    sequence_id: int
    worker_id: int
    scores: ScoreSet
    elapsed: float = 0.0
    batch_epoch: int = 0
    delta: DeltaStats | None = None
    similarity: SequenceSimilarity | None = None
    inbox_wait: float = 0.0


@dataclass(frozen=True)
class WorkFailure:
    """Worker → master: scoring raised for one candidate.

    Carries the exception summary and the full formatted traceback so the
    master can surface the *worker-side* stack in its own error instead of
    reporting an opaque timeout.
    """

    sequence_id: int
    worker_id: int
    error: str
    traceback: str
    batch_epoch: int = 0


@dataclass(frozen=True)
class EndSignal:
    """Master → worker: no more work (Algorithm 1's END)."""

    reason: str = "complete"
