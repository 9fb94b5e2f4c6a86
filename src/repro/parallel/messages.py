"""Wire protocol between the InSiPS master and workers.

Mirrors the MPI message flow of Algorithms 1–2: the master answers each
work request with either work to analyse or an END signal; workers
attach the result of their previous assignment to the next request.
Here the channel is one duplex pipe per worker, point-to-point like the
MPI original: a :class:`WorkResult` arriving at the master *is* the
worker's next work request, answered by sending the next
:class:`WorkSlice` down that worker's pipe.  :class:`EndSignal` is an
ordinary message on the same pipe, so a worker only ever blocks in one
``recv()``.

The unit of work is a **slice** of a batch: k candidates the worker
scores in one :func:`~repro.ga.fitness.score_batch` and answers in one
reply.  A one-candidate slice is simply k = 1; there is no per-item
message.  Workers are stateless between slices and know no design
problem of their own: a :class:`WorkSlice` names the
:data:`~repro.ga.fitness.Problem` of each of its candidates (a slice may
mix problems — the similarity sweep does not depend on them), so one
pool serves one campaign or many (see :mod:`repro.fabric`) through the
same path.  The similarity structures a delta re-score patches from
travel *with the work* too: a slice carries the union of the structures
the master holds for its candidates or their provenance parents, and
the :class:`WorkResult` brings the newly built structures back for the
master's bounded LRU.

Every slice and every reply carries a ``batch_epoch``: the master tags
each batch with a monotonically increasing epoch and drops any reply
stamped with an older one, so a result orphaned by a timeout or a worker
death can never be mis-assigned to a later batch that happens to reuse
the same ``sequence_id``.  A worker-side exception travels back as a
:class:`WorkFailure` (with the full traceback) naming every sequence id
of the slice, instead of silently killing the worker process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ga.fitness import Problem, ScoreSet
from repro.ppi.database import SequenceSimilarity
from repro.ppi.delta import DeltaStats, Provenance

__all__ = [
    "Problem",
    "WorkSlice",
    "WorkResult",
    "WorkFailure",
    "EndSignal",
]

#: ``(sequence bytes, structure)`` pairs riding a slice or a reply.
Similarities = tuple[tuple[bytes, SequenceSimilarity], ...]


@dataclass(frozen=True)
class WorkSlice:
    """Master → worker: k candidates of one batch, scored in one call.

    The per-candidate fields are aligned columns: ``payloads[i]`` (the
    encoded ``uint8`` bytes) is scored against ``problems[i]``, the
    ``(target, non_targets)`` it names, and answers for
    ``sequence_ids[i]``.  Slices are self-describing: a worker's engine
    fills its known-protein cache with a problem's structures on first
    sight, so a problem first named while the pool is running needs no
    control message (and no ordering to get wrong).

    ``provenances[i]`` (optional) records how candidate ``i`` was
    derived from its parent(s).  ``similarities`` is the union of the
    ``(sequence bytes, structure)`` pairs the master knows for the
    candidates themselves or, failing that, for their provenance parents
    — a parent shared by siblings travels once; the worker patches from
    exactly these and re-sweeps only the dirty windows.  Both are
    advisory — a candidate covered by neither simply gets the full sweep.
    """

    batch_epoch: int
    sequence_ids: tuple[int, ...]
    payloads: tuple[bytes, ...]
    problems: tuple[Problem, ...]
    provenances: tuple[Provenance | None, ...]
    similarities: Similarities = ()

    def __post_init__(self) -> None:
        if self.batch_epoch < 0:
            raise ValueError(f"batch_epoch must be >= 0, got {self.batch_epoch}")
        k = len(self.sequence_ids)
        if k == 0:
            raise ValueError("a slice holds at least one candidate")
        if not len(self.payloads) == len(self.problems) == len(self.provenances) == k:
            raise ValueError(
                f"{k} sequence ids, {len(self.payloads)} payloads, "
                f"{len(self.problems)} problems, {len(self.provenances)} "
                "provenances — lengths must match"
            )
        if min(self.sequence_ids) < 0:
            raise ValueError(f"sequence ids must be >= 0, got {self.sequence_ids}")
        if not all(self.payloads):
            raise ValueError("every payload must be non-empty")

    def arrays(self) -> list[np.ndarray]:
        """The candidates, decoded."""
        return [np.frombuffer(payload, dtype=np.uint8) for payload in self.payloads]


@dataclass(frozen=True)
class WorkResult:
    """Worker → master: the PIPE scores of one slice, aligned with its
    ``sequence_ids``.

    ``elapsed`` is the worker-side wall-clock seconds spent scoring the
    slice; the master aggregates it into per-worker busy time and
    throughput telemetry (the Fig. 5/6 quantities).  ``batch_epoch``
    echoes the slice's epoch so the master can reject stale replies from
    an earlier, abandoned batch.  ``deltas`` reports each candidate's
    delta-scoring outcome (worker registries are process-local, so the
    accounting rides the reply and the master folds it into the
    ``pipe.delta.*`` counters).  ``similarities`` holds the structures
    the worker built — one per candidate whose own structure the slice
    did not carry (none when delta scoring is off).  ``inbox_wait`` is
    how long the worker sat blocked in ``recv()`` before the slice
    arrived — the dispatch latency the master cannot observe from its
    side.  ``cpu_s`` (user + system seconds) and ``minor_faults`` are the
    worker process's ``getrusage`` deltas over the slice, from ``recv()``
    returning to just before this reply is pickled and sent (zero where
    ``resource`` is unavailable).
    """

    sequence_ids: tuple[int, ...]
    worker_id: int
    scores: tuple[ScoreSet, ...]
    elapsed: float = 0.0
    batch_epoch: int = 0
    deltas: tuple[DeltaStats | None, ...] = ()
    similarities: Similarities = ()
    inbox_wait: float = 0.0
    cpu_s: float = 0.0
    minor_faults: int = 0


@dataclass(frozen=True)
class WorkFailure:
    """Worker → master: scoring raised for a slice.

    Names every sequence id of the slice and carries the exception
    summary and the full formatted traceback, so the master can surface
    the *worker-side* stack in its own error instead of reporting an
    opaque timeout.
    """

    sequence_ids: tuple[int, ...]
    worker_id: int
    error: str
    traceback: str
    batch_epoch: int = 0


@dataclass(frozen=True)
class EndSignal:
    """Master → worker: no more work (Algorithm 1's END)."""

    reason: str = "complete"
