"""The InSiPS parallel runtime (Algorithms 1 and 2).

The paper runs a two-level master-worker / all-workers scheme: an MPI
master owns the GA and dispatches candidate sequences *on demand* to worker
processes, which compute the PIPE scores against the target and non-targets
and send them back.  This package reproduces that architecture on
:mod:`multiprocessing` as one request-on-demand protocol over
point-to-point channels: each worker blocks on its own duplex pipe to
the master, the master waits on every pipe and process sentinel at once,
keeps the backlog and hands it out in guided-self-scheduling slices
never smaller than ``SLICE_FLOOR`` (8) while the backlog can give every
worker that many, a short backlog split evenly over the workers —
k candidates a worker scores in one call and answers in one reply —
topping up a small per-worker window of slices as replies arrive and
never sending a frame the worker's pipe cannot hold.  Workers are
stateless and problem-agnostic — each maps the one shared-memory
proteome segment the pool broadcasts (it carries the warmed problems'
PIPE evidence too, so a worker starts warm), every candidate of a slice names
the design problem it is scored against, and a worker builds each
candidate's similarity structure itself (the full sweep, as in
Algorithm 2): slices carry candidates, replies carry score sets.

* :mod:`repro.parallel.messages` — the wire protocol (slices, replies);
* :mod:`repro.parallel.scheduler` — the master-side on-demand scheduler
  the pool dispatches through (slice sizes and their floor, frame
  budgets, requeues),
  testable without processes;
* :mod:`repro.parallel.worker` — the worker main loop (Algorithm 2),
  which scores each slice with one :func:`repro.ga.fitness.score_batch`,
  the one function from candidates to score sets;
* :mod:`repro.parallel.mp_backend` — :class:`WorkerPool`, the runtime
  itself, and :class:`MultiprocessScoreProvider`, the
  :class:`~repro.ga.fitness.ScoreProvider` over a pool of its own that
  the GA engine plugs in unchanged (:mod:`repro.fabric` is the other
  front: many campaigns on one pool);
* :mod:`repro.parallel.multirack` — the paper's proposed multi-rack
  extension (one master per rack, elite synchronisation each generation).

The runtime is supervised, with one recovery path per fault: a dead
worker's slices are re-dispatched under a per-item retry budget
(``WorkerPool.MAX_RETRIES``); permanent pool loss or a stall
(``WorkerPool.TIMEOUT_S``) degrades a batch to bit-exact master-serial
scoring behind a :class:`~repro.resilience.CircuitBreaker`;
``close()`` escalates terminate/kill after a grace period
(``WorkerPool.CLOSE_GRACE_S``) so hung workers cannot wedge shutdown;
and a worker whose pipe closes leaves, so a killed master orphans
nothing.  See :mod:`repro.resilience` and docs/API.md "Resilience".

Python threads cannot reproduce the paper's *intra-worker* OpenMP
parallelism (GIL); that level is modelled by the Blue Gene/Q discrete-event
simulator in :mod:`repro.cluster` instead.
"""

from repro.parallel.messages import (
    EndSignal,
    Problem,
    WorkFailure,
    WorkResult,
    WorkSlice,
)
from repro.parallel.mp_backend import (
    MultiprocessScoreProvider,
    WorkerFailureError,
    WorkerPool,
)
from repro.parallel.multirack import MultiRackGA, RackResult
from repro.parallel.scheduler import OnDemandScheduler
from repro.parallel.worker import FaultPlan

__all__ = [
    "EndSignal",
    "FaultPlan",
    "MultiRackGA",
    "MultiprocessScoreProvider",
    "OnDemandScheduler",
    "Problem",
    "RackResult",
    "WorkFailure",
    "WorkResult",
    "WorkSlice",
    "WorkerFailureError",
    "WorkerPool",
]
