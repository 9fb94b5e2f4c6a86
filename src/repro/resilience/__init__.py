"""Campaign resilience: deadline and breaker policies, disk chaos.

Long InSiPS campaigns must survive worker loss, slow hardware and damaged
artifacts without operator intervention.  This package supplies the
policy layer the supervisor is built from:

* :mod:`repro.resilience.policies` — :class:`~repro.resilience.Deadline`
  (wall-clock budgets) and :class:`~repro.resilience.CircuitBreaker`
  (closed/open/half-open guard for provider health);
* :mod:`repro.resilience.chaos` —
  :class:`~repro.resilience.CheckpointFault` and
  :func:`~repro.resilience.apply_checkpoint_fault`, seeded damage to a
  checkpoint directory (worker faults are a
  :class:`~repro.parallel.worker.FaultPlan`).

Each fault has one recovery path.
:class:`~repro.parallel.mp_backend.WorkerPool` re-dispatches a lost
worker's slices and, once an item exhausts its retry budget or the pool
stalls, degrades to master-serial scoring through a breaker;
:meth:`~repro.ga.engine.InSiPSEngine.run` honours a deadline;
:func:`repro.checkpoint.load_snapshot` quarantines corrupt snapshots and
walks back to the newest valid one.
"""

from repro.resilience.chaos import CheckpointFault, apply_checkpoint_fault
from repro.resilience.policies import BreakerState, CircuitBreaker, Deadline

__all__ = [
    "BreakerState",
    "CheckpointFault",
    "CircuitBreaker",
    "Deadline",
    "apply_checkpoint_fault",
]
