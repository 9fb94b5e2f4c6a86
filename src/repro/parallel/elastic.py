"""Elastic, telemetry-driven control of the parallel worker pool.

A fixed-size master/worker runtime has a throughput ceiling the paper's
Blue Gene/Q deployment never had to face on shared hardware: the pool
size is chosen once, so an idle campaign burns worker memory while a
bursty one queues behind too few processes.

This module closes the loop from *observed* runtime behaviour — queue
depth and a per-item latency EWMA — back to the pool itself:

* :class:`PoolSnapshot` — the observation record the pool assembles
  on every scheduling step (pure data, trivially testable);
* :class:`ScalingPolicy` — the pluggable decision interface mapping a
  snapshot to a desired worker count.  Three implementations ship:
  :class:`FixedScaling` (never resizes), :class:`QueueDepthScaling`
  (size the pool to the backlog) and :class:`LatencyTargetScaling`
  (size the pool so the backlog drains within a wall-clock target).
  How much of a batch is in flight is not a policy decision: the
  pool hands out on demand into a fixed per-worker window and the
  rest of the backlog waits in the master;
* :class:`ElasticController` — wraps a policy with the latency EWMA and
  a resize cooldown built on the injectable-clock
  :class:`~repro.resilience.Deadline` from the resilience layer, so the
  control loop is testable without real sleeps;
* :func:`make_scaling_policy` — name-or-instance resolution used by
  ``make_score_provider(..., scaling=...)`` and the CLI ``--scaling``
  flag.

Decisions are *advisory*: the pool executes them by spawning workers
that late-attach to the existing shared proteome segment and by retiring
workers through the same death/respawn machinery that already guarantees
no item is ever lost — so an elastic run returns scores bit-exact with
the fixed-pool run, whatever the policy does.

Telemetry: ``parallel.pool_size`` / ``parallel.item_latency_ewma``
gauges, ``parallel.scale_up`` / ``parallel.scale_down`` counters.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.resilience.policies import Deadline

__all__ = [
    "SCALING_POLICIES",
    "ElasticController",
    "FixedScaling",
    "LatencyTargetScaling",
    "PoolSnapshot",
    "QueueDepthScaling",
    "ScalingPolicy",
    "make_scaling_policy",
]


@dataclass(frozen=True)
class PoolSnapshot:
    """One observation of the pool, assembled on each scheduling step.

    Attributes
    ----------
    live_workers:
        Worker processes currently alive (excludes retiring ones).
    backlog:
        Items of the current batch not yet completed (dispatched or not).
    outstanding:
        Items handed to workers and not yet acknowledged.
    latency_ewma_s:
        Exponentially weighted moving average of worker-reported per-item
        wall time; 0.0 until the first result arrives.
    batch_size:
        Total items in the current batch.
    """

    live_workers: int
    backlog: int
    outstanding: int
    latency_ewma_s: float
    batch_size: int


class ScalingPolicy(ABC):
    """Maps a :class:`PoolSnapshot` to a desired pool size.

    Policies are pure decision objects — they never spawn, retire or
    sleep.  The pool clamps and executes; a policy therefore cannot
    compromise correctness, only throughput.
    """

    #: Registry name (``make_scaling_policy`` and the CLI use it).
    name: str = "abstract"

    def __init__(self, min_workers: int, max_workers: int) -> None:
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if max_workers < min_workers:
            raise ValueError(
                f"max_workers ({max_workers}) must be >= min_workers "
                f"({min_workers})"
            )
        self.min_workers = int(min_workers)
        self.max_workers = int(max_workers)

    def clamp(self, n: int) -> int:
        """Bound a desired size to ``[min_workers, max_workers]``."""
        return max(self.min_workers, min(self.max_workers, int(n)))

    @abstractmethod
    def desired_workers(self, snap: PoolSnapshot) -> int:
        """The pool size this policy wants, given the observation."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(min_workers={self.min_workers}, "
            f"max_workers={self.max_workers})"
        )


class FixedScaling(ScalingPolicy):
    """The classic constant pool: never resize."""

    name = "fixed"

    def desired_workers(self, snap: PoolSnapshot) -> int:
        return self.clamp(snap.live_workers)


class QueueDepthScaling(ScalingPolicy):
    """Size the pool to the observed backlog.

    The pool grows toward one worker per ``items_per_worker`` backlog
    items and shrinks as the batch drains, so a bursty campaign gets
    workers when the queue is deep and releases them (and their memory)
    between bursts.
    """

    name = "queue-depth"

    def __init__(
        self,
        min_workers: int,
        max_workers: int,
        *,
        items_per_worker: int = 4,
    ) -> None:
        super().__init__(min_workers, max_workers)
        if items_per_worker < 1:
            raise ValueError(
                f"items_per_worker must be >= 1, got {items_per_worker}"
            )
        self.items_per_worker = int(items_per_worker)

    def desired_workers(self, snap: PoolSnapshot) -> int:
        return self.clamp(math.ceil(snap.backlog / self.items_per_worker))


class LatencyTargetScaling(ScalingPolicy):
    """Size the pool to a wall-clock target.

    Enough workers that the remaining backlog drains within ``target_s``
    at the observed per-item latency EWMA:
    ``ceil(backlog * ewma / target_s)``.  Until the first result arrives
    there is no EWMA and the policy holds the pool.
    """

    name = "latency-target"

    def __init__(
        self,
        min_workers: int,
        max_workers: int,
        *,
        target_s: float = 0.25,
    ) -> None:
        super().__init__(min_workers, max_workers)
        if target_s <= 0:
            raise ValueError(f"target_s must be > 0, got {target_s}")
        self.target_s = float(target_s)

    def desired_workers(self, snap: PoolSnapshot) -> int:
        if snap.latency_ewma_s <= 0.0:
            return self.clamp(snap.live_workers)
        drain_s = snap.backlog * snap.latency_ewma_s
        return self.clamp(math.ceil(drain_s / self.target_s))


#: Recognised ``scaling=`` names, in the order the CLI lists them.
SCALING_POLICIES = ("fixed", "queue-depth", "latency-target")


def make_scaling_policy(
    scaling: "ScalingPolicy | str",
    *,
    min_workers: int,
    max_workers: int,
) -> ScalingPolicy:
    """Resolve a policy name (or pass an instance through).

    Names mirror the CLI ``--scaling`` choices and build the policy with
    its own defaults; an instance — the way to set a policy's knobs — is
    returned as-is (its own min/max bounds win: the keyword bounds
    describe construction, not mutation).
    """
    if isinstance(scaling, ScalingPolicy):
        return scaling
    for policy in (FixedScaling, QueueDepthScaling, LatencyTargetScaling):
        if scaling == policy.name:
            return policy(min_workers, max_workers)
    raise ValueError(
        f"unknown scaling policy {scaling!r}; "
        f"available: {', '.join(SCALING_POLICIES)}"
    )


class ElasticController:
    """Wraps a :class:`ScalingPolicy` with the runtime's observed state.

    Owns the per-item latency EWMA (fed from worker-reported wall times)
    and a resize cooldown built on :class:`~repro.resilience.Deadline`
    with an injectable clock, so hysteresis is testable by advancing a
    fake clock instead of sleeping.  ``decide`` returns the pool size
    the pool should converge to *right now*; during a cooldown it
    returns the current size, suppressing resize thrash.
    """

    def __init__(
        self,
        policy: ScalingPolicy,
        *,
        cooldown_s: float = 0.0,
        ewma_alpha: float = 0.2,
        clock=time.monotonic,
    ) -> None:
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}"
            )
        self.policy = policy
        self.cooldown_s = float(cooldown_s)
        self.ewma_alpha = float(ewma_alpha)
        self._clock = clock
        self._cooldown: Deadline | None = None
        self.latency_ewma_s: float = 0.0
        self.decisions = 0
        self.suppressed = 0

    def observe_latency(self, elapsed_s: float) -> float:
        """Fold one worker-reported per-item wall time into the EWMA."""
        elapsed_s = max(0.0, float(elapsed_s))
        if self.latency_ewma_s <= 0.0:
            self.latency_ewma_s = elapsed_s
        else:
            self.latency_ewma_s += self.ewma_alpha * (
                elapsed_s - self.latency_ewma_s
            )
        return self.latency_ewma_s

    def decide(self, snap: PoolSnapshot) -> int:
        """The pool size to converge to (cooldown-aware, always clamped)."""
        self.decisions += 1
        desired = self.policy.clamp(self.policy.desired_workers(snap))
        if desired == snap.live_workers:
            return desired
        if self._cooldown is not None and not self._cooldown.expired():
            self.suppressed += 1
            return snap.live_workers
        if self.cooldown_s > 0:
            self._cooldown = Deadline(self.cooldown_s, clock=self._clock)
        return desired

    def stats(self) -> dict[str, object]:
        """Inspectable summary (JSON-safe)."""
        return {
            "policy": self.policy.name,
            "min_workers": self.policy.min_workers,
            "max_workers": self.policy.max_workers,
            "latency_ewma_s": self.latency_ewma_s,
            "decisions": self.decisions,
            "suppressed": self.suppressed,
        }
