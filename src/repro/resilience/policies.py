"""Deadline and circuit-breaker policies.

The campaign supervisor's contract layer: the GA loop's wall-clock stop
and the parallel runtime's guard against a flaky pool are expressed
through the two small policy objects here instead of ad-hoc sleeps and
bare excepts.  Both are deterministic and inspectable by construction:

* :class:`Deadline` — a wall-clock budget with an injectable clock, so a
  campaign can promise "return whatever you have by t" and tests can move
  time by hand;
* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine guarding a flaky resource (the worker pool).  Probing is
  *count-based* (every ``probe_after`` rejected calls one probe is
  allowed through), which keeps chaos tests free of real time.

Neither object performs I/O or spawns anything; they only decide.
Retrying lost work is the pool's job: it re-dispatches a dead worker's
slices and degrades to master-serial scoring when the pool is lost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
]


# ---------------------------------------------------------------------------
# Deadline


class Deadline:
    """A wall-clock budget: "whatever happens, hand back control by t".

    Constructed from a budget in seconds; the clock (default
    :func:`time.monotonic`) is injectable so tests advance time manually.
    """

    __slots__ = ("budget_s", "_clock", "_started")

    def __init__(self, budget_s: float, *, clock=time.monotonic) -> None:
        if budget_s <= 0:
            raise ValueError(f"budget_s must be > 0, got {budget_s}")
        self.budget_s = float(budget_s)
        self._clock = clock
        self._started = clock()

    @classmethod
    def after(cls, budget_s: float, *, clock=time.monotonic) -> "Deadline":
        """Alias constructor reading like prose: ``Deadline.after(30)``."""
        return cls(budget_s, clock=clock)

    def elapsed(self) -> float:
        return self._clock() - self._started

    def expired(self) -> bool:
        return self.elapsed() >= self.budget_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget={self.budget_s:.3f}s, elapsed={self.elapsed():.3f}s)"


# ---------------------------------------------------------------------------
# CircuitBreaker


class BreakerState:
    """The three classic breaker states (plain strings for JSON-ability)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """Closed / open / half-open guard around a flaky resource.

    ``allow()`` asks permission to use the resource:

    * **closed** — always granted;
    * **open** — denied; every ``probe_after``-th denial instead grants a
      single *probe* and moves to **half-open**;
    * **half-open** — the probe is in flight; further calls are denied
      until its outcome is reported.

    ``record_success()`` closes the breaker (from any state);
    ``record_failure()`` increments the failure count and opens the
    breaker once ``failure_threshold`` consecutive failures accumulate.

    The breaker never acts on its own — callers decide what "use the
    resource" means; this object only sequences permission, which keeps a
    degraded parallel runtime from thrashing respawn-and-die loops while
    still probing its way back to the pool.
    """

    failure_threshold: int = 1
    probe_after: int = 4
    _state: str = field(default=BreakerState.CLOSED, init=False)
    _failures: int = field(default=0, init=False)
    _denied_since_open: int = field(default=0, init=False)
    opens: int = field(default=0, init=False)
    probes: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.probe_after < 1:
            raise ValueError(f"probe_after must be >= 1, got {self.probe_after}")

    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> bool:
        """Whether the caller may use the guarded resource right now."""
        if self._state == BreakerState.CLOSED:
            return True
        if self._state == BreakerState.HALF_OPEN:
            # One probe at a time; its outcome resolves the state.
            return False
        self._denied_since_open += 1
        if self._denied_since_open >= self.probe_after:
            self._state = BreakerState.HALF_OPEN
            self.probes += 1
            return True
        return False

    def record_success(self) -> None:
        """The guarded call worked; close the breaker and reset counts."""
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._denied_since_open = 0

    def record_failure(self) -> None:
        """The guarded call failed; open once the threshold accumulates.

        A failed half-open probe re-opens immediately, whatever the
        threshold — the probe *was* the evidence.
        """
        self._failures += 1
        if (
            self._state == BreakerState.HALF_OPEN
            or self._failures >= self.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        if self._state != BreakerState.OPEN:
            self.opens += 1
        self._state = BreakerState.OPEN
        self._denied_since_open = 0

    def stats(self) -> dict[str, object]:
        """Inspectable summary (JSON-safe)."""
        return {
            "state": self._state,
            "failures": self._failures,
            "opens": self.opens,
            "probes": self.probes,
        }
