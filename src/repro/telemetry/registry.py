"""Metrics registry: counters, gauges, histograms and nestable timer spans.

The paper's headline results are *performance* results (Figures 3–6 are
thread/worker scaling curves), so the reproduction needs a way to observe
its own runtime behaviour.  This module provides that instrumentation
layer:

* :class:`MetricsRegistry` — a process-local registry of named
  instruments plus an append-only event log (for per-generation records);
* :class:`NullRegistry` — the default everywhere: every operation is a
  no-op and ``span()`` returns a shared singleton, so instrumented hot
  paths pay only a method call when telemetry is off;
* :func:`get_registry` / :func:`set_registry` — an optional process-wide
  default for code that is not reached by explicit wiring.

Registries hold only plain containers, so they pickle cleanly — a
:class:`~repro.ppi.pipe.PipeEngine` carrying a registry can be broadcast
to worker processes (each worker then owns an independent copy; the
master aggregates worker-side quantities from the result messages
instead).

All instruments are get-or-create by name, so instrumentation sites never
need to pre-declare what they record::

    reg = MetricsRegistry()
    reg.count("provider.cache.hits")
    reg.observe("ga.fitness", 0.42)
    with reg.span("pipe.triple_product"):
        ...  # timed work
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimerStat",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
]


@dataclass
class Counter:
    """Monotonically increasing count (events, cache hits, work items)."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount

    def as_dict(self) -> dict[str, object]:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """Last-written value of a fluctuating quantity (queue depth, load)."""

    value: float = field(default=0.0, init=False)
    min: float = field(default=float("inf"), init=False)
    max: float = field(default=float("-inf"), init=False)
    updates: int = field(default=0, init=False)

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.updates += 1

    def as_dict(self) -> dict[str, object]:
        return {
            "type": "gauge",
            "value": self.value,
            "min": self.min if self.updates else 0.0,
            "max": self.max if self.updates else 0.0,
            "updates": self.updates,
        }


@dataclass
class Histogram:
    """Streaming distribution summary plus a bounded sample reservoir.

    Running count/sum/sum-of-squares give exact mean and variance; the
    reservoir keeps the *first* :attr:`SAMPLE_LIMIT` observations
    (deterministic, no RNG involved) for approximate percentiles.
    """

    SAMPLE_LIMIT = 1024

    count: int = field(default=0, init=False)
    total: float = field(default=0.0, init=False)
    total_sq: float = field(default=0.0, init=False)
    min: float = field(default=float("inf"), init=False)
    max: float = field(default=float("-inf"), init=False)
    samples: list[float] = field(default_factory=list, init=False)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.total_sq += value * value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self.samples) < self.SAMPLE_LIMIT:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        var = self.total_sq / self.count - self.mean**2
        return max(var, 0.0) ** 0.5

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]) from the reservoir."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        idx = round(q / 100.0 * (len(ordered) - 1))
        return ordered[idx]

    def as_dict(self) -> dict[str, object]:
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
        }


@dataclass
class TimerStat:
    """Accumulated wall-clock time of one named span.

    ``total`` includes time spent in nested child spans; ``self_total``
    excludes it, so a breakdown of a parent span sums cleanly.
    """

    count: int = field(default=0, init=False)
    total: float = field(default=0.0, init=False)
    self_total: float = field(default=0.0, init=False)
    min: float = field(default=float("inf"), init=False)
    max: float = field(default=float("-inf"), init=False)

    def record(self, elapsed: float, child_time: float = 0.0) -> None:
        self.count += 1
        self.total += elapsed
        self.self_total += elapsed - child_time
        self.min = min(self.min, elapsed)
        self.max = max(self.max, elapsed)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "type": "timer",
            "count": self.count,
            "total_s": self.total,
            "self_s": self.self_total,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max if self.count else 0.0,
        }


class _Span:
    """One active timed region; produced by :meth:`MetricsRegistry.span`.

    Spans nest: entering a span pushes it on the registry's span stack,
    and on exit its elapsed time is both recorded under its own name and
    charged as *child time* to the enclosing span (so ``self_total`` of
    the parent stays accurate).
    """

    __slots__ = ("registry", "name", "_start", "_child_time")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self.registry = registry
        self.name = name
        self._start = 0.0
        self._child_time = 0.0

    def add_child_time(self, elapsed: float) -> None:
        self._child_time += elapsed

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        self._child_time = 0.0
        self.registry._span_stack.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        stack = self.registry._span_stack
        if stack and stack[-1] is self:
            stack.pop()
        self.registry.timer(self.name).record(elapsed, self._child_time)
        if stack:
            stack[-1].add_child_time(elapsed)


class MetricsRegistry:
    """Process-local registry of named instruments and events.

    Not thread-safe by design: the GA main loop, the PIPE kernels and
    each worker process are single-threaded, and keeping the registry
    lock-free keeps it picklable and cheap.
    """

    #: Whether this registry records anything; instrumentation sites may
    #: branch on it to skip building expensive metric payloads.
    enabled: bool = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timers: dict[str, TimerStat] = {}
        self._events: list[dict[str, object]] = []
        self._span_stack: list[_Span] = []

    # -- instrument access (get-or-create) ---------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    def timer(self, name: str) -> TimerStat:
        t = self._timers.get(name)
        if t is None:
            t = self._timers[name] = TimerStat()
        return t

    # -- recording shorthands ----------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def span(self, name: str) -> _Span:
        """Context manager timing a (nestable) region of code."""
        return _Span(self, name)

    def record_timing(self, name: str, elapsed: float) -> None:
        """Record an externally measured duration (e.g. a worker-reported
        busy time) without entering a span."""
        self.timer(name).record(elapsed)

    def event(self, name: str, **fields: object) -> None:
        """Append a structured event record (e.g. one GA generation)."""
        self._events.append({"event": name, "seq": len(self._events), **fields})

    # -- inspection / export ------------------------------------------------

    @property
    def current_span(self) -> str | None:
        """Dotted name of the innermost active span, if any."""
        return self._span_stack[-1].name if self._span_stack else None

    @property
    def events(self) -> list[dict[str, object]]:
        return list(self._events)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """All instruments as ``{name: {"type": ..., ...}}`` (events excluded)."""
        out: dict[str, dict[str, object]] = {}
        for store in (self._counters, self._gauges, self._histograms, self._timers):
            for name, inst in store.items():
                out[name] = inst.as_dict()
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's counters, timers and events into this one
        (used to aggregate worker-side registries on the master)."""
        for name, c in other._counters.items():
            self.counter(name).inc(c.value)
        for name, g in other._gauges.items():
            if g.updates:
                mine_g = self.gauge(name)
                mine_g.set(g.value)
                mine_g.min = min(mine_g.min, g.min)
                mine_g.max = max(mine_g.max, g.max)
                mine_g.updates += g.updates - 1
        for name, h in other._histograms.items():
            mine_h = self.histogram(name)
            mine_h.count += h.count - len(h.samples)
            mine_h.total += h.total - sum(h.samples)
            mine_h.total_sq += h.total_sq - sum(v * v for v in h.samples)
            mine_h.min = min(mine_h.min, h.min)
            mine_h.max = max(mine_h.max, h.max)
            for v in h.samples:
                mine_h.observe(v)
        for name, t in other._timers.items():
            if t.count:
                mine_t = self.timer(name)
                mine_t.count += t.count
                mine_t.total += t.total
                mine_t.self_total += t.self_total
                mine_t.min = min(mine_t.min, t.min)
                mine_t.max = max(mine_t.max, t.max)
        self._events.extend(other._events)

    def reset(self) -> None:
        self.__init__()

    # -- pickling: never carry live span state across processes ------------

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state["_span_stack"] = []
        return state


class _NullSpan:
    """Shared no-op span; entering/exiting allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def add_child_time(self, elapsed: float) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRegistry(MetricsRegistry):
    """Zero-overhead default registry: records nothing, allocates nothing.

    Every recording method is a no-op and :meth:`span` returns a shared
    singleton context manager, so hot paths instrumented against a
    ``NullRegistry`` pay only a method call.
    """

    enabled = False

    def __init__(self) -> None:  # deliberately no state
        pass

    def count(self, name: str, amount: float = 1.0) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def record_timing(self, name: str, elapsed: float) -> None:
        return None

    def event(self, name: str, **fields: object) -> None:
        return None

    # Reads behave like an empty registry rather than erroring, so
    # diagnostic code does not need to special-case the default.
    def counter(self, name: str) -> Counter:
        return Counter()

    def gauge(self, name: str) -> Gauge:
        return Gauge()

    def histogram(self, name: str) -> Histogram:
        return Histogram()

    def timer(self, name: str) -> TimerStat:
        return TimerStat()

    @property
    def current_span(self) -> str | None:
        return None

    @property
    def events(self) -> list[dict[str, object]]:
        return []

    def snapshot(self) -> dict[str, dict[str, object]]:
        return {}

    def merge(self, other: MetricsRegistry) -> None:
        return None

    def reset(self) -> None:
        return None

    def __getstate__(self) -> dict[str, object]:
        return {}


#: Process-wide shared no-op registry; the default for all components.
NULL_REGISTRY = NullRegistry()

_default_registry: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (``NULL_REGISTRY`` unless set)."""
    return _default_registry


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install (or, with None, clear) the process-wide default registry;
    returns the registry now in force."""
    global _default_registry
    _default_registry = registry if registry is not None else NULL_REGISTRY
    return _default_registry
