"""Unified construction of PIPE engines and scoring backends.

The single construction façade for everything that turns a proteome into
scores:

* :func:`make_engine` — build a :class:`~repro.ppi.pipe.PipeEngine` from
  whatever the caller has: an interaction graph, a prebuilt database, a
  synthetic world, or an existing engine.
* :func:`make_score_provider` — build the scoring backend for a design
  problem behind one signature::

      provider = make_score_provider(
          world, "YBL051C", non_targets, backend="process", workers=8
      )

  ``backend="serial"`` is the in-process reference path,
  ``backend="process"`` the paper's master/worker multiprocessing runtime
  (zero-copy shared-memory proteome by default), and ``backend="thread"``
  a thread pool of per-thread engines sharing one read-only database
  (useful when the evaluation is dominated by numpy/scipy kernels that
  release the GIL).

* :class:`ThreadScoreProvider` — the ``backend="thread"`` implementation.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.ga.fitness import CachingScoreProvider, ScoreSet, SerialScoreProvider
from repro.ppi.database import PipeDatabase
from repro.ppi.graph import InteractionGraph
from repro.ppi.kernels import SimilarityKernel
from repro.ppi.pipe import PipeConfig, PipeEngine
from repro.telemetry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ppi.delta import Provenance

__all__ = [
    "BACKENDS",
    "ThreadScoreProvider",
    "make_engine",
    "make_score_provider",
]

#: Recognised ``backend=`` names of :func:`make_score_provider`.
BACKENDS = ("serial", "process", "thread", "fabric")

# backend -> accepted-kwargs table, built lazily from the actual
# constructor signatures (so a new backend parameter is accepted here the
# moment it exists, with no second list to keep in sync).
_KWARG_TABLE: dict[str, frozenset[str]] | None = None

# Parameters spelled explicitly in make_score_provider's own signature (or
# supplied by it), never via **backend_kwargs.
_EXCLUDED_PARAMS = {
    "self",
    "engine",
    "target",
    "non_targets",
    "num_workers",
    "telemetry",
    "config",
    "source",
}


def _kwarg_table() -> dict[str, frozenset[str]]:
    """backend -> allowed backend_kwargs."""
    global _KWARG_TABLE
    if _KWARG_TABLE is None:
        import inspect

        from repro.fabric import ScoringFabric
        from repro.parallel.mp_backend import MultiprocessScoreProvider, WorkerPool

        def params(func) -> frozenset[str]:
            return frozenset(
                name
                for name, p in inspect.signature(func).parameters.items()
                if name not in _EXCLUDED_PARAMS
                and p.kind is not inspect.Parameter.VAR_KEYWORD
            )

        _KWARG_TABLE = {
            "serial": params(SerialScoreProvider.__init__),
            "thread": params(ThreadScoreProvider.__init__),
            # The provider's own keyword (cache_size) + the pool's.
            "process": params(MultiprocessScoreProvider.__init__)
            | params(WorkerPool.__init__),
            "fabric": params(ScoringFabric.client) | {"fabric"},
        }
    return _KWARG_TABLE


def _check_backend_kwargs(backend: str, kwargs: dict[str, object]) -> None:
    """Reject kwargs the chosen backend does not accept.

    Silently dropping (or TypeError-ing deep inside a constructor) a
    kwarg meant for another backend hid real configuration mistakes —
    e.g. ``share_memory=`` with ``backend="serial"`` was dropped without
    a word.  Every offending kwarg is now named, along with the backends
    that do accept it.
    """
    allowed = _kwarg_table()
    for name in kwargs:
        if name in allowed[backend]:
            continue
        if name == "num_workers":
            raise ValueError(
                "pass workers=, not num_workers= (it is translated per "
                "backend)"
            )
        owners = sorted(b for b, names in allowed.items() if name in names)
        if owners:
            raise ValueError(
                f"{name!r} does not apply to backend={backend!r}; it is "
                f"only valid for backend "
                + " or ".join(repr(b) for b in owners)
            )
        raise ValueError(
            f"unknown keyword {name!r} for backend {backend!r}"
        )


def make_engine(
    source: "PipeEngine | PipeDatabase | InteractionGraph | object",
    config: PipeConfig | None = None,
    *,
    kernel: SimilarityKernel | str | None = None,
    telemetry: MetricsRegistry | None = None,
) -> PipeEngine:
    """Build (or pass through) a :class:`~repro.ppi.pipe.PipeEngine`.

    ``source`` may be:

    * an existing :class:`~repro.ppi.pipe.PipeEngine` — returned as-is
      (``config``/``kernel`` must then be omitted; they describe
      construction, not mutation);
    * a :class:`~repro.ppi.database.PipeDatabase` — wrapped in an engine
      (``config`` defaults to one matching the database's parameters);
    * an :class:`~repro.ppi.graph.InteractionGraph` — database + engine
      are built from scratch;
    * anything with an ``engine`` attribute holding a ``PipeEngine``
      (e.g. a :class:`~repro.synthetic.world.SyntheticWorld`).
    """
    if isinstance(source, PipeEngine):
        if config is not None or kernel is not None:
            raise ValueError(
                "config/kernel cannot be applied to an existing engine; "
                "pass the graph or database instead"
            )
        if telemetry is not None:
            source.set_telemetry(telemetry)
        return source
    if isinstance(source, PipeDatabase):
        database = source
        if kernel is not None:
            raise ValueError(
                "kernel cannot be applied to an existing database; "
                "pass kernel= to the PipeDatabase constructor instead"
            )
        if config is None:
            config = PipeConfig(
                window_size=database.window_size,
                similarity_threshold=database.threshold,
                matrix_name=database.matrix.name,
            )
    elif isinstance(source, InteractionGraph):
        cfg = config or PipeConfig()
        database = PipeDatabase(
            source,
            cfg.matrix,
            cfg.window_size,
            cfg.resolved_threshold(),
            kernel=kernel,
            telemetry=telemetry,
        )
        config = cfg
    else:
        engine = getattr(source, "engine", None)
        if isinstance(engine, PipeEngine):
            return make_engine(
                engine, config, kernel=kernel, telemetry=telemetry
            )
        raise TypeError(
            "make_engine needs a PipeEngine, PipeDatabase, InteractionGraph "
            f"or an object with an .engine, got {type(source).__name__}"
        )
    engine = PipeEngine(database, config, telemetry=telemetry)
    if telemetry is not None:
        engine.set_telemetry(telemetry)
    return engine


def make_score_provider(
    source: "PipeEngine | PipeDatabase | InteractionGraph | object",
    target: str,
    non_targets: list[str],
    *,
    config: PipeConfig | None = None,
    backend: str = "serial",
    workers: int | None = None,
    telemetry: MetricsRegistry | None = None,
    **backend_kwargs: object,
) -> CachingScoreProvider:
    """Build the scoring backend for one design problem.

    Parameters
    ----------
    source:
        Anything :func:`make_engine` accepts.
    target, non_targets:
        The design problem (validated up front by every backend).
    config:
        PIPE parameters when ``source`` is a graph (ignored when an
        engine/world is passed — it already has a config).
    backend:
        ``"serial"`` (reference, in-process), ``"process"`` (master/worker
        multiprocessing with the shared-memory proteome), ``"thread"``, or
        ``"fabric"`` (a client on a shared
        :class:`~repro.fabric.ScoringFabric` — pass the fabric as
        ``source``; many campaigns share its one pool).
    workers:
        Worker count for the parallel backends; rejected for
        ``backend="serial"``.
    telemetry:
        One registry wired through the engine and the provider.
    **backend_kwargs:
        Forwarded to the backend constructor (e.g. ``use_delta=False``,
        ``share_memory=False``, ``timeout=...``, ``faults=...``).
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; available: {', '.join(BACKENDS)}"
        )
    _check_backend_kwargs(backend, backend_kwargs)
    if backend == "fabric":
        from repro.fabric import ScoringFabric

        fabric = backend_kwargs.pop("fabric", None)
        if fabric is None and isinstance(source, ScoringFabric):
            fabric = source
        if not isinstance(fabric, ScoringFabric):
            raise TypeError(
                "backend='fabric' needs a ScoringFabric as source (or "
                f"fabric=), got {type(source).__name__}"
            )
        if workers is not None:
            raise ValueError(
                "workers is configured on the ScoringFabric, not per client"
            )
        if config is not None:
            raise ValueError(
                "config cannot be applied through a fabric client; the "
                "fabric's engine is already built"
            )
        return fabric.client(
            target, non_targets, telemetry=telemetry, **backend_kwargs
        )
    engine = make_engine(source, config, telemetry=telemetry)
    if backend == "serial":
        if workers is not None:
            raise ValueError("workers does not apply to the serial backend")
        return SerialScoreProvider(
            engine, target, non_targets, telemetry=telemetry, **backend_kwargs
        )
    if backend == "thread":
        return ThreadScoreProvider(
            engine,
            target,
            non_targets,
            num_workers=workers,
            telemetry=telemetry,
            **backend_kwargs,
        )
    from repro.parallel.mp_backend import MultiprocessScoreProvider

    return MultiprocessScoreProvider(
        engine,
        target,
        non_targets,
        num_workers=workers,
        telemetry=telemetry,
        **backend_kwargs,
    )


class ThreadScoreProvider(CachingScoreProvider):
    """Thread-pool scoring backend: per-thread engines, one shared database.

    Each worker thread owns a private :class:`~repro.ppi.pipe.PipeEngine`
    (so the mutable evidence LRU is never shared across threads) wrapped
    around the *same* read-only :class:`~repro.ppi.database.PipeDatabase`
    — threads share the proteome arrays and the preprocessed
    known-protein similarity cache for free.  Useful when evaluation time
    is dominated by numpy/scipy kernels that release the GIL; the
    multiprocessing backend remains the paper-faithful runtime for
    CPU-bound Python.

    Scores are bit-exact with the serial reference: evaluation is a pure
    function of the candidate and the database, so thread scheduling
    cannot change results.
    """

    def __init__(
        self,
        engine: PipeEngine,
        target: str,
        non_targets: list[str],
        *,
        num_workers: int | None = None,
        cache_size: int = 100_000,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        if target in non_targets:
            raise ValueError(
                f"target {target!r} also appears in the non-target list"
            )
        engine.database.graph.index_of(target)
        for nt in non_targets:
            engine.database.graph.index_of(nt)
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        super().__init__(cache_size=cache_size, telemetry=telemetry)
        self.engine = engine
        self.target = target
        self.non_targets = list(non_targets)
        self.num_workers = num_workers or max(1, min(8, os.cpu_count() or 1))
        self._local = threading.local()
        self._executor: ThreadPoolExecutor | None = None
        self._warmed = False
        self._shutdown = False

    def _thread_engine(self) -> PipeEngine:
        engine = getattr(self._local, "engine", None)
        if engine is None:
            engine = PipeEngine(
                self.engine.database,
                self.engine.config,
                evidence_cache_size=self.engine.evidence_cache_size,
            )
            self._local.engine = engine
        return engine

    def scores_with_provenance(
        self,
        arrays: "list[np.ndarray]",
        provenances: "list[Provenance | None] | None",
    ) -> list[ScoreSet]:
        # Checked at the public entry, not just the uncached path: close
        # is final, so a closed provider must not keep answering out of
        # its LRU either.
        if self._shutdown:
            raise RuntimeError(
                "ThreadScoreProvider is closed; close() is final — build "
                "a new provider instead of reusing this one"
            )
        return super().scores_with_provenance(arrays, provenances)

    def _ensure_started(self) -> ThreadPoolExecutor:
        if self._shutdown:
            # Belt and braces for subclasses calling the uncached path
            # directly: never resurrect the executor after close().
            raise RuntimeError("ThreadScoreProvider is closed")
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="repro-score",
            )
        if not self._warmed:
            # Fill the shared known-protein cache once, before threads race
            # to compute the same structures (wasted work, never wrong).
            self.engine.database.precompute([self.target, *self.non_targets])
            self._warmed = True
        return self._executor

    def _score_uncached(
        self,
        arrays: list[np.ndarray],
        provenances: "list[Provenance | None] | None" = None,
    ) -> list[ScoreSet]:
        executor = self._ensure_started()
        names = [self.target, *self.non_targets]

        def score_one(arr: np.ndarray) -> ScoreSet:
            scored = self._thread_engine().score_against(arr, names)
            return scored.score_set(self.target, self.non_targets)

        with self.telemetry.span("provider.thread.score"):
            return list(executor.map(score_one, arrays))

    def close(self) -> None:
        """Shut the pool down; final — see :meth:`scores_with_provenance`.

        Silently re-creating the executor after close (the old
        behaviour) leaked thread pools from code that kept scoring
        through a handle it believed released; now that is a
        :class:`RuntimeError`, matching the fabric client's lifecycle.
        """
        self._shutdown = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        super().close()
