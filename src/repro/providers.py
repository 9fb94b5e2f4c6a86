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

  ``backend="serial"`` is the in-process reference path and
  ``backend="process"`` the paper's master/worker multiprocessing runtime
  over a zero-copy shared-memory proteome.  Many campaigns share one pool
  through :meth:`repro.fabric.ScoringFabric.client` instead.  Every
  backend scores through :func:`repro.ga.fitness.score_batch`.
"""

from __future__ import annotations

from repro.ga.fitness import CachingScoreProvider, SerialScoreProvider
from repro.ppi.database import PipeDatabase
from repro.ppi.graph import InteractionGraph
from repro.ppi.kernels import SimilarityKernel
from repro.ppi.pipe import PipeConfig, PipeEngine
from repro.telemetry import MetricsRegistry

__all__ = [
    "BACKENDS",
    "make_engine",
    "make_score_provider",
]

#: Recognised ``backend=`` names of :func:`make_score_provider`.
BACKENDS = ("serial", "process")


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
        ``"serial"`` (reference, in-process) or ``"process"``
        (master/worker multiprocessing with the shared-memory proteome).
    workers:
        Worker count for the process backend; rejected for
        ``backend="serial"``.
    telemetry:
        One registry wired through the engine and the provider.

    Fault injection (``faults=``) takes
    :class:`~repro.parallel.mp_backend.MultiprocessScoreProvider`
    directly.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; available: {', '.join(BACKENDS)}"
        )
    engine = make_engine(source, config, telemetry=telemetry)
    if backend == "serial":
        if workers is not None:
            raise ValueError("workers does not apply to the serial backend")
        return SerialScoreProvider(engine, target, non_targets, telemetry=telemetry)
    from repro.parallel.mp_backend import MultiprocessScoreProvider

    return MultiprocessScoreProvider(
        engine,
        target,
        non_targets,
        num_workers=workers,
        telemetry=telemetry,
    )
