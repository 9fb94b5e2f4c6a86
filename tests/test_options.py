"""The settable surface of the scoring stack, pinned.

Every parameter a caller can set multiplies the configurations the tests
must cover, so the parameters of the public constructors and factories
are listed here.  A new setting shows up as a diff to this table, to be
argued for in review; sizes, bounds and rates that no caller sets are
class constants instead (``CachingScoreProvider.CACHE_SIZE``,
``BatchedNumpyKernel.BATCH_RESIDUES``, ``CheckpointManager.RETAIN`` ...).
``*args``/``**kwargs`` entries are pass-throughs to a row above them;
the scoring stack's fronts take none, so a wrong keyword is Python's own
``TypeError``.  The recovery surface is pinned too: each fault has one
recovery path, so no retry policy, recovery switch or second chaos
builder reappears unnoticed.
"""

import inspect

import pytest

from repro.checkpoint import CheckpointManager, load_snapshot
from repro.fabric import ScoringFabric
from repro.ga.adaptive import AdaptiveInSiPSEngine, AdaptiveOperatorController
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import SerialScoreProvider
from repro.parallel.mp_backend import MultiprocessScoreProvider, WorkerPool
from repro.parallel.worker import FaultPlan
from repro.ppi.database import PipeDatabase
from repro.ppi.kernels import BatchedNumpyKernel
from repro.ppi.pipe import PipeEngine
from repro.providers import make_score_provider
from repro.resilience import CircuitBreaker, Deadline
from repro.service import DesignService

INVENTORY = {
    WorkerPool: ("engine", "num_workers", "faults", "telemetry"),
    MultiprocessScoreProvider: (
        "engine", "target", "non_targets", "num_workers", "faults",
        "telemetry",
    ),
    SerialScoreProvider: ("engine", "target", "non_targets", "telemetry"),
    make_score_provider: (
        "source", "target", "non_targets", "config", "backend", "workers",
        "telemetry",
    ),
    ScoringFabric: ("source", "config", "num_workers", "faults", "telemetry"),
    ScoringFabric.client: ("target", "non_targets", "telemetry"),
    DesignService: (
        "source", "root", "max_concurrent", "max_queue", "quotas",
        "default_quota", "fsync", "num_workers", "faults", "telemetry",
    ),
    PipeEngine: ("database", "config", "telemetry"),
    PipeDatabase: (
        "graph", "matrix", "window_size", "threshold", "kernel", "telemetry",
    ),
    PipeDatabase.from_arrays: (
        "graph", "matrix", "window_size", "threshold", "concatenated",
        "offsets", "valid_columns", "adjacency", "score_rows", "kernel",
        "telemetry",
    ),
    BatchedNumpyKernel: (),
    CheckpointManager: ("directory", "every", "fsync", "telemetry"),
    InSiPSEngine: (
        "provider", "params", "population_size", "candidate_length", "seed",
        "initializer", "telemetry",
    ),
    AdaptiveInSiPSEngine: ("*args", "**kwargs"),
    AdaptiveOperatorController: ("base",),
    InSiPSEngine.run: ("termination", "on_generation", "checkpoint", "deadline"),
    InSiPSEngine.steps: (
        "termination", "on_generation", "checkpoint", "deadline",
    ),
    load_snapshot: ("source", "telemetry"),
    CircuitBreaker: ("failure_threshold", "probe_after"),
    Deadline: ("budget_s", "clock"),
    FaultPlan: (
        "fail_on_item", "crash_on_item", "hang_on_item", "hang_s",
        "delay_on_item", "delay", "only_worker",
    ),
}


def _parameters(obj) -> tuple[str, ...]:
    names = []
    for name, parameter in inspect.signature(obj).parameters.items():
        if name == "self":
            continue
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            name = f"**{name}"
        elif parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            name = f"*{name}"
        names.append(name)
    return tuple(names)


@pytest.mark.parametrize(
    "obj", list(INVENTORY), ids=lambda obj: obj.__qualname__
)
def test_parameters_match_the_inventory(obj):
    assert _parameters(obj) == INVENTORY[obj]


#: The scoring stack from a job down to the pool: no layer forwards
#: settings it does not name.
SCORING_FRONTS = (
    WorkerPool,
    MultiprocessScoreProvider,
    make_score_provider,
    ScoringFabric,
    ScoringFabric.client,
    DesignService,
)


@pytest.mark.parametrize("obj", SCORING_FRONTS, ids=lambda obj: obj.__qualname__)
def test_scoring_fronts_take_no_keyword_pass_through(obj):
    kinds = {p.kind for p in inspect.signature(obj).parameters.values()}
    assert inspect.Parameter.VAR_KEYWORD not in kinds


def test_pool_settings_no_caller_varies_are_class_constants():
    assert WorkerPool.TIMEOUT_S == 300.0
    assert WorkerPool.MAX_RETRIES == 3
    assert WorkerPool.CLOSE_GRACE_S == 10.0
    assert WorkerPool.START_METHOD is None
