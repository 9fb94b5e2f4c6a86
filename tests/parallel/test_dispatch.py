"""Request-on-demand dispatch through real worker processes.

Three contracts of the slice/window protocol that unit tests on the
scheduler cannot see:

* **liveness** — a worker never sits idle while a slice addressed to it
  is queued, so a bred generation costs its work, not a poll interval;
* **the serial scores, exactly** — workers full-sweep every candidate,
  and the serial provider's delta route is bit-exact with that sweep, so
  a seeded campaign has one history on either provider;
* **precise recovery** — the master knows which worker holds which
  slice, so a death re-dispatches the candidates of that worker's
  unacknowledged slices and nothing else;
* **frames of candidates** — a slice frame is its candidates' bytes plus
  a fixed overhead each: no similarity structure rides along.
"""

import pickle
import time

import numpy as np
import pytest

from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import SerialScoreProvider
from repro.parallel.messages import WorkSlice
from repro.parallel.mp_backend import MultiprocessScoreProvider, WorkerPool
from repro.parallel.worker import FaultPlan
from repro.service import history_digest
from repro.telemetry import MetricsRegistry

pytestmark = pytest.mark.faults

POPULATION = 24
LENGTH = 20
BRED_GENERATIONS = 4
SEED = 18
#: Bytes a slice frame may take per candidate beyond the candidate's own:
#: its id, its problem reference and a share of the frame's header and
#: of the one pickled problem (~220 bytes for a one-candidate frame on
#: ``tiny``; a frame that carried structures took ~1 300 a candidate).
FRAME_BYTES_PER_CANDIDATE = 320


def _campaign(provider):
    return InSiPSEngine(
        provider,
        GAParams(),
        population_size=POPULATION,
        candidate_length=LENGTH,
        seed=SEED,
    ).run(BRED_GENERATIONS + 1)  # generation 0 is the initial population


def _unanswered_items(stats):
    """Candidates handed to a worker that it never answered: with no stale
    reply, exactly those of slices lost with a dead worker."""
    return sum(
        int(w["dispatched"] - w["items"]) for w in stats["workers"].values()
    )


def test_bred_generations_never_wait_out_a_poll(tiny_engine, tiny_problem):
    """Every bred generation of a seeded campaign returns in well under
    half a second on a 2-worker pool (a worker sleeping on the wrong
    queue made each one cost a full second), and the queue-depth gauge
    reads 0 afterwards."""
    target, non_targets = tiny_problem
    registry = MetricsRegistry()
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=2,
        telemetry=registry,
    ) as provider:
        walls = []
        inner = provider.scores_with_provenance

        def timed(sequences, provenances):
            start = time.perf_counter()
            out = inner(sequences, provenances)
            walls.append(time.perf_counter() - start)
            return out

        provider.scores_with_provenance = timed
        result = _campaign(provider)
        stats = provider.pool.stats()
    assert result.completed
    # The first call scores the initial population and pays the spawn.
    bred = walls[1:]
    assert len(bred) == BRED_GENERATIONS
    assert max(bred) < 0.5, bred
    assert registry.gauge("parallel.queue_depth").value == 0.0
    # The stall would have been visible here: time blocked on the inbox
    # while the master had work is bounded by the campaign, not by polls.
    # One observation per slice: the worker waits once for a whole slice.
    waits = registry.histogram("parallel.inbox_wait")
    assert waits.count == stats["slices"] == registry.counter("parallel.slices").value
    assert stats["slices"] < stats["dispatched"]
    workers = stats["workers"].values()
    assert stats["dispatched"] == sum(int(w["items"]) for w in workers)
    assert all(w["inbox_wait_s"] >= 0.0 for w in workers)


def test_pool_full_sweeps_to_the_serial_delta_route_scores(
    tiny_engine, tiny_problem
):
    """Same seed, same history: the serial provider patches children from
    their parents while the pool's workers full-sweep them, and the pool
    scores exactly the serial provider's cache misses.  Delta accounting
    comes from the serial provider only."""
    target, non_targets = tiny_problem
    serial_registry = MetricsRegistry()
    serial_provider = SerialScoreProvider(
        tiny_engine, target, non_targets, telemetry=serial_registry
    )
    serial = _campaign(serial_provider)
    pool_registry = MetricsRegistry()
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=2,
        telemetry=pool_registry,
    ) as provider:
        pooled = _campaign(provider)
        stats = provider.runtime_stats()
    assert history_digest(pooled.history) == history_digest(serial.history)
    assert stats["dispatched"] == serial_provider.cache_stats["misses"] > 0
    assert stats["fault_tolerance"]["degraded_items"] == 0
    assert serial_registry.counter("pipe.delta.hits").value > 0
    assert not [n for n in pool_registry.snapshot() if n.startswith("pipe.delta.")]


def test_death_redispatches_only_the_dead_workers_window(
    tiny_engine, tiny_problem, rng
):
    """Every worker is slow and dies pulling its third slice, so deaths
    are detected while the survivors still hold work.  The retries are
    exactly the candidates of the dead workers' unacknowledged slices —
    handed to them and never answered — the survivors' replies are all
    wanted (nothing was duplicated), and the scores are bit-exact."""
    target, non_targets = tiny_problem
    # 64 candidates go out in slices of 16, 12, 9, 8, 8, 8 and 3: each
    # worker is handed a third slice while the other still holds work.
    seqs = [rng.integers(0, 20, size=25).astype(np.uint8) for _ in range(64)]
    expected = SerialScoreProvider(tiny_engine, target, non_targets).scores(seqs)
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=2,
        faults=FaultPlan(crash_on_item=2, delay=0.1),
    ) as provider:
        out = provider.scores(seqs)
        stats = provider.pool.stats()
    faults = stats["fault_tolerance"]
    assert out == expected
    assert faults["worker_deaths"] >= 2
    assert faults["retries"] == _unanswered_items(stats) > 0
    assert faults["stale_dropped"] == 0
    assert faults["degraded_items"] == 0


def test_slice_frames_carry_candidates_not_structures(
    tiny_engine, tiny_problem, monkeypatch
):
    """Every slice frame of a 3-generation campaign with provenance is
    at most its candidates' bytes plus a fixed overhead each: a frame
    that carried a ~30 KB similarity structure would be far over."""
    target, non_targets = tiny_problem
    frames: list[tuple[int, int, int]] = []
    real_send = WorkerPool._send

    def send(pool, wid, frame):
        message = pickle.loads(frame)
        if isinstance(message, WorkSlice):
            payload = sum(len(p) for p in message.payloads)
            frames.append((len(frame), payload, len(message.payloads)))
        real_send(pool, wid, frame)

    monkeypatch.setattr(WorkerPool, "_send", send)
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=2
    ) as provider:
        InSiPSEngine(
            provider,
            GAParams(),
            population_size=POPULATION,
            candidate_length=LENGTH,
            seed=SEED,
        ).run(3)
        dispatched = provider.pool.stats()["dispatched"]
    assert sum(k for _, _, k in frames) == dispatched > POPULATION
    over = [
        (size, payload, k)
        for size, payload, k in frames
        if size > payload + FRAME_BYTES_PER_CANDIDATE * k
    ]
    assert over == []
