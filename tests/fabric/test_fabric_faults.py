"""Fabric fairness and failure behaviour (the ``faults`` tier).

Guarantees that only show up with several clients or mid-flight loss: a
10x-larger job cannot delay a small one (every running job advances
exactly one generation per round of the design service's loop), closing
one client leaves the fabric serving the others bit-exactly, and closing
the fabric releases a client that keeps scoring.
"""

import threading
import time

import numpy as np
import pytest

from repro.fabric import ClientClosedError, FabricClosedError, ScoringFabric
from repro.ga.fitness import SerialScoreProvider
from repro.parallel.worker import FaultPlan
from repro.service import DesignService, JobSpec, JobState

pytestmark = pytest.mark.faults

LENGTH = 20


def _candidates(seed, n):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 20, size=LENGTH).astype(np.uint8) for _ in range(n)]


def _wait(predicate, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_large_client_cannot_starve_small_one(tiny_world, tmp_path):
    # A job with a 10x-larger population runs next to a small one.  Each
    # round of the service loop advances every running job by exactly one
    # generation and fuses both jobs' misses into one dispatch, so the
    # small job finishes after exactly its own generation count of
    # rounds, whatever the large one's backlog.
    small_generations = 3
    big_target, small_target = [
        p.name for p in tiny_world.candidate_targets()[:2]
    ]
    with DesignService(
        tiny_world, tmp_path / "svc", max_concurrent=2, fsync=False, num_workers=1
    ) as service:
        rounds: list[dict[str, object]] = []
        dispatch = service.fabric.dispatch

        def recording_dispatch(requests):
            rounds.append(
                {
                    "targets": [client.target for client, _ in requests],
                    "done": {
                        status["job_id"]: status["generations_done"]
                        for status in service.jobs()
                    },
                }
            )
            return dispatch(requests)

        service.fabric.dispatch = recording_dispatch
        service.submit(
            JobSpec(
                tenant="big", target=big_target, seed=5, generations=400,
                population_size=80, candidate_length=LENGTH, job_id="job-big",
            )
        )
        service.submit(
            JobSpec(
                tenant="small", target=small_target, seed=6,
                generations=small_generations, population_size=8,
                candidate_length=LENGTH, job_id="job-small",
            )
        )
        assert _wait(
            lambda: service.status("job-small")["state"] == JobState.DONE
        ), service.status("job-small")
        assert service.status("job-big")["state"] == JobState.RUNNING
        service.cancel("job-big")
    shared = [r for r in rounds if small_target in r["targets"]]
    assert len(shared) == small_generations
    first_big = shared[0]["done"]["job-big"]
    for k, record in enumerate(shared):
        # One request per running job, claim order: big, then small.
        assert record["targets"] == [big_target, small_target]
        assert record["done"] == {"job-big": first_big + k, "job-small": k}


def test_client_crash_mid_batch_leaves_fabric_serving(
    tiny_engine, tiny_problem
):
    # Client B closes while client A's dispatch is in flight.  A is served
    # in full and bit-exact; B is final: its next call (even one its LRU
    # could answer) and any dispatch naming it raise ClientClosedError.
    target, non_targets = tiny_problem
    arrays = _candidates(99, 4)
    ref = SerialScoreProvider(tiny_engine, target, non_targets).scores(
        [a.copy() for a in arrays]
    )
    with ScoringFabric(
        tiny_engine, num_workers=1, faults=FaultPlan(delay=0.02)
    ) as fabric:
        client_a = fabric.client(target, non_targets)
        client_b = fabric.client(target, non_targets)
        b_arrays = _candidates(7, 2)
        client_b.scores(b_arrays)
        got: list[object] = []
        thread = threading.Thread(
            target=lambda: got.append(client_a.scores([a.copy() for a in arrays]))
        )
        thread.start()
        time.sleep(0.03)
        client_b.close()  # the crash, mid-way through A's dispatch
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        with pytest.raises(ClientClosedError):
            client_b.scores(b_arrays)
        with pytest.raises(ClientClosedError):
            fabric.dispatch([(client_b, _candidates(8, 1))])
        # A keeps being served after B is gone.
        assert client_a.scores([a.copy() for a in arrays]) == ref
        stats = fabric.fabric_stats()
    assert got == [ref]
    assert stats["per_client"][client_b.client_id]["closed"]
    assert stats["per_client"][client_a.client_id]["items"] == 4


def test_fabric_close_releases_inflight_waiters(tiny_engine, tiny_problem):
    # A client scoring in a loop while the whole fabric closes must be
    # released promptly with a closed error, never wedged.
    target, non_targets = tiny_problem
    fabric = ScoringFabric(tiny_engine, num_workers=1)
    client = fabric.client(target, non_targets)
    errors: list[BaseException] = []

    def run():
        seed = 0
        try:
            while True:
                client.scores(_candidates(seed, 2))
                seed += 1
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    time.sleep(0.2)
    fabric.close()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert errors, "waiter was not released by fabric.close()"
    assert isinstance(errors[0], (FabricClosedError, ClientClosedError))
