"""End-to-end :class:`~repro.service.DesignService` behaviour.

The acceptance contract of the multi-tenant service: fair quota-bounded
admission (a quota-blocked job *stays PENDING*), cancel/evict at a
generation barrier, resume bit-exact with an uninterrupted run of the
same spec on a dedicated provider, durable artifacts with stable
schemas, and crash recovery from the on-disk state alone.
"""

import json
import threading
import time

import pytest

from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import SerialScoreProvider
from repro.parallel.worker import FaultPlan
from repro.service import (
    DesignService,
    JobSpec,
    JobState,
    QuotaError,
    TenantQuota,
    history_digest,
    read_result,
    read_status,
    write_cancel_request,
    write_submit_request,
)

TARGET = "YBL051C"
POPULATION = 8
LENGTH = 20
SEED = 7


def _wait(predicate, timeout=120.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _spec(**overrides):
    base = dict(
        tenant="alice",
        target=TARGET,
        seed=SEED,
        generations=3,
        population_size=POPULATION,
        candidate_length=LENGTH,
        checkpoint_every=1,
    )
    base.update(overrides)
    return JobSpec(**base)


def _reference(tiny_world, spec):
    """The same JobSpec run uninterrupted on a dedicated serial provider."""
    non_targets = tiny_world.non_targets_for(
        spec.target, limit=spec.non_target_limit
    )
    engine = InSiPSEngine(
        SerialScoreProvider(tiny_world.engine, spec.target, non_targets),
        spec.params,
        population_size=spec.population_size,
        candidate_length=spec.candidate_length,
        seed=spec.seed,
    )
    return engine.run(spec.generations)


def _service(tiny_world, root, **overrides):
    kwargs = dict(max_concurrent=2, fsync=False, num_workers=1)
    kwargs.update(overrides)
    return DesignService(tiny_world, root, **kwargs)


def test_bad_pool_setting_fails_at_construction(tiny_world, tmp_path):
    # Regression: a misspelt or invalid pool setting used to construct
    # fine, admit jobs, and end every one FAILED inside an engine thread.
    before = set(threading.enumerate())
    with pytest.raises(TypeError, match="workers"):
        DesignService(tiny_world, tmp_path / "svc", workers=2)  # num_workers
    with pytest.raises(ValueError, match="num_workers"):
        DesignService(tiny_world, tmp_path / "svc", num_workers=0)
    # Raised before the service loop started or any job could be admitted.
    assert set(threading.enumerate()) == before
    assert not list((tmp_path / "svc" / "jobs").iterdir())


def test_submit_runs_to_done_with_stable_artifacts(tiny_world, tmp_path):
    spec = _spec()
    with _service(tiny_world, tmp_path / "svc") as service:
        job_id = service.submit(spec)
        assert _wait(
            lambda: service.status(job_id)["state"] == JobState.DONE
        ), service.status(job_id)
        status = service.status(job_id)
        result = service.result(job_id)

        # In-memory status equals the durable artifact, field for field.
        assert read_status(service.root, job_id) == status
        assert read_result(service.root, job_id) == result
        assert status["format"] == "repro-job-status"
        assert status["attempts"] == 1
        assert status["generations_done"] == spec.generations
        assert status["error"] is None

        job_directory = service.root / "jobs" / job_id
        assert (job_directory / "spec.json").exists()
        assert (job_directory / "telemetry.jsonl").exists()
        assert list((job_directory / "checkpoints").glob("ckpt-*.json"))

    # Bit-exact with a dedicated uninterrupted provider (the fabric
    # guarantee carried through the service layer).
    reference = _reference(tiny_world, spec)
    assert result["format"] == "repro-job-result"
    assert result["fitness"] == reference.best_fitness
    assert result["sequence"] == reference.best.sequence
    assert result["history_digest"] == history_digest(reference.history)
    assert result["completed"] is True


def test_quota_blocked_job_stays_pending_and_runs_after_cancel(
    tiny_world, tmp_path
):
    # 3 jobs across 2 tenants with a per-tenant quota of 1 concurrent
    # job: alice's second job must sit PENDING while her first runs,
    # even with a free run slot; cancelling the first mid-run frees
    # the slot and the pending job completes.
    with _service(
        tiny_world,
        tmp_path / "svc",
        default_quota=TenantQuota(max_running=1),
        faults=FaultPlan(delay=0.01),
    ) as service:
        long_a = service.submit(
            _spec(tenant="alice", generations=400, job_id="job-a-long")
        )
        short_b = service.submit(
            _spec(tenant="bob", generations=2, job_id="job-b-short")
        )
        blocked_a = service.submit(
            _spec(tenant="alice", generations=2, job_id="job-a-blocked")
        )

        # Both tenants run concurrently; bob's short job finishes.
        assert _wait(
            lambda: service.status(short_b)["state"] == JobState.DONE
        ), service.status(short_b)
        # alice's first job is still mid-run and her second still queued:
        # the quota, not thread availability, is what blocks it.
        assert service.status(long_a)["state"] == JobState.RUNNING
        assert service.status(blocked_a)["state"] == JobState.PENDING

        # Cancel mid-run: stops at the next barrier, stays resumable.
        assert _wait(lambda: service.status(long_a)["generations_done"] >= 1)
        service.cancel(long_a)
        assert _wait(
            lambda: service.status(long_a)["state"] == JobState.CANCELLED
        ), service.status(long_a)
        cancelled = service.status(long_a)
        assert cancelled["generations_done"] < 400
        assert "cancel" in cancelled["reason"]
        assert list(
            (service.root / "jobs" / long_a / "checkpoints").glob("ckpt-*")
        ), "cancel must leave a resume point"

        # The quota slot freed: the blocked job now runs to completion.
        assert _wait(
            lambda: service.status(blocked_a)["state"] == JobState.DONE
        ), service.status(blocked_a)
        stats = service.service_stats()
        assert stats["jobs"][JobState.CANCELLED] == 1
        assert stats["jobs"][JobState.DONE] == 2


def test_evicted_job_resumes_bit_exact(tiny_world, tmp_path):
    # The acceptance gate: evict mid-run (checkpoint + release client),
    # resume through the service, and the final GAResult must be
    # bit-exact with the same JobSpec run uninterrupted on a dedicated
    # serial provider.
    spec = _spec(generations=8, job_id="job-evictee")
    with _service(
        tiny_world, tmp_path / "svc", faults=FaultPlan(delay=0.01)
    ) as service:
        job_id = service.submit(spec)
        assert _wait(lambda: service.status(job_id)["generations_done"] >= 2)
        service.evict(job_id)
        assert _wait(
            lambda: service.status(job_id)["state"] == JobState.EVICTED
        ), service.status(job_id)
        evicted = service.status(job_id)
        assert evicted["generations_done"] < spec.generations

        service.resume(job_id)
        assert _wait(
            lambda: service.status(job_id)["state"] == JobState.DONE
        ), service.status(job_id)
        assert service.status(job_id)["attempts"] == 2
        result = service.result(job_id)

    reference = _reference(tiny_world, spec)
    assert result["history_digest"] == history_digest(reference.history)
    assert result["sequence"] == reference.best.sequence
    assert result["fitness"] == reference.best_fitness
    assert result["generations"] == spec.generations


def test_quota_rejections_are_deterministic_with_tenant_and_reason(
    tiny_world, tmp_path
):
    with _service(
        tiny_world,
        tmp_path / "svc",
        max_concurrent=1,
        max_queue=1,
        quotas={"carol": TenantQuota(max_running=1, max_demand=2)},
        faults=FaultPlan(delay=0.01),
    ) as service:
        service.submit(
            _spec(tenant="carol", generations=200, demand=2, job_id="job-c1")
        )
        # Let the service loop claim it so the run queue is empty and
        # the *demand* quota (RUNNING jobs count too) is what rejects.
        assert _wait(
            lambda: service.status("job-c1")["state"] == JobState.RUNNING
        )
        with pytest.raises(QuotaError) as excinfo:
            service.submit(_spec(tenant="carol", demand=1, job_id="job-c2"))
        assert excinfo.value.tenant == "carol"
        assert "demand quota" in excinfo.value.reason

        # Other tenants are unaffected by carol's quota but bounded by
        # the global queue: one pending job fills it.
        service.submit(_spec(tenant="dave", job_id="job-d1"))
        with pytest.raises(QuotaError) as excinfo:
            service.submit(_spec(tenant="erin", job_id="job-e1"))
        assert excinfo.value.tenant == "erin"
        assert "queue full" in excinfo.value.reason
        assert service.service_stats()["rejected"] == 2
        service.cancel("job-c1")


def test_cancel_pending_job_and_lifecycle_validation(tiny_world, tmp_path):
    with _service(
        tiny_world,
        tmp_path / "svc",
        max_concurrent=1,
        default_quota=TenantQuota(max_running=1),
        faults=FaultPlan(delay=0.01),
    ) as service:
        running = service.submit(_spec(generations=400, job_id="job-run"))
        queued = service.submit(_spec(job_id="job-queued"))
        assert _wait(
            lambda: service.status(running)["state"] == JobState.RUNNING
        )
        # Cancelling a job that never ran is immediate.
        assert service.cancel(queued) == JobState.CANCELLED
        assert service.status(queued)["attempts"] == 0

        with pytest.raises(KeyError):
            service.status("job-unknown")
        with pytest.raises(ValueError, match="CANCELLED"):
            service.cancel(queued)
        # A cancelled job resumes (fresh from its seed: no snapshot yet).
        service.resume(queued)
        service.cancel(running)
        assert _wait(
            lambda: service.status(queued)["state"] == JobState.DONE
        ), service.status(queued)
        with pytest.raises(ValueError, match="DONE"):
            service.resume(queued)
        with pytest.raises(ValueError, match="already exists"):
            service.submit(_spec(job_id="job-queued"))


def test_file_control_plane_submit_cancel_and_rejection(tiny_world, tmp_path):
    root = tmp_path / "svc"
    with _service(
        # A slow job (40 ms a slice, one slice a generation) so the evict
        # lands mid-run.
        tiny_world, root, faults=FaultPlan(delay=0.04)
    ) as service:
        # Submit requests are admitted in FIFO order at the next poll.
        write_submit_request(root, _spec(job_id="job-file-1"))
        write_submit_request(
            root, _spec(target="NOPE-not-a-protein", job_id="job-file-bad")
        )
        service.poll_control_plane()
        assert service.status("job-file-1")["state"] in (
            JobState.PENDING,
            JobState.RUNNING,
            JobState.DONE,
        )
        # The invalid request is rejected loudly, not silently dropped.
        with pytest.raises(KeyError):
            service.status("job-file-bad")
        rejected = list((root / "rejected").glob("*.json"))
        assert len(rejected) == 1
        assert "NOPE-not-a-protein" in rejected[0].read_text()
        assert not list((root / "queue").glob("*.json"))

        # Cancel markers are honoured for live jobs.
        write_submit_request(
            root, _spec(generations=400, job_id="job-file-2")
        )
        service.poll_control_plane()
        assert _wait(lambda: service.status("job-file-2")["generations_done"] >= 1)
        write_cancel_request(root, "job-file-2")
        service.poll_control_plane()
        assert _wait(
            lambda: service.status("job-file-2")["state"] == JobState.CANCELLED
        ), service.status("job-file-2")
        assert not (root / "jobs" / "job-file-2" / "cancel.request").exists()


def test_stale_cancel_marker_does_not_cancel_a_resumed_job(tiny_world, tmp_path):
    # Regression: a cancel marker written under an EVICTED job stayed on
    # disk (only live jobs' markers were read) and cancelled the job at
    # the first poll after its resume.
    root = tmp_path / "svc"
    spec = _spec(generations=6, job_id="job-stale-cancel")
    with _service(tiny_world, root, faults=FaultPlan(delay=0.01)) as service:
        job_id = service.submit(spec)
        assert _wait(lambda: service.status(job_id)["generations_done"] >= 1)
        service.evict(job_id)
        assert _wait(
            lambda: service.status(job_id)["state"] == JobState.EVICTED
        ), service.status(job_id)
        write_cancel_request(root, job_id)
        assert service.poll_control_plane() == 1
        assert not (root / "jobs" / job_id / "cancel.request").exists()
        (record,) = (root / "rejected").glob(f"cancel-{job_id}-*.json")
        refusal = json.loads(record.read_text())
        assert refusal["job_id"] == job_id
        assert refusal["state"] == JobState.EVICTED

        service.resume(job_id)
        service.poll_control_plane()
        assert _wait(
            lambda: service.status(job_id)["state"] in JobState.TERMINAL
        ), service.status(job_id)
        assert service.status(job_id)["state"] == JobState.DONE
        result = service.result(job_id)

    reference = _reference(tiny_world, spec)
    assert result["history_digest"] == history_digest(reference.history)


def test_unreadable_queue_entry_is_rejected_and_moved_aside(tiny_world, tmp_path):
    # Regression: a directory named like a request made every poll raise
    # IsADirectoryError, so `serve` exited and the requests sorted after
    # it were never read.
    root = tmp_path / "svc"
    with _service(tiny_world, root) as service:
        bad = root / "queue" / "req-00000000000000000000-0.json"
        bad.mkdir(parents=True)
        write_submit_request(root, _spec(job_id="job-after-bad"))
        assert sorted(root.joinpath("queue").iterdir())[0] == bad

        assert service.poll_control_plane() == 2
        assert service.status("job-after-bad")["state"] in (
            JobState.PENDING,
            JobState.RUNNING,
            JobState.DONE,
        )
        record = json.loads((root / "rejected" / bad.name).read_text())
        assert "IsADirectoryError" in record["error"]
        assert not list((root / "queue").iterdir())
        assert (root / "rejected" / f"{bad.name}.entry").is_dir()

        assert service.poll_control_plane() == 0


def test_recovery_readmits_interrupted_jobs_bit_exact(tiny_world, tmp_path):
    # Simulate a SIGKILL: run a job partway, evict it (leaving durable
    # snapshots), then forge its on-disk state back to RUNNING — exactly
    # what a crashed service leaves behind.  A new service over the same
    # root must re-admit it and finish bit-exact.
    root = tmp_path / "svc"
    spec = _spec(generations=6, job_id="job-crash")
    with _service(
        # A slow job (40 ms a slice, one slice a generation) so the evict
        # lands mid-run.
        tiny_world, root, faults=FaultPlan(delay=0.04)
    ) as service:
        service.submit(spec)
        assert _wait(lambda: service.status("job-crash")["generations_done"] >= 2)
        service.evict("job-crash")
        assert _wait(
            lambda: service.status("job-crash")["state"] == JobState.EVICTED
        )

    status_path = root / "jobs" / "job-crash" / "status.json"
    forged = json.loads(status_path.read_text())
    forged["state"] = JobState.RUNNING
    status_path.write_text(json.dumps(forged))

    with _service(tiny_world, root) as service:
        assert service.service_stats()["recovered"] == 1
        assert _wait(
            lambda: service.status("job-crash")["state"] == JobState.DONE
        ), service.status("job-crash")
        result = service.result("job-crash")

    reference = _reference(tiny_world, spec)
    assert result["history_digest"] == history_digest(reference.history)
    assert result["sequence"] == reference.best.sequence


def test_wrong_typed_submit_request_is_rejected_and_the_next_admitted(
    tiny_world, tmp_path
):
    # Regression: `"seed": null` made JobSpec.from_payload raise TypeError,
    # which poll_control_plane did not catch — the poll raised (killing
    # `serve`), no rejection record was written and the valid request
    # queued behind it was never admitted.
    root = tmp_path / "svc"
    with _service(tiny_world, root) as service:
        queue = root / "queue"
        queue.mkdir(parents=True)
        bad = queue / "req-00000000000000000000-0.json"
        bad.write_text(
            json.dumps({**_spec(job_id="job-bad").to_payload(), "seed": None})
        )
        write_submit_request(root, _spec(job_id="job-good"))

        assert service.poll_control_plane() == 2
        record = json.loads((root / "rejected" / bad.name).read_text())
        assert "seed" in record["error"]
        assert record["error"].startswith("ValueError")
        assert service.status("job-good")["state"] in (
            JobState.PENDING,
            JobState.RUNNING,
            JobState.DONE,
        )
        with pytest.raises(KeyError):
            service.status("job-bad")
        assert not list(queue.iterdir())


def test_non_integer_submit_request_is_rejected_and_the_next_admitted(
    tiny_world, tmp_path
):
    # Regression: from_payload truncated "generations": 2.5 to 2, so the
    # request ran as a job validate() would have refused.  It is rejected
    # with a record, and the request queued behind it is still admitted.
    root = tmp_path / "svc"
    with _service(tiny_world, root) as service:
        queue = root / "queue"
        queue.mkdir(parents=True)
        bad = queue / "req-00000000000000000000-0.json"
        bad.write_text(
            json.dumps({**_spec(job_id="job-bad").to_payload(), "generations": 2.5})
        )
        write_submit_request(root, _spec(job_id="job-good"))

        assert service.poll_control_plane() == 2
        record = json.loads((root / "rejected" / bad.name).read_text())
        assert record["error"].startswith("ValueError")
        assert "generations must be an integer" in record["error"]
        assert service.status("job-good")["state"] in (
            JobState.PENDING,
            JobState.RUNNING,
            JobState.DONE,
        )
        with pytest.raises(KeyError):
            service.status("job-bad")
        assert not list(queue.iterdir())


def _pending_on_disk(tiny_world, root, spec):
    """Leave ``spec`` PENDING under ``root`` as a killed service does, so a
    new service admits it before its loop first runs."""
    directory = root / "jobs" / spec.job_id
    (directory / "checkpoints").mkdir(parents=True)
    payload = spec.to_payload()
    payload["non_targets"] = tiny_world.non_targets_for(
        spec.target, limit=spec.non_target_limit
    )
    (directory / "spec.json").write_text(json.dumps(payload))
    (directory / "status.json").write_text(
        json.dumps({"state": JobState.PENDING})
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("attempts", "x"),
        ("submitted_at", "soon"),
        ("attempts", [1]),
        ("generations_done", 2.7),
    ],
)
def test_wrong_typed_status_field_skips_only_that_job(
    tiny_world, tmp_path, field, value
):
    # Regression: _recover_jobs parsed status fields with bare int() /
    # float() outside the try that skips unreadable files, so one bad
    # status.json stopped the service from starting (and 2.7 generations
    # silently became 2).  The bad job is skipped like an unreadable
    # file; the good one is still recovered.
    root = tmp_path / "svc"
    good, bad = _spec(job_id="job-good"), _spec(job_id="job-bad")
    for spec in (good, bad):
        _pending_on_disk(tiny_world, root, spec)
    status_path = root / "jobs" / "job-bad" / "status.json"
    status_path.write_text(
        json.dumps({"state": JobState.PENDING, field: value})
    )
    with _service(tiny_world, root) as service:
        assert service.service_stats()["recovered"] == 1
        assert service.status("job-good")["job_id"] == "job-good"
        with pytest.raises(KeyError):
            service.status("job-bad")


def _dedicated_misses(tiny_world, spec):
    """(cache misses per generation, history digest) of ``spec`` run on a
    dedicated serial provider."""
    non_targets = tiny_world.non_targets_for(
        spec.target, limit=spec.non_target_limit
    )
    provider = SerialScoreProvider(tiny_world.engine, spec.target, non_targets)
    misses: list[int] = []

    def on_generation(population, stats):
        misses.append(provider.cache_stats["misses"] - sum(misses))

    result = InSiPSEngine(
        provider,
        spec.params,
        population_size=spec.population_size,
        candidate_length=spec.candidate_length,
        seed=spec.seed,
    ).run(spec.generations, on_generation=on_generation)
    return misses, history_digest(result.history)


@pytest.mark.faults
def test_fused_dispatch_counts_are_exact(tiny_world, tmp_path):
    # Two jobs claimed in the same round are fused at every generation
    # barrier: one dispatch per round that has any cache miss, holding
    # exactly both jobs' misses.  So the counts are a function of the
    # jobs, not of timing — two fresh services agree with each other and
    # with the count read off dedicated runs.  The large job's breeding
    # and checkpoint take longer than a timed coalescing window, which
    # would have split its rounds from the small job's.
    specs = [
        _spec(tenant="alice", population_size=300, generations=3,
              job_id="job-big"),
        _spec(tenant="bob", seed=SEED + 1, generations=5, job_id="job-small"),
    ]
    dedicated = [_dedicated_misses(tiny_world, spec) for spec in specs]
    rounds = max(spec.generations for spec in specs)
    per_round = [
        sum(misses[r] for misses, _ in dedicated if r < len(misses))
        for r in range(rounds)
    ]
    expected = {
        "fused_batches": sum(1 for n in per_round if n),
        "fused_items": sum(per_round),
    }
    for attempt in range(2):
        root = tmp_path / f"svc-{attempt}"
        for spec in specs:
            _pending_on_disk(tiny_world, root, spec)
        with _service(tiny_world, root, fsync=True) as service:
            for spec in specs:
                assert _wait(
                    lambda: service.status(spec.job_id)["state"] == JobState.DONE
                ), service.status(spec.job_id)
            fabric = service.service_stats()["fabric"]
            digests = [
                service.result(spec.job_id)["history_digest"] for spec in specs
            ]
        assert {key: fabric[key] for key in expected} == expected
        assert digests == [digest for _, digest in dedicated]


@pytest.mark.faults
def test_service_loop_is_the_only_thread(tiny_world, tmp_path):
    # One loop drives every running job: with two jobs RUNNING the
    # service holds exactly one thread of its own (no engine thread per
    # job, no fabric dispatcher).
    before = set(threading.enumerate())
    with _service(
        tiny_world, tmp_path / "svc", faults=FaultPlan(delay=0.01)
    ) as service:
        for tenant in ("alice", "bob"):
            service.submit(
                _spec(tenant=tenant, generations=400, job_id=f"job-{tenant}")
            )
        assert _wait(
            lambda: all(
                service.status(f"job-{tenant}")["state"] == JobState.RUNNING
                for tenant in ("alice", "bob")
            )
        )
        assert _wait(lambda: service.status("job-bob")["generations_done"] >= 1)
        own = set(threading.enumerate()) - before
        assert len(own) == 1, sorted(t.name for t in own)
        for tenant in ("alice", "bob"):
            service.cancel(f"job-{tenant}")
    assert set(threading.enumerate()) <= before
