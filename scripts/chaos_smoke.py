#!/usr/bin/env python
"""End-to-end chaos smoke test for the campaign supervisor.

Runs a tiny design campaign under two seeded fault scenarios and demands
the supervisor's contract hold for both — bit-exact results, never a
traceback:

1. **Permanent pool loss.**  A chaos plan kills every worker on its
   first slice (respawns die too).  The parallel provider must degrade to
   master-serial scoring, trip its circuit breaker, and finish the
   campaign with scores identical to the serial reference and
   ``degraded_items > 0``.
2. **Checkpoint corruption.**  A checkpointing campaign is stopped
   mid-run, its newest snapshot is bit-flipped on disk, and the resume
   must quarantine the damaged file (``*.corrupt``), walk back to the
   previous valid snapshot, and still finish bit-exact against the
   uninterrupted reference.
3. **Shared fabric with a client crash.**  Three concurrent seeded
   campaigns run as clients of one :class:`~repro.fabric.ScoringFabric`;
   one client is closed mid-run (a campaign crashing between its
   batches).  The two surviving campaigns must finish bit-exact
   against dedicated-pool runs of the same problems, and the crashed
   campaign must surface ``ClientClosedError`` instead of wedging the
   fabric.

4. **Service SIGKILL.**  A ``python -m repro serve`` process — that
   pid alone, not its process group — is SIGKILLed mid-job: no shutdown
   hook, no eviction, nothing but the durable ``jobs/<id>/`` artifacts
   survive.  Its workers must see their pipes close and leave, and the
   proteome segment must go with the last of them (no orphan, nothing in
   ``/dev/shm``).  A restarted service must re-admit the interrupted job
   from its status/spec files, resume from the newest snapshot, and
   finish bit-exact against a dedicated serial run of the same JobSpec.

Every fault is scheduled deterministically (no timing races, no random
kill points), so a failure here is a regression, not flake.  (The fabric
and service scenarios' injected crashes land at a wall-clock point, but
every outcome they check holds wherever in the campaign the kill lands.)
Exit status 0 when the selected scenarios hold, 1 otherwise.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/chaos_smoke.py [--only NAME ...]

``--only`` limits the run to named scenarios (``pool-loss``,
``checkpoint``, ``fabric``, ``service``); default is all of
them.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

SEED = 2015
TARGET = "YBL051C"
POPULATION = 10
LENGTH = 20
GENERATIONS = 4
NUM_WORKERS = 2
INTERRUPT_AT_GENERATION = 2


def _world_problem():
    from repro import get_profile

    world = get_profile("tiny").build_world()
    non_targets = world.non_targets_for(TARGET, limit=8)
    return world, non_targets


def _engine(provider):
    from repro import GAParams, InSiPSEngine

    return InSiPSEngine(
        provider,
        GAParams(),
        population_size=POPULATION,
        candidate_length=LENGTH,
        seed=SEED,
    )


def _reference(world, non_targets):
    from repro import SerialScoreProvider

    return _engine(SerialScoreProvider(world.engine, TARGET, non_targets)).run(
        GENERATIONS
    )


def _check(checks: dict[str, bool]) -> bool:
    for name, ok in checks.items():
        print(f"  {name}: {'OK' if ok else 'MISMATCH'}", flush=True)
    return all(checks.values())


def _scenario_pool_loss(world, non_targets, reference) -> bool:
    """Scenario 1: every worker dies on slice 0, forever."""
    from unittest import mock

    from repro.parallel import MultiprocessScoreProvider, WorkerPool
    from repro.parallel.worker import FaultPlan
    from repro.resilience import BreakerState
    from repro.telemetry import MetricsRegistry

    print("scenario 1: permanent worker loss ...", flush=True)
    telemetry = MetricsRegistry()
    # One re-dispatch per item, so the budget runs out on the first batch.
    with (
        mock.patch.object(WorkerPool, "MAX_RETRIES", 1),
        MultiprocessScoreProvider(
            world.engine,
            TARGET,
            non_targets,
            num_workers=NUM_WORKERS,
            faults=FaultPlan(crash_on_item=0),  # every worker, respawns too
            telemetry=telemetry,
        ) as provider,
    ):
        result = _engine(provider).run(GENERATIONS)
        checks = {
            "campaign completed": result.completed,
            "best sequence bit-exact": (
                result.best.sequence == reference.best.sequence
            ),
            "history bit-exact": json.dumps(result.history.to_payload())
            == json.dumps(reference.history.to_payload()),
            "degraded_items > 0": provider.pool.degraded_items > 0,
            "worker deaths observed": provider.pool.worker_deaths > 0,
            "breaker open": provider.pool.breaker.state == BreakerState.OPEN,
            "telemetry agrees": (
                telemetry.counter("parallel.degraded_items").value
                == provider.pool.degraded_items
            ),
        }
    return _check(checks)


def _scenario_checkpoint_corruption(world, non_targets, reference) -> bool:
    """Scenario 2: newest snapshot bit-flipped between run and resume."""
    from repro import SerialScoreProvider
    from repro.checkpoint import CheckpointManager
    from repro.resilience import CheckpointFault, apply_checkpoint_fault
    from repro.telemetry import MetricsRegistry

    print("scenario 2: checkpoint corruption ...", flush=True)
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        ckpt_dir = Path(tmp) / "ckpt"
        ckpt_dir.mkdir()
        manager = CheckpointManager(ckpt_dir, every=1, fsync=False)
        provider = SerialScoreProvider(world.engine, TARGET, non_targets)
        _engine(provider).run(INTERRUPT_AT_GENERATION, checkpoint=manager)

        damaged = apply_checkpoint_fault(ckpt_dir, CheckpointFault("flip"))
        print(f"  corrupted {damaged.name}", flush=True)

        telemetry = MetricsRegistry()
        engine = _engine(SerialScoreProvider(world.engine, TARGET, non_targets))
        engine.telemetry = telemetry
        resumed_at = engine.resume(ckpt_dir)
        result = engine.run(GENERATIONS)
        quarantined = list(ckpt_dir.glob("*.corrupt"))
        checks = {
            "resumed from previous valid snapshot": (
                resumed_at == INTERRUPT_AT_GENERATION - 2
            ),
            "damaged snapshot quarantined": len(quarantined) == 1,
            "corruption counted": (
                telemetry.counter("checkpoint.corrupt_skipped").value == 1
            ),
            "best sequence bit-exact": (
                result.best.sequence == reference.best.sequence
            ),
            "history stats bit-exact": (
                result.history.to_payload()["stats"]
                == reference.history.to_payload()["stats"]
            ),
        }
    return _check(checks)


def _scenario_fabric(world, non_targets, reference) -> bool:
    """Scenario 3: three campaigns share one fabric; one crashes mid-run."""
    import threading
    import time

    from repro.fabric import ClientClosedError, ScoringFabric
    from repro.parallel import MultiprocessScoreProvider
    from repro.parallel.worker import FaultPlan
    from repro.telemetry import MetricsRegistry

    print("scenario 3: shared fabric with a client crash ...", flush=True)
    spare = [n for n in world.non_targets_for(TARGET, limit=12) if n not in non_targets]
    problems = {"a": (TARGET, non_targets)}
    for key, extra_target in zip(("b", "c"), spare):
        problems[key] = (
            extra_target,
            world.non_targets_for(extra_target, limit=8),
        )

    refs = {}
    for key in ("a", "b"):
        t, nts = problems[key]
        with MultiprocessScoreProvider(
            world.engine, t, nts, num_workers=NUM_WORKERS
        ) as dedicated:
            refs[key] = _engine(dedicated).run(GENERATIONS)

    telemetry = MetricsRegistry()
    results: dict[str, object] = {}
    errors: dict[str, BaseException] = {}
    with ScoringFabric(
        world.engine,
        num_workers=NUM_WORKERS,
        faults=FaultPlan(delay=0.01),  # keep campaign C in flight at close
        telemetry=telemetry,
    ) as fabric:
        clients = {k: fabric.client(*problems[k]) for k in ("a", "b", "c")}

        def run_campaign(key: str, generations: int) -> None:
            try:
                results[key] = _engine(clients[key]).run(generations)
            except BaseException as exc:  # noqa: BLE001 - recorded, checked
                errors[key] = exc

        threads = [
            threading.Thread(target=run_campaign, args=("a", GENERATIONS)),
            threading.Thread(target=run_campaign, args=("b", GENERATIONS)),
            # C would run far past the others; it never gets the chance.
            threading.Thread(target=run_campaign, args=("c", GENERATIONS * 50)),
        ]
        for t in threads:
            t.start()
        time.sleep(0.3)
        clients["c"].close()  # the injected crash: C's next call fails
        for t in threads:
            t.join()
        stats = fabric.fabric_stats()

    def _bit_exact(key: str) -> bool:
        result = results.get(key)
        return result is not None and (
            result.best.sequence == refs[key].best.sequence
            and json.dumps(result.history.to_payload())
            == json.dumps(refs[key].history.to_payload())
        )

    checks = {
        "campaign A completed": getattr(results.get("a"), "completed", False),
        "campaign B completed": getattr(results.get("b"), "completed", False),
        "A bit-exact vs dedicated pool": _bit_exact("a"),
        "B bit-exact vs dedicated pool": _bit_exact("b"),
        "crashed campaign surfaced ClientClosedError": isinstance(
            errors.get("c"), ClientClosedError
        ),
        "fused dispatches observed": stats["fused_batches"] > 0,
        "telemetry agrees": (
            telemetry.counter("fabric.fused_items").value == stats["fused_items"]
        ),
    }
    return _check(checks)


def _scenario_service(world, non_targets, reference) -> bool:
    """Scenario 4: SIGKILL ``repro serve`` mid-job; a restart resumes."""
    import os
    import subprocess
    import time

    from repro import SerialScoreProvider
    from repro.service import (
        JobSpec,
        history_digest,
        read_result,
        read_status,
        write_submit_request,
    )

    print("scenario 4: design service SIGKILL mid-job ...", flush=True)
    generations = GENERATIONS * 3
    job_id = "job-chaos"

    import glob

    segments_before = set(glob.glob("/dev/shm/repro-proteome-*"))

    def proc_stat(pid: int | str) -> list[str]:
        """``[state, ppid, ...]`` of a process, ``["X"]`` once it is gone."""
        try:
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            return ["X"]

    def children_of(pid: int) -> list[int]:
        return [
            int(entry)
            for entry in os.listdir("/proc")
            if entry.isdigit() and proc_stat(entry)[1:2] == [str(pid)]
        ]

    def running(pid: int) -> bool:
        # A zombie has exited; it only waits for whoever adopted it.
        return proc_stat(pid)[0] not in ("Z", "X")

    def left_behind(pids: list[int]) -> tuple[list[int], set[str]]:
        """What a killed service has not released 2 s on: its children
        (the workers and the resource tracker) and proteome segments."""
        deadline = time.monotonic() + 2.0
        while True:
            alive = [pid for pid in pids if running(pid)]
            segments = set(glob.glob("/dev/shm/repro-proteome-*")) - segments_before
            if not (alive or segments) or time.monotonic() > deadline:
                return alive, segments
            time.sleep(0.02)

    with tempfile.TemporaryDirectory(prefix="chaos-service-") as tmp:
        root = Path(tmp) / "svc"
        write_submit_request(
            root,
            JobSpec(
                tenant="chaos",
                target=TARGET,
                non_targets=tuple(non_targets),
                seed=SEED,
                generations=generations,
                population_size=POPULATION,
                candidate_length=LENGTH,
                checkpoint_every=1,
                job_id=job_id,
            ),
        )

        def serve() -> subprocess.Popen:
            env = dict(os.environ)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            return subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--root", str(root),
                    "--workers", "1",
                    "--max-concurrent", "1",
                    "--poll-s", "0.05",
                    "--idle-exit-s", "3.0",
                    # Slow each item ~20 ms so the kill window is wide.
                    "--inject-delay-ms", "20",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

        # Run until the job is mid-flight with at least one durable
        # snapshot, then SIGKILL the service process — it alone.
        proc = serve()
        checkpoints = root / "jobs" / job_id / "checkpoints"
        killed_mid_job = False
        children: list[int] = []
        orphans: list[int] = []
        segments: set[str] = set()
        deadline = time.monotonic() + 180.0
        while time.monotonic() < deadline and proc.poll() is None:
            if list(checkpoints.glob("ckpt-*.json")):
                try:
                    state = read_status(root, job_id)["state"]
                except (FileNotFoundError, ValueError):
                    state = None
                if state == "RUNNING":
                    children = children_of(proc.pid)
                    proc.kill()
                    proc.wait(timeout=30.0)
                    killed_mid_job = True
                    orphans, segments = left_behind(children)
                    break
            time.sleep(0.02)
        if not killed_mid_job and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)

        # The restarted service must recover the job from disk alone.
        proc = serve()
        finished = False
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            try:
                if read_status(root, job_id)["state"] == "DONE":
                    finished = True
                    break
            except (FileNotFoundError, ValueError):
                pass
            if proc.poll() is not None:
                break
            time.sleep(0.1)
        # Let the restarted service take its idle exit (a clean close()
        # unlinks its segment); only escalate if it hangs around.
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30.0)

        status = read_status(root, job_id)
        result = read_result(root, job_id) if finished else {}
        ref = _engine(
            SerialScoreProvider(world.engine, TARGET, non_targets)
        ).run(generations)
        checks = {
            "SIGKILL landed mid-job": killed_mid_job,
            "killed service left no worker behind": bool(children) and not orphans,
            "killed service left no proteome segment": not segments,
            "restart recovered and finished": status["state"] == "DONE",
            "second attempt recorded": status.get("attempts", 0) >= 2,
            "resume trail in status": "recovered" in (status.get("reason") or "")
            or status.get("attempts", 0) >= 2,
            "history bit-exact vs dedicated run": (
                result.get("history_digest") == history_digest(ref.history)
            ),
            "best sequence bit-exact": (
                result.get("sequence") == ref.best.sequence
            ),
        }
    return _check(checks)


SCENARIOS = {
    "pool-loss": _scenario_pool_loss,
    "checkpoint": _scenario_checkpoint_corruption,
    "fabric": _scenario_fabric,
    "service": _scenario_service,
}


def _main() -> int:
    parser = argparse.ArgumentParser(description="campaign chaos smoke test")
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(SCENARIOS),
        default=None,
        help="run only these scenarios (default: all)",
    )
    args = parser.parse_args()
    selected = args.only or list(SCENARIOS)

    world, non_targets = _world_problem()
    print("reference run ...", flush=True)
    reference = _reference(world, non_targets)

    ok = True
    for name in SCENARIOS:
        if name in selected:
            ok = SCENARIOS[name](world, non_targets, reference) and ok
    print(f"chaos smoke: {'PASS' if ok else 'FAIL'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(_main())
