"""Checkpointing under runtime faults: emergency snapshots when the
parallel runtime dies, and whole-process SIGKILL survival."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointManager, find_latest, load_snapshot
from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import SerialScoreProvider
from repro.parallel.mp_backend import MultiprocessScoreProvider, WorkerFailureError
from repro.parallel.worker import FaultPlan
from repro.telemetry import MetricsRegistry

pytestmark = pytest.mark.faults


def _engine(provider, seed=21, pop=8, length=16, telemetry=None):
    return InSiPSEngine(
        provider,
        GAParams(),
        population_size=pop,
        candidate_length=length,
        seed=seed,
        telemetry=telemetry,
    )


def test_worker_failure_triggers_emergency_snapshot_and_resume(
    tiny_engine, tiny_problem, tmp_path
):
    """A worker's scoring raising mid-evaluation must leave a pre-eval
    emergency snapshot behind, and a fresh engine (here: serial — the
    problem fingerprint, not the provider kind, gates resume) must
    continue from it to the same result as an uninterrupted run."""
    target, non_targets = tiny_problem
    generations = 3

    serial_reference = _engine(
        SerialScoreProvider(tiny_engine, target, non_targets)
    ).run(generations)

    telemetry = MetricsRegistry()
    manager = CheckpointManager(
        tmp_path, every=1, fsync=False, telemetry=telemetry
    )
    provider = MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        faults=FaultPlan(fail_on_item=0),
    )
    try:
        with pytest.raises(WorkerFailureError):
            _engine(provider, telemetry=telemetry).run(
                generations, checkpoint=manager
            )
    finally:
        provider.close()

    latest = find_latest(manager.directory)
    assert latest is not None and latest.name.endswith("-emergency.json")
    payload = load_snapshot(latest)
    assert payload["phase"] == "pre_eval"
    assert "WorkerFailureError" in payload["reason"]
    assert telemetry.counter("checkpoint.emergency").value == 1

    resumed_engine = _engine(SerialScoreProvider(tiny_engine, target, non_targets))
    assert resumed_engine.resume(tmp_path) == 0
    resumed = resumed_engine.run(generations)
    assert resumed.best.sequence == serial_reference.best.sequence
    assert (
        resumed.history.to_payload() == serial_reference.history.to_payload()
    )


def test_sigkill_mid_run_resume_smoke():
    """The full crash/resume story: SIGKILL a checkpointing campaign
    mid-generation, resume from its latest snapshot, and match the
    uninterrupted same-seed reference bit-exactly."""
    repo_root = Path(__file__).resolve().parents[2]
    script = repo_root / "scripts" / "resume_smoke.py"
    env = os.environ.copy()
    env["PYTHONPATH"] = str(repo_root / "src")
    proc = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"resume smoke failed:\n{proc.stdout}\n{proc.stderr}"
    )
    assert "resume smoke: PASS" in proc.stdout
