"""Checkpoint corruption recovery: quarantine-then-walk-back.

A damaged snapshot (bit flip, truncation, garbage) must never cost the
campaign more than the generations since the previous valid snapshot:
the loader quarantines the evidence (``*.corrupt``), walks back to the
newest snapshot that verifies, and resume continues bit-exactly from
there.
"""

import pytest

from repro.checkpoint import (
    CheckpointError,
    CheckpointManager,
    find_latest,
    load_snapshot,
    quarantine_snapshot,
    write_snapshot,
)
from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import ScoreProvider, ScoreSet
from repro.resilience import CheckpointFault, apply_checkpoint_fault
from repro.telemetry import MetricsRegistry


class FlatProvider(ScoreProvider):
    """Constant-score provider: cheap, deterministic engine fuel."""

    def scores(self, sequences):
        return [ScoreSet(0.5, (0.1,)) for _ in sequences]


def _engine(seed=13, pop=6, length=12):
    return InSiPSEngine(
        FlatProvider(),
        GAParams(),
        population_size=pop,
        candidate_length=length,
        seed=seed,
    )


def _write_gens(tmp_path, gens):
    for gen in gens:
        write_snapshot(
            tmp_path / f"ckpt-gen{gen:08d}.json", {"g": gen}, fsync=False
        )


class TestRecoveryChain:
    def test_corrupt_newest_quarantined_then_walk_back(self, tmp_path):
        _write_gens(tmp_path, (1, 2, 3))
        telemetry = MetricsRegistry()
        apply_checkpoint_fault(tmp_path, CheckpointFault("flip"))
        payload = load_snapshot(tmp_path, telemetry=telemetry)
        assert payload == {"g": 2}
        assert (tmp_path / "ckpt-gen00000003.json.corrupt").exists()
        assert not (tmp_path / "ckpt-gen00000003.json").exists()
        assert telemetry.counter("checkpoint.corrupt_skipped").value == 1
        events = [
            e
            for e in telemetry.events
            if e["event"] == "checkpoint.quarantined"
        ]
        assert len(events) == 1
        # A quarantined file is out of every later scan's way.
        assert find_latest(tmp_path).name == "ckpt-gen00000002.json"

    def test_walks_past_multiple_damaged_snapshots(self, tmp_path):
        _write_gens(tmp_path, (1, 2, 3))
        telemetry = MetricsRegistry()
        apply_checkpoint_fault(
            tmp_path, CheckpointFault("truncate", which="ckpt-gen00000003.json")
        )
        apply_checkpoint_fault(
            tmp_path, CheckpointFault("garbage", which="ckpt-gen00000002.json")
        )
        assert load_snapshot(tmp_path, telemetry=telemetry) == {"g": 1}
        assert telemetry.counter("checkpoint.corrupt_skipped").value == 2

    def test_all_corrupt_raises_with_inventory(self, tmp_path):
        _write_gens(tmp_path, (1,))
        apply_checkpoint_fault(tmp_path, CheckpointFault("garbage"))
        with pytest.raises(CheckpointError, match="no valid snapshot"):
            load_snapshot(tmp_path)
        assert (tmp_path / "ckpt-gen00000001.json.corrupt").exists()

    def test_single_file_source_never_recovers(self, tmp_path):
        """File mode is exact: a named snapshot either verifies or raises —
        no silent substitution of an older file."""
        _write_gens(tmp_path, (1, 2))
        damaged = apply_checkpoint_fault(tmp_path, CheckpointFault("flip"))
        with pytest.raises(CheckpointError):
            load_snapshot(damaged)

    def test_quarantine_collision_numbering(self, tmp_path):
        path = tmp_path / "ckpt-gen00000001.json"
        for expected in ("ckpt-gen00000001.json.corrupt",
                         "ckpt-gen00000001.json.corrupt.2"):
            path.write_text("junk")
            assert quarantine_snapshot(path).name == expected


class TestPointerRecovery:
    """No pointer file is written or read: a stray ``latest`` file, even
    one naming a path outside the directory, changes nothing."""

    def test_garbage_pointer_name_ignored(self, tmp_path):
        _write_gens(tmp_path, (2,))
        (tmp_path / "latest").write_text("../../etc/passwd\n")
        assert find_latest(tmp_path).name == "ckpt-gen00000002.json"


class TestEndToEndResume:
    def test_resume_after_corrupting_newest_snapshot(self, tmp_path, monkeypatch):
        """The acceptance scenario: corrupt the newest checkpoint of an
        interrupted campaign; ``resume`` restores the previous valid
        snapshot, quarantines the bad file, and the finished run matches
        the uninterrupted same-seed reference bit-exactly."""
        generations = 6
        reference = _engine().run(generations)

        monkeypatch.setattr(CheckpointManager, "RETAIN", 10)
        manager = CheckpointManager(tmp_path, every=1, fsync=False)
        _engine().run(4, checkpoint=manager)
        damaged = apply_checkpoint_fault(tmp_path, CheckpointFault("flip"))
        assert damaged.name == "ckpt-gen00000003.json"

        telemetry = MetricsRegistry()
        resumed_engine = _engine()
        resumed_engine.telemetry = telemetry
        # Walks back from the damaged gen-3 snapshot to the valid gen-2.
        assert resumed_engine.resume(tmp_path) == 2
        assert (tmp_path / "ckpt-gen00000003.json.corrupt").exists()
        assert telemetry.counter("checkpoint.corrupt_skipped").value == 1
        resumed = resumed_engine.run(generations)
        assert resumed.best.sequence == reference.best.sequence
        assert resumed.history.to_payload() == reference.history.to_payload()

    def test_manager_load_runs_recovery(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CheckpointManager, "RETAIN", 10)
        manager = CheckpointManager(tmp_path, every=1, fsync=False)
        _engine().run(3, checkpoint=manager)
        apply_checkpoint_fault(tmp_path, CheckpointFault("truncate"))
        payload = load_snapshot(manager.directory)
        assert payload["generation"] == 1
        assert (tmp_path / "ckpt-gen00000002.json.corrupt").exists()
