"""Tests for snapshot storage, policies, retention and corruption detection."""

import json

import pytest

from repro.checkpoint import (
    CheckpointError,
    CheckpointManager,
    find_latest,
    load_snapshot,
    write_snapshot,
)
from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import ScoreProvider, ScoreSet
from repro.telemetry import MetricsRegistry


class FlatProvider(ScoreProvider):
    """Constant-score provider: cheap, deterministic engine fuel."""

    def scores(self, sequences):
        return [ScoreSet(0.5, (0.1,)) for _ in sequences]


def _engine(seed=11, pop=6, length=12):
    return InSiPSEngine(
        FlatProvider(),
        GAParams(),
        population_size=pop,
        candidate_length=length,
        seed=seed,
    )


class TestSnapshotFiles:
    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "ckpt-gen00000001.json"
        payload = {"generation": 1, "values": [0.25, 0.5], "phase": "barrier"}
        write_snapshot(path, payload, fsync=False)
        assert load_snapshot(path) == payload

    def test_checksum_detects_corruption(self, tmp_path):
        path = tmp_path / "ckpt-gen00000001.json"
        write_snapshot(path, {"generation": 1, "best": 0.75}, fsync=False)
        envelope = json.loads(path.read_text())
        envelope["payload"]["best"] = 0.99  # bit-flip the payload
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum"):
            load_snapshot(path)

    def test_truncated_file_is_rejected(self, tmp_path):
        path = tmp_path / "ckpt-gen00000001.json"
        write_snapshot(path, {"generation": 1}, fsync=False)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="unreadable"):
            load_snapshot(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError, match="not a"):
            load_snapshot(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_snapshot(tmp_path / "nope.json")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no snapshot"):
            load_snapshot(tmp_path)


class TestFindLatest:
    """``find_latest`` is a directory scan; the tests that write a stray
    ``latest`` file check that it changes nothing."""

    def test_pointer_wins_when_consistent(self, tmp_path):
        for gen in (1, 2, 3):
            write_snapshot(
                tmp_path / f"ckpt-gen{gen:08d}.json", {"g": gen}, fsync=False
            )
        (tmp_path / "latest").write_text("ckpt-gen00000003.json\n")
        assert find_latest(tmp_path).name == "ckpt-gen00000003.json"

    def test_outdated_pointer_loses_to_scan(self, tmp_path):
        for gen in (1, 2, 3):
            write_snapshot(
                tmp_path / f"ckpt-gen{gen:08d}.json", {"g": gen}, fsync=False
            )
        (tmp_path / "latest").write_text("ckpt-gen00000002.json\n")
        assert find_latest(tmp_path).name == "ckpt-gen00000003.json"

    def test_falls_back_to_newest_generation(self, tmp_path):
        for gen in (4, 10, 7):
            write_snapshot(
                tmp_path / f"ckpt-gen{gen:08d}.json", {"g": gen}, fsync=False
            )
        assert find_latest(tmp_path).name == "ckpt-gen00000010.json"

    def test_stale_pointer_falls_back(self, tmp_path):
        write_snapshot(tmp_path / "ckpt-gen00000005.json", {"g": 5}, fsync=False)
        (tmp_path / "latest").write_text("ckpt-gen00000099.json\n")
        assert find_latest(tmp_path).name == "ckpt-gen00000005.json"

    def test_empty_directory(self, tmp_path):
        assert find_latest(tmp_path) is None


class TestPolicies:
    def test_every_k_generations(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=3, fsync=False)
        assert [g for g in range(10) if manager.should_save(g)] == [0, 3, 6, 9]

    def test_disabled_policies_never_due(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=None, fsync=False)
        assert not any(manager.should_save(g) for g in range(5))

    def test_invalid_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every=0)


class TestRetentionAndTelemetry:
    def test_retention_bounds_snapshot_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CheckpointManager, "RETAIN", 3)
        manager = CheckpointManager(tmp_path, every=1, fsync=False)
        engine = _engine()
        engine.run(8, checkpoint=manager)
        snapshots = sorted(p.name for p in tmp_path.glob("ckpt-*.json"))
        assert len(snapshots) == 3
        # The newest three barriers survive, and the scan finds the newest.
        assert snapshots == [
            "ckpt-gen00000005.json",
            "ckpt-gen00000006.json",
            "ckpt-gen00000007.json",
        ]
        assert find_latest(tmp_path).name == "ckpt-gen00000007.json"
        # The scan is the only index: the run leaves snapshots and nothing
        # else (no pointer file, no temporary).
        assert sorted(p.name for p in tmp_path.iterdir()) == snapshots

    def test_telemetry_counters_and_span(self, tmp_path):
        registry = MetricsRegistry()
        manager = CheckpointManager(
            tmp_path, every=1, fsync=False, telemetry=registry
        )
        engine = _engine()
        engine.run(4, checkpoint=manager)
        snap = registry.snapshot()
        assert snap["checkpoint.writes"]["value"] == 4
        assert snap["checkpoint.bytes"]["value"] == manager.bytes_written > 0
        assert snap["checkpoint.save"]["count"] == 4

    def test_emergency_snapshot_naming_and_phase(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=None, fsync=False)
        engine = _engine()
        population = engine.initial_population()
        from repro.ga.stats import RunHistory

        path = manager.save_emergency(
            engine,
            population,
            history=RunHistory(),
            best=None,
            reason="WorkerFailureError: injected failure",
        )
        assert path.name == "ckpt-gen00000000-emergency.json"
        payload = load_snapshot(tmp_path)
        assert payload["phase"] == "pre_eval"
        assert "WorkerFailureError" in payload["reason"]
        assert payload["best"] is None
