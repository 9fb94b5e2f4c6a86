"""Tests for interactome and design persistence."""

import json

import numpy as np
import pytest

from repro.io import (
    load_design_result,
    load_interactome,
    save_design_result,
    save_interactome,
)
from repro.ppi.graph import InteractionGraph
from repro.sequences.protein import Protein


@pytest.fixture()
def graph():
    proteins = [
        Protein("P1", "MKTLLV", {"component": "cytoplasm", "abundance": 4200}),
        Protein("P2", "ACDEFG", {"motifs": ["lock:0"]}),
        Protein("P3", "WYHRKK"),
    ]
    return InteractionGraph(proteins, [("P1", "P2"), ("P2", "P3")])


class TestInteractomeRoundtrip:
    def test_roundtrip(self, graph, tmp_path):
        path = tmp_path / "world.json"
        save_interactome(graph, path)
        back = load_interactome(path)
        assert back.names == graph.names
        assert back.edges() == graph.edges()
        assert back.protein("P1").annotations == graph.protein("P1").annotations
        assert back.protein("P2").sequence == "ACDEFG"

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a repro interactome"):
            load_interactome(path)

    def test_rejects_future_version(self, graph, tmp_path):
        path = tmp_path / "world.json"
        save_interactome(graph, path)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_interactome(path)

    def test_loaded_world_drives_pipe(self, graph, tmp_path):
        from repro.ppi.pipe import PipeConfig
        from repro.providers import make_engine

        path = tmp_path / "world.json"
        save_interactome(graph, path)
        engine = make_engine(
            load_interactome(path),
            PipeConfig(window_size=3, similarity_threshold=15.0),
        )
        score = engine.score(np.array([0, 1, 2, 3], dtype=np.uint8), "P1")
        assert 0.0 <= score < 1.0


class TestDesignRoundtrip:
    @pytest.fixture()
    def design(self, tiny_world):
        from repro.core.designer import InhibitorDesigner

        designer = InhibitorDesigner(
            tiny_world, population_size=8, candidate_length=24, non_target_limit=4
        )
        return designer.design("YBL051C", seed=2, termination=3)

    def test_roundtrip(self, design, tmp_path):
        path = tmp_path / "design.json"
        save_design_result(design, path)
        back = load_design_result(path)
        assert back.target == design.target
        assert back.non_targets == design.non_targets
        assert back.best.sequence == design.best.sequence
        assert back.best.fitness == pytest.approx(design.fitness)
        assert back.generations == design.generations
        assert len(back.history) == len(design.history)
        assert back.history.final_best_fitness == pytest.approx(
            design.history.final_best_fitness
        )
        assert back.seed == design.seed

    def test_profile_survives(self, design, tmp_path):
        path = tmp_path / "design.json"
        save_design_result(design, path)
        back = load_design_result(path)
        original = design.inhibition_profile()
        restored = back.inhibition_profile()
        assert restored.target_score == pytest.approx(original.target_score)
        assert restored.max_off_target_score == pytest.approx(
            original.max_off_target_score
        )

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError, match="not a repro design"):
            load_design_result(path)
