"""Golden digests: every scoring backend against a committed file.

The other bit-exactness gates compare two routes computed by the same
commit, so a change to GA or PIPE arithmetic that both routes share
would move both together.  ``golden.json`` was written once and is
checked here through the ``serial``, ``process`` (2 workers) and
``fabric`` backends:

* the ``history_digest`` of six named ``tiny`` campaigns (two targets x
  three seeds);
* the digests of two campaigns of the adaptive engine;
* the raw PIPE score sets of fixed candidates against both problems.

Two more routes must land on a committed campaign digest: the campaign
checkpointed at generation 2 and resumed, and the campaign scored by a
pool whose every worker crashes (each item degrades to the master).

A change that legitimately alters the semantics regenerates the file
(``PYTHONPATH=src python tests/golden/test_golden.py``) and says why in
CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import CheckpointManager
from repro.fabric import ScoringFabric
from repro.ga.adaptive import AdaptiveInSiPSEngine
from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.parallel.mp_backend import MultiprocessScoreProvider, WorkerPool
from repro.parallel.worker import FaultPlan
from repro.providers import make_score_provider
from repro.sequences.encoding import decode, encode
from repro.service import history_digest
from repro.synthetic import get_profile

GOLDEN = Path(__file__).with_name("golden.json")
PROFILE = "tiny"
TARGETS = ("YBL051C", "YAL017W")
SEEDS = (1, 2, 3)
NON_TARGETS = 8
POPULATION = 16
LENGTH = 20
GENERATIONS = 5  # the initial population + four bred generations
BACKENDS = ("serial", "process", "fabric")
ADAPTIVE = (("YBL051C", 1), ("YAL017W", 2))
#: The campaign the resumed and degraded runs must reproduce.
REPLAYED = ("YBL051C", 1)


def _problems(world):
    return {t: world.non_targets_for(t, limit=NON_TARGETS) for t in TARGETS}


def _campaign_names():
    return [f"{target}-seed{seed}" for target in TARGETS for seed in SEEDS]


def _adaptive_names():
    return [f"{target}-seed{seed}" for target, seed in ADAPTIVE]


def _engine(provider, seed, engine_cls=InSiPSEngine):
    return engine_cls(
        provider,
        GAParams(),
        population_size=POPULATION,
        candidate_length=LENGTH,
        seed=seed,
    )


def _run(provider, seed, engine_cls=InSiPSEngine):
    return _engine(provider, seed, engine_cls).run(GENERATIONS)


def _candidates(world) -> list[str]:
    """Fixed candidates: random ones, and pieces of proteome proteins that
    score well above zero."""
    rng = np.random.default_rng(2015)
    proteins = [p.encoded for p in world.engine.database.graph.proteins]
    random_ones = [rng.integers(0, 20, size=n).astype(np.uint8) for n in (20, 64)]
    pieces = [
        np.concatenate([proteins[3][5:40], proteins[9][:30]]),
        proteins[9][:50],
        np.concatenate([proteins[1][10:60], proteins[20][:40], proteins[9][20:45]]),
    ]
    return [decode(c) for c in (*random_ones, *pieces)]


class _Backend:
    """Providers for one backend; a fabric is shared by its clients."""

    def __init__(self, name, world):
        self.name = name
        self.world = world
        self._fabric = (
            ScoringFabric(world, num_workers=2)
            if name == "fabric"
            else None
        )

    def provider(self, target, non_targets):
        if self._fabric is not None:
            return self._fabric.client(target, non_targets)
        workers = {"workers": 2} if self.name == "process" else {}
        return make_score_provider(
            self.world, target, non_targets, backend=self.name, **workers
        )

    def close(self):
        if self._fabric is not None:
            self._fabric.close()


def _observe(backend) -> dict:
    """Digests of the named campaigns and score sets of the fixed
    candidates, as ``golden.json`` stores them."""
    problems = _problems(backend.world)
    digests = {}
    for target in TARGETS:
        for seed in SEEDS:
            with backend.provider(target, problems[target]) as provider:
                digests[f"{target}-seed{seed}"] = history_digest(
                    _run(provider, seed).history
                )
    adaptive = {}
    for target, seed in ADAPTIVE:
        with backend.provider(target, problems[target]) as provider:
            adaptive[f"{target}-seed{seed}"] = history_digest(
                _run(provider, seed, AdaptiveInSiPSEngine).history
            )
    candidates = _candidates(backend.world)
    arrays = [encode(c) for c in candidates]
    scores = {}
    for target in TARGETS:
        with backend.provider(target, problems[target]) as provider:
            scores[target] = [
                [s.target_score, *s.non_target_scores]
                for s in provider.scores(arrays)
            ]
    return {
        "profile": PROFILE,
        "problems": {t: [t, *problems[t]] for t in TARGETS},
        "campaigns": {
            "population": POPULATION,
            "length": LENGTH,
            "generations": GENERATIONS,
            "digests": digests,
        },
        "pipe": {"candidates": candidates, "scores": scores},
        "adaptive": {"digests": adaptive},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def world():
    return get_profile(PROFILE).build_world()


def test_golden_file_names_every_case(golden):
    assert sorted(golden["campaigns"]["digests"]) == sorted(_campaign_names())
    assert sorted(golden["pipe"]["scores"]) == sorted(TARGETS)
    assert sorted(golden["adaptive"]["digests"]) == sorted(_adaptive_names())


@pytest.mark.parametrize("name", BACKENDS)
def test_backend_reproduces_the_golden_file(name, world, golden):
    backend = _Backend(name, world)
    try:
        observed = _observe(backend)
    finally:
        backend.close()
    assert observed["problems"] == golden["problems"]
    assert observed["pipe"]["candidates"] == golden["pipe"]["candidates"]
    assert observed["campaigns"] == golden["campaigns"]
    assert observed["adaptive"] == golden["adaptive"]
    # JSON keeps a float's shortest repr, so equality here is bit-exact.
    assert observed["pipe"]["scores"] == golden["pipe"]["scores"]


def test_golden_pipe_scores_are_the_float64_reference(world, golden):
    """The stored score sets are the per-pair ``evaluate`` reference, not
    merely what some backend once returned."""
    engine = world.engine
    for target, names in golden["problems"].items():
        expected = [
            [engine.evaluate(encode(c), name).score for name in names]
            for c in golden["pipe"]["candidates"]
        ]
        assert golden["pipe"]["scores"][target] == expected


def _replayed_digest(golden) -> str:
    target, seed = REPLAYED
    return golden["campaigns"]["digests"][f"{target}-seed{seed}"]


def test_resumed_campaign_reproduces_its_golden_digest(world, golden, tmp_path):
    """Checkpointed at generation 2, resumed by a fresh engine from that
    snapshot, the campaign ends on the uninterrupted run's digest."""
    target, seed = REPLAYED
    non_targets = _problems(world)[target]
    manager = CheckpointManager(tmp_path, every=1, fsync=False)
    with make_score_provider(world, target, non_targets) as provider:
        _engine(provider, seed).run(3, checkpoint=manager)
    snapshot = tmp_path / "ckpt-gen00000002.json"
    assert snapshot.exists()
    with make_score_provider(world, target, non_targets) as provider:
        engine = _engine(provider, seed)
        assert engine.resume(snapshot) == 2
        result = engine.run(GENERATIONS)
    assert history_digest(result.history) == _replayed_digest(golden)


@pytest.mark.faults
def test_degraded_campaign_reproduces_its_golden_digest(
    world, golden, monkeypatch
):
    """Every worker crashes on its first item, so the pool degrades each
    lost item to the master; the digest is still the committed one."""
    target, seed = REPLAYED
    non_targets = _problems(world)[target]
    monkeypatch.setattr(WorkerPool, "MAX_RETRIES", 1)
    with MultiprocessScoreProvider(
        world.engine,
        target,
        non_targets,
        num_workers=2,
        faults=FaultPlan(crash_on_item=0),
    ) as provider:
        result = _run(provider, seed)
        assert provider.pool.degraded_items > 0
    assert history_digest(result.history) == _replayed_digest(golden)


if __name__ == "__main__":
    _world = get_profile(PROFILE).build_world()
    _serial = _Backend("serial", _world)
    GOLDEN.write_text(json.dumps(_observe(_serial), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
