#!/usr/bin/env python
"""Shared-memory proteome leak/lifecycle smoke test.

Exercises the `repro.ppi.shm` broadcast path end to end and demands the
segment accounting hold — bit-exact scores, zero leaked segments:

1. **Share → attach → score → close.**  A `SharedProteomeView` is built
   from a tiny world's engine, with the design problem's evidence, and
   re-attached from its picklable handle.  The rebuilt database's
   similarity structures must be bit-exact with the original, and an
   engine built over it must score the warmed problem bit-exact without
   building its evidence (a pool worker's warm start); after the last
   view closes the segment must be unlinked.
2. **Parallel runtime.**  A `MultiprocessScoreProvider` (workers attach
   the segment from other processes) scores a population bit-exact
   against the serial reference; on `close()` no
   ``/dev/shm/repro-proteome-*`` entry may survive.
3. **Worker crash.**  A worker hard-exiting on its second slice (the
   batch is large enough that it gets one) must not
   leak its attachment: the master sees its process sentinel fire,
   respawns, finishes bit-exact, and still unlinks on close.  (The
   opposite case — the *master* SIGKILLed, its workers leaving when
   their pipes close and the segment going with the last of them — is
   ``scripts/chaos_smoke.py --only service`` and
   ``tests/parallel/test_transport.py``.)

Exit status 0 when every check holds, 1 otherwise.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/shm_smoke.py
"""

from __future__ import annotations

import glob
import sys

import numpy as np

SEED = 2015
TARGET = "YBL051C"
POPULATION = 8
LENGTH = 24
NUM_WORKERS = 2


def _live_segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro-proteome-*"))


def _check(checks: dict[str, bool]) -> bool:
    for name, ok in checks.items():
        print(f"  {name}: {'OK' if ok else 'MISMATCH'}", flush=True)
    return all(checks.values())


def _population(rng, size=POPULATION):
    return [rng.integers(0, 20, size=LENGTH).astype(np.uint8) for _ in range(size)]


def _scenario_view_lifecycle(world, non_targets) -> bool:
    from repro.ga.fitness import score_batch
    from repro.ppi.shm import SharedProteomeView

    print("scenario 1: view share/attach/score/close ...", flush=True)
    engine = world.engine
    names = (TARGET, *non_targets)
    before = _live_segments()
    view = SharedProteomeView.share(
        engine.database,
        similarity_names=list(names),
        evidence={names: engine.evidence_arrays(names)},
    )
    handle = view.handle
    attached = SharedProteomeView.attach(handle)
    worker = attached.build_engine(engine.config)
    db = worker.database
    seq = np.random.default_rng(SEED).integers(0, 20, size=LENGTH).astype(np.uint8)
    want = engine.database.sequence_similarity(seq)
    got = db.sequence_similarity(seq)
    bit_exact = (want.counts != got.counts).nnz == 0
    # A re-attached engine starts with the warmed problem's evidence: its
    # first score_batch adds no evidence-cache entry and replaces none.
    seeded = dict(worker._evidence_cache)
    problems = [(TARGET, tuple(non_targets))] * POPULATION
    seqs = _population(np.random.default_rng(SEED + 2))
    scored = score_batch(worker, seqs, problems)[0] == score_batch(
        engine, seqs, problems
    )[0]
    no_build = list(seeded) == [names] and all(
        worker._evidence_cache.get(key) is entry for key, entry in seeded.items()
    ) and len(worker._evidence_cache) == 1
    segment_live = len(_live_segments() - before) == 1
    del db, worker
    attached.close()
    view.close()
    return _check(
        {
            "rebuilt database bit-exact": bit_exact,
            "re-attached engine scores the warmed problem bit-exact": scored,
            "...without building its evidence": no_build,
            "exactly one live segment while open": segment_live,
            "segment unlinked after last close": _live_segments() == before,
        }
    )


def _scenario_parallel_runtime(world, non_targets) -> bool:
    from repro import SerialScoreProvider
    from repro.parallel import MultiprocessScoreProvider

    print("scenario 2: parallel runtime attach/unlink ...", flush=True)
    before = _live_segments()
    seqs = _population(np.random.default_rng(SEED))
    expected = SerialScoreProvider(world.engine, TARGET, non_targets).scores(seqs)
    with MultiprocessScoreProvider(
        world.engine, TARGET, non_targets, num_workers=NUM_WORKERS
    ) as provider:
        out = provider.scores(seqs)
        stats = provider.runtime_stats()["shm"]
    exact = all(
        got.target_score == want.target_score
        and got.non_target_scores == want.non_target_scores
        for got, want in zip(out, expected)
    )
    return _check(
        {
            "scores bit-exact with serial": exact,
            "provider owns a segment": bool(stats and stats["owner"]),
            "segment unlinked after close": _live_segments() == before,
        }
    )


def _scenario_worker_crash(world, non_targets) -> bool:
    from repro import SerialScoreProvider
    from repro.parallel import MultiprocessScoreProvider
    from repro.parallel.worker import FaultPlan

    print("scenario 3: SIGKILLed worker leaks nothing ...", flush=True)
    before = _live_segments()
    # Slices of 10, 8, 8, ...: worker 0 answers one slice, then dies
    # holding its second.
    seqs = _population(np.random.default_rng(SEED + 1), 40)
    expected = SerialScoreProvider(world.engine, TARGET, non_targets).scores(seqs)
    with MultiprocessScoreProvider(
        world.engine,
        TARGET,
        non_targets,
        num_workers=NUM_WORKERS,
        faults=FaultPlan(crash_on_item=1, only_worker=0),
    ) as provider:
        out = provider.scores(seqs)
        deaths = provider.pool.worker_deaths
    exact = all(
        got.target_score == want.target_score
        for got, want in zip(out, expected)
    )
    return _check(
        {
            "scores bit-exact despite crash": exact,
            "worker death observed": deaths >= 1,
            "segment unlinked after close": _live_segments() == before,
        }
    )


def main() -> int:
    from repro import get_profile

    world = get_profile("tiny").build_world()
    non_targets = world.non_targets_for(TARGET, limit=8)
    ok = all(
        [
            _scenario_view_lifecycle(world, non_targets),
            _scenario_parallel_runtime(world, non_targets),
            _scenario_worker_crash(world, non_targets),
        ]
    )
    print("shm smoke:", "PASS" if ok else "FAIL", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
