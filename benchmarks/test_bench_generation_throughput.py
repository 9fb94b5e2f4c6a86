"""Generation-throughput benchmark for the delta-scoring path.

Measures candidates scored per second for one GA generation's worth of
point-mutated children (the paper's dominant workload: at the configured
``p_mutate_aa`` each child differs from its parent by ~1–2 residues) with
incremental re-scoring, and the same children scored without provenance
(every one pays the full sweep); the ``pipe.delta.*`` counters are
exported through ``extra_info`` so the BENCH_*.json shows *why* (rows
patched vs rows re-swept).  No wall-clock assertion lives here: what the
delta path promises on this generation — identical scores, at most 15 %
of the rows re-swept, no fallback — is asserted as exact counts in
``tests/ppi/test_delta.py::test_point_mutant_generation_acceptance``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ga.fitness import SerialScoreProvider, score_batch
from repro.ppi.delta import mutation_provenance
from repro.telemetry import MetricsRegistry

CANDIDATE_LENGTH = 128
GENERATION_SIZE = 40
NON_TARGET_LIMIT = 8
TARGET = "YBL051C"


@pytest.fixture(scope="module")
def problem(small_world):
    non_targets = small_world.non_targets_for(TARGET, limit=NON_TARGET_LIMIT)
    small_world.engine.database.precompute([TARGET, *non_targets])
    return small_world.engine, TARGET, non_targets


@pytest.fixture(scope="module")
def generation():
    """One generation of point mutants: parent plus ~1–2-residue children."""
    rng = np.random.default_rng(42)
    parent = rng.integers(0, 20, size=CANDIDATE_LENGTH).astype(np.uint8)
    children, provenances = [], []
    for _ in range(GENERATION_SIZE):
        child = parent.copy()
        loci = sorted(
            int(i)
            for i in rng.choice(
                CANDIDATE_LENGTH, size=int(rng.integers(1, 3)), replace=False
            )
        )
        for locus in loci:
            child[locus] = (child[locus] + 1 + rng.integers(19)) % 20
        children.append(child)
        provenances.append(mutation_provenance(parent, loci))
    return parent, children, provenances


def _score_generation(provider, parent, children, provenances):
    # The parent is warm (scored last generation); each round scores the
    # children fresh, as the GA would.
    provider.clear_cache()
    provider.scores([parent])
    return provider.scores_with_provenance(children, provenances)


def test_bench_generation_delta(benchmark, problem, generation, telemetry_registry):
    """Candidates/second with incremental (delta) re-scoring."""
    engine, target, non_targets = problem
    parent, children, provenances = generation
    provider = SerialScoreProvider(
        engine, target, non_targets, telemetry=telemetry_registry
    )
    out = benchmark(_score_generation, provider, parent, children, provenances)
    assert len(out) == GENERATION_SIZE
    counters = telemetry_registry.snapshot()
    assert counters["pipe.delta.hits"]["value"] > 0
    benchmark.extra_info["generation_size"] = GENERATION_SIZE
    benchmark.extra_info["delta"] = {
        name: payload["value"]
        for name, payload in counters.items()
        if name.startswith("pipe.delta.")
    }


def test_bench_generation_full_sweep(benchmark, problem, generation):
    """The same children scored without provenance, so every one pays the
    full sweep (the baseline the delta case is read against)."""
    engine, target, non_targets = problem
    _, children, _ = generation
    problems = [(target, tuple(non_targets))] * len(children)
    out, _ = benchmark(score_batch, engine, children, problems)
    assert len(out) == GENERATION_SIZE
    benchmark.extra_info["generation_size"] = GENERATION_SIZE

