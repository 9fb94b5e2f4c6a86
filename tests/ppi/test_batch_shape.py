"""The batch shape of scoring, as exact, repeatable call counts.

A generation costs O(1) kernel passes and O(groups) sparse products, not
O(candidates) and O(candidates x proteins): one ``sweep_batch_sparse``
call covers the dirty runs of every delta child of a round, one covers the
round's full sweeps, and ``score_similarities`` makes one product per
fused group — or, where the compiled result block is loaded, one
``pipe.result_block`` call per (problem, window count), whatever the
group size.  Every caller of ``score_batch`` gets that shape: the serial
provider per generation, the pool's degraded path per lost batch, and a
pool worker per slice of a batch.  Counts, not timings — they repeat
exactly.  The tests that count fused groups pin the numpy body; their
``[compiled]`` twins count the compiled calls.
"""

import numpy as np
import pytest

import multiprocessing

from scipy.sparse._compressed import _cs_matrix

from repro.ga import WETLAB_PARAMS, InSiPSEngine
from repro.ga.fitness import SerialScoreProvider, score_batch
from repro.parallel.messages import EndSignal, WorkSlice
from repro.parallel.mp_backend import WorkerPool
from repro.parallel.worker import worker_loop
from repro.ppi import pipe
from repro.ppi.delta import SimilarityLRU, mutation_provenance
from repro.ppi.kernels import BatchedNumpyKernel, _REGISTRY, register_kernel
from repro.providers import make_engine
from repro.resilience import CircuitBreaker
from repro.synthetic import get_profile
from repro.telemetry import MetricsRegistry

TARGET = "YBL051C"
POPULATION = 60
LENGTH = 64


class CountingKernel(BatchedNumpyKernel):
    """The default kernel, recording each batched pass's query count."""

    name = "test-counting"
    calls: list[int] = []

    def sweep_batch_sparse(self, db, seqs):
        seqs = list(seqs)
        CountingKernel.calls.append(len(seqs))
        return super().sweep_batch_sparse(db, seqs)


@pytest.fixture()
def counted(request, pipe_route):
    """(engine on the counting kernel, its registry, non-targets), its
    result blocks on the numpy body unless the test asks for
    ``"compiled"`` (``indirect`` parametrization)."""
    pipe_route(getattr(request, "param", "numpy"))
    register_kernel(CountingKernel)
    try:
        world = get_profile("small").build_world()
        telemetry = MetricsRegistry()
        engine = make_engine(
            world.engine.database.graph,
            world.engine.config,
            kernel=CountingKernel.name,
            telemetry=telemetry,
        )
        non_targets = world.non_targets_for(TARGET, limit=8)
        engine.database.precompute([TARGET, *non_targets])
        CountingKernel.calls = []
        yield engine, telemetry, non_targets
    finally:
        _REGISTRY.pop(CountingKernel.name, None)


class _Recorder:
    """Provider proxy keeping each generation's (sequences, provenances)."""

    def __init__(self, provider):
        self.provider = provider
        self.batches = []

    def scores_with_provenance(self, sequences, provenances):
        self.batches.append((list(sequences), provenances))
        return self.provider.scores_with_provenance(sequences, provenances)

    def scores(self, sequences):
        return self.scores_with_provenance(sequences, None)


def _bred_generation(engine, non_targets):
    """The initial population and the first bred generation of a campaign."""
    recorder = _Recorder(SerialScoreProvider(engine, TARGET, non_targets))
    InSiPSEngine(
        recorder,
        WETLAB_PARAMS,
        population_size=POPULATION,
        candidate_length=LENGTH,
        seed=2024,
    ).run(2)
    initial, bred = recorder.batches[:2]
    # Unchanged survivors keep their scores; the rest of the 60 is submitted.
    assert POPULATION // 2 < len(bred[0]) <= POPULATION and bred[1] is not None
    return initial, bred


def _span_count(telemetry, name):
    return telemetry.snapshot().get(name, {"count": 0})["count"]


def test_bred_generation_is_one_pass_per_route(counted):
    engine, telemetry, non_targets = counted
    names = [TARGET, *non_targets]
    initial, bred = _bred_generation(engine, non_targets)
    provider = SerialScoreProvider(
        engine, TARGET, non_targets, telemetry=telemetry
    )
    provider.scores_with_provenance(*initial)
    fresh_initial = provider.cache_stats["misses"]

    CountingKernel.calls = []
    before = telemetry.snapshot()
    provider.scores_with_provenance(*bred)
    after = telemetry.snapshot()

    def moved(name, field="value"):
        return after[name][field] - before.get(name, {field: 0})[field]

    fresh = provider.cache_stats["misses"] - fresh_initial
    hits = moved("pipe.delta.hits")
    assert fresh > POPULATION // 2 and hits == fresh  # every parent is warm
    assert "pipe.delta.fallbacks" not in after
    # Every child's parents are last generation's members, so the batch
    # resolves in one round: one pass for all dirty runs, no full sweep.
    assert len(CountingKernel.calls) == 1
    assert CountingKernel.calls[0] >= hits - 5  # ~1 dirty run per child
    assert 0 < moved("pipe.delta.rows_rescored") < 0.25 * moved(
        "pipe.delta.rows_total"
    )

    # PIPE: one product and one filter span per fused group, while
    # evaluations still count candidate x protein pairs.
    n = engine.database.num_query_windows(LENGTH)
    columns = sum(
        engine.database.protein_similarity(name).num_windows for name in names
    )
    per_group = max(1, pipe.GROUP_CELLS // (n * columns))
    groups = -(-fresh // per_group)
    assert moved("pipe.triple_product", "count") == groups
    assert moved("pipe.box_filter", "count") == groups
    assert groups < fresh * len(names)
    assert moved("pipe.evaluations") == fresh * len(names)


def test_initial_population_is_one_full_sweep_pass(counted):
    engine, telemetry, non_targets = counted
    initial, _ = _bred_generation(engine, non_targets)
    provider = SerialScoreProvider(engine, TARGET, non_targets)
    CountingKernel.calls = []
    provider.scores_with_provenance(*initial)
    assert CountingKernel.calls == [provider.cache_stats["misses"]]


def test_one_pass_per_round_when_parents_are_in_the_batch(counted):
    """root -> (a, b) -> a's child: three rounds, one kernel pass each."""
    engine, _, _ = counted
    rng = np.random.default_rng(5)
    root = rng.integers(0, 20, size=LENGTH).astype(np.uint8)

    def mutant(parent, locus):
        child = parent.copy()
        child[locus] = (child[locus] + 1) % 20
        return child, mutation_provenance(parent, [locus])

    a, prov_a = mutant(root, 10)
    b, prov_b = mutant(root, 40)
    c, prov_c = mutant(a, 30)
    CountingKernel.calls = []
    built = SimilarityLRU(8).similarity_batch(
        engine.database, [root, a, b, c, b.copy()], [None, prov_a, prov_b, prov_c, prov_b]
    )
    # round 1: root's full sweep; round 2: a and b patched together;
    # round 3: c patched from a, b's twin a plain cache hit.
    assert CountingKernel.calls == [1, 2, 1]
    stats = [s for _, s in built]
    assert stats[0] is None
    assert all(s.hit for s in stats[1:])
    w = engine.database.window_size
    assert [s.rows_rescored for s in stats[1:]] == [w, w, w, 0]
    for (sim, _), seq in zip(built, [root, a, b, c, b]):
        expected = engine.database.sequence_similarity(seq)
        assert (sim.counts != expected.counts).nnz == 0


def _groups(engine, problem, members):
    """Fused groups ``score_similarities`` forms for ``members`` length-LENGTH
    candidates against ``problem``."""
    target, non_targets = problem
    n = engine.database.num_query_windows(LENGTH)
    columns = sum(
        engine.database.protein_similarity(name).num_windows
        for name in [target, *non_targets]
    )
    return -(-members // max(1, pipe.GROUP_CELLS // (n * columns)))


def _oracle(engine, seq, problem):
    target, non_targets = problem
    return [engine.evaluate(seq, name).score for name in [target, *non_targets]]


def test_score_batch_is_one_product(counted):
    engine, telemetry, non_targets = counted
    problem = (TARGET, tuple(non_targets))
    seq = np.random.default_rng(9).integers(0, 20, size=LENGTH).astype(np.uint8)
    (score_set,), (stats,) = score_batch(engine, [seq], [problem])
    assert stats is None  # no cache: the full sweep
    assert CountingKernel.calls == [1]
    assert _span_count(telemetry, "pipe.triple_product") == 1
    assert _span_count(telemetry, "pipe.box_filter") == 1
    assert telemetry.snapshot()["pipe.evaluations"]["value"] == 1 + len(non_targets)
    assert [score_set.target_score, *score_set.non_target_scores] == _oracle(
        engine, seq, problem
    )


def _two_problem_slice(non_targets, seed):
    """k = 7 length-LENGTH candidates over two problems."""
    first = (TARGET, tuple(non_targets))
    second = (non_targets[0], (TARGET, *non_targets[1:4]))
    rng = np.random.default_rng(seed)
    k = 7
    seqs = [rng.integers(0, 20, size=LENGTH).astype(np.uint8) for _ in range(k)]
    problems = [first if i % 3 else second for i in range(k)]
    return seqs, problems, (first, second)


def _worker_scores(engine, seqs, problems):
    """One slice of ``seqs`` through ``worker_loop``: the reply."""
    k = len(seqs)
    master, worker = multiprocessing.Pipe(duplex=True)
    try:
        master.send(
            WorkSlice(
                0,
                tuple(range(k)),
                tuple(seq.tobytes() for seq in seqs),
                tuple(problems),
            )
        )
        master.send(EndSignal())
        assert worker_loop(0, engine, worker) == 1
        return master.recv()
    finally:
        master.close()
        worker.close()


def test_worker_route_is_one_product_per_item(counted):
    """A worker scores a slice of k candidates over two problems in one
    ``score_batch``: one kernel pass for the slice, and one PIPE product
    per (problem, fused group) — not one of each per candidate."""
    engine, telemetry, non_targets = counted
    seqs, problems, (first, second) = _two_problem_slice(non_targets, 4)
    k = len(seqs)
    reply = _worker_scores(engine, seqs, problems)
    assert CountingKernel.calls == [k]
    groups = sum(
        _groups(engine, problem, problems.count(problem))
        for problem in (first, second)
    )
    assert groups < k
    assert _span_count(telemetry, "pipe.triple_product") == groups
    assert _span_count(telemetry, "pipe.box_filter") == groups
    assert reply.sequence_ids == tuple(range(k))
    for seq, problem, scores in zip(seqs, problems, reply.scores):
        assert [scores.target_score, *scores.non_target_scores] == _oracle(
            engine, seq, problem
        )


def _degraded_scores(engine, seqs, problems):
    """``seqs`` lost by a one-worker pool whose breaker is open: the whole
    batch is scored in the master.  Returns (score sets, pool stats)."""
    with WorkerPool(engine, num_workers=1) as pool:
        pool.breaker = CircuitBreaker(probe_after=1_000)
        pool.breaker.record_failure()
        return pool.score(seqs, problems), pool.stats()


def test_degraded_batch_is_batch_shaped(counted):
    """k items the pool lost, over two problems, cost one kernel pass and
    one product per (problem, fused group) — not k of each."""
    engine, telemetry, non_targets = counted
    seqs, problems, (first, second) = _two_problem_slice(non_targets, 12)
    k = len(seqs)
    score_sets, stats = _degraded_scores(engine, seqs, problems)
    assert stats["fault_tolerance"]["degraded_items"] == k
    assert stats["fault_tolerance"]["degraded_batches"] == 1
    assert stats["dispatched"] == 0
    assert CountingKernel.calls == [k]
    groups = sum(
        _groups(engine, problem, problems.count(problem))
        for problem in (first, second)
    )
    assert groups < k
    assert _span_count(telemetry, "pipe.triple_product") == groups
    assert _span_count(telemetry, "pipe.box_filter") == groups
    for seq, problem, score_set in zip(seqs, problems, score_sets):
        assert [
            score_set.target_score, *score_set.non_target_scores
        ] == _oracle(engine, seq, problem)


# -- the compiled route: one result-block call per (problem, window count) --


def _numpy_spans_absent(telemetry):
    return all(
        _span_count(telemetry, name) == 0
        for name in ("pipe.triple_product", "pipe.box_filter")
    )


@pytest.mark.parametrize("counted", ["compiled"], indirect=True)
def test_bred_generation_is_one_compiled_call(counted):
    engine, telemetry, non_targets = counted
    names = [TARGET, *non_targets]
    initial, bred = _bred_generation(engine, non_targets)
    provider = SerialScoreProvider(engine, TARGET, non_targets, telemetry=telemetry)
    provider.scores_with_provenance(*initial)
    fresh_initial = provider.cache_stats["misses"]
    before = telemetry.snapshot()
    provider.scores_with_provenance(*bred)
    after = telemetry.snapshot()
    fresh = provider.cache_stats["misses"] - fresh_initial
    # Every candidate has LENGTH residues: one window count, one call.
    calls = after["pipe.result_block"]["count"]
    assert calls - before["pipe.result_block"]["count"] == 1
    assert fresh > 1
    assert (
        after["pipe.evaluations"]["value"] - before["pipe.evaluations"]["value"]
        == fresh * len(names)
    )
    assert _numpy_spans_absent(telemetry)


@pytest.mark.parametrize("counted", ["compiled"], indirect=True)
def test_score_batch_is_one_compiled_call_per_window_count(counted):
    """One call for one candidate, and one per distinct window count of a
    mixed-length batch, equal to the pairwise oracle."""
    engine, telemetry, non_targets = counted
    problem = (TARGET, tuple(non_targets))
    rng = np.random.default_rng(9)
    seq = rng.integers(0, 20, size=LENGTH).astype(np.uint8)
    (score_set,), _ = score_batch(engine, [seq], [problem])
    assert _span_count(telemetry, "pipe.result_block") == 1
    lengths = [LENGTH, 40, LENGTH, 2, 40, 17, LENGTH]  # 2: no window at all
    seqs = [rng.integers(0, 20, size=n).astype(np.uint8) for n in lengths]
    score_sets, _ = score_batch(engine, seqs, [problem] * len(seqs))
    counts = {engine.database.num_query_windows(n) for n in lengths} - {0}
    assert _span_count(telemetry, "pipe.result_block") == 1 + len(counts)
    assert _numpy_spans_absent(telemetry)  # before the oracle records them
    assert [score_set.target_score, *score_set.non_target_scores] == _oracle(
        engine, seq, problem
    )
    for seq, got in zip(seqs, score_sets):
        assert [got.target_score, *got.non_target_scores] == _oracle(
            engine, seq, problem
        )


@pytest.mark.parametrize("counted", ["compiled"], indirect=True)
def test_worker_and_degraded_routes_are_one_compiled_call_per_problem(counted):
    engine, telemetry, non_targets = counted
    seqs, problems, _ = _two_problem_slice(non_targets, 4)
    reply = _worker_scores(engine, seqs, problems)
    assert _span_count(telemetry, "pipe.result_block") == 2
    score_sets, stats = _degraded_scores(engine, seqs, problems)
    assert stats["fault_tolerance"]["degraded_items"] == len(seqs)
    assert _span_count(telemetry, "pipe.result_block") == 4
    assert _numpy_spans_absent(telemetry)
    for seq, problem, a, b in zip(seqs, problems, reply.scores, score_sets):
        expected = _oracle(engine, seq, problem)
        assert [a.target_score, *a.non_target_scores] == expected
        assert [b.target_score, *b.non_target_scores] == expected


@pytest.mark.parametrize("counted", ["compiled"], indirect=True)
def test_the_scoring_hot_path_builds_no_scipy_matrix(counted, monkeypatch):
    """A bred generation through a warm ``SimilarityLRU`` (the delta
    route) and a batch of unrelated candidates (the full sweep), scored
    on the compiled route, construct no scipy sparse matrix: the kernel,
    the delta assembly and the result block pass raw CSR arrays."""
    engine, _, non_targets = counted
    problem = (TARGET, tuple(non_targets))
    initial, bred = _bred_generation(engine, non_targets)
    cache = SimilarityLRU(4 * POPULATION)
    score_batch(engine, initial[0], [problem] * len(initial[0]), initial[1], cache)
    rng = np.random.default_rng(12)
    unrelated = [
        rng.integers(0, 20, size=LENGTH).astype(np.uint8) for _ in range(32)
    ]

    constructed = []
    init = _cs_matrix.__init__

    def spy(self, *args, **kwargs):
        constructed.append(type(self).__name__)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(_cs_matrix, "__init__", spy)
        bred_scores, stats = score_batch(
            engine, bred[0], [problem] * len(bred[0]), bred[1], cache
        )
        full_scores, _ = score_batch(engine, unrelated, [problem] * len(unrelated))
    assert constructed == []
    assert all(s.hit and s.rows_rescored < s.rows_total for s in stats)
    # ... and the delta route still scores what the full sweep scores.
    assert bred_scores == score_batch(engine, bred[0], [problem] * len(bred[0]))[0]
    assert len(full_scores) == len(unrelated)
