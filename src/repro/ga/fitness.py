"""The InSiPS fitness function (Sec. 2.2) and score-provider interface.

``fitness(seq) = (1 - MAX_k PIPE(seq, nt_k)) * PIPE(seq, target)``

The division of labour mirrors the paper exactly: *score providers*
(worker processes in the parallel runtime, a direct PIPE call in the
serial path) return the raw PIPE scores of a candidate against the target
and every non-target; the master-side :func:`combine_scores` folds them
into the scalar fitness.

One scoring function
--------------------
:func:`score_batch` is the only route from candidates to score sets
(Algorithm 2's unit of work, applied to a batch): build every
candidate's similarity structure in one pass, then score each distinct
:data:`Problem` with one fused PIPE call.  The serial provider calls it
on a generation's cache misses, a pool worker on each slice of a batch
it is handed, and the pool's degraded path on every item the pool lost.
Only the serial provider passes a
:class:`~repro.ppi.delta.SimilarityLRU` and provenance, so a child
re-sweeps only its dirty windows there (the one delta route, and the one
source of ``pipe.delta.*``); a pool worker and the degraded path call it
without, and so run the full sweep — the reference every delta result is
checked against.  Which route runs follows from the provider in use.
:func:`make_problem` is the one place a problem's names are checked.

Provider lifecycle
------------------
Every provider is a context manager: ``with provider: ...`` guarantees
``close()`` runs (reaping worker processes in the multiprocessing
backend) even when the GA raises.  ``close()`` is idempotent.  Whether
it is *final* depends on the backend: the serial and multiprocessing
providers may be reused after closing (the next scoring call re-acquires
whatever resources were released), while a fabric client treats
``close()`` as final and raises ``ClientClosedError`` on further
scoring — a released fabric registration must never silently resurrect.

Caching
-------
Every concrete provider shares one caching surface,
:class:`CachingScoreProvider`: an exact sequence-keyed **bounded LRU**
(the paper's ``copy`` operation re-submits identical sequences every
generation, so the cache is load-bearing).  Hit/miss/eviction counts are
reported through the telemetry registry under ``provider.cache.*`` and
by the ``cache_stats`` property.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.ga.population import Individual
from repro.ppi.delta import DeltaStats, Provenance, SimilarityLRU
from repro.ppi.graph import InteractionGraph
from repro.ppi.pipe import PipeEngine
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "Problem",
    "ScoreSet",
    "make_problem",
    "score_batch",
    "combine_scores",
    "ScoreProvider",
    "CacheLookup",
    "CachingScoreProvider",
    "SerialScoreProvider",
    "FitnessFunction",
]


@dataclass(frozen=True)
class ScoreSet:
    """Raw PIPE scores of one candidate: target + all non-targets."""

    target_score: float
    non_target_scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.target_score <= 1.0:
            raise ValueError(f"target_score must be in [0, 1], got {self.target_score}")
        for s in self.non_target_scores:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"non-target score out of [0, 1]: {s}")

    @property
    def max_non_target(self) -> float:
        """MAX(PIPE(seq, non-targets)); 0 when there are no non-targets."""
        return max(self.non_target_scores) if self.non_target_scores else 0.0

    @property
    def avg_non_target(self) -> float:
        return (
            float(np.mean(self.non_target_scores)) if self.non_target_scores else 0.0
        )


#: A design problem, ``(target, non_targets)``: what a candidate is scored
#: against, and what every work item names on the wire.
Problem = tuple[str, tuple[str, ...]]


def make_problem(
    graph: InteractionGraph, target: str, non_targets: list[str]
) -> Problem:
    """Check a design problem's names against ``graph`` and return it.

    The one place they are checked: the target must not also be a
    non-target (``ValueError``), and every name must be a protein of the
    graph (``KeyError``) — a typo fails here, not mid-run.
    """
    problem = (target, tuple(non_targets))
    if target in problem[1]:
        raise ValueError(f"target {target!r} also appears in the non-target list")
    for name in (target, *problem[1]):
        graph.index_of(name)
    return problem


def score_batch(
    engine: PipeEngine,
    arrays: list[np.ndarray],
    problems: list[Problem],
    provenances: list[Provenance | None] | None = None,
    cache: SimilarityLRU | None = None,
) -> tuple[list[ScoreSet], list[DeltaStats | None]]:
    """Score sets of ``arrays``, item ``i`` against ``problems[i]``.

    Builds every candidate's similarity structure in one pass — through
    ``cache`` by the cheapest correct route (re-sweeping only the dirty
    windows of a child whose parents it holds, and keeping what it
    builds), or by the full sweep without one — then makes one fused
    :meth:`~repro.ppi.pipe.PipeEngine.score_similarities` call per
    distinct problem.  The sweep does not depend on the problem, so a
    batch may mix problems freely.

    Returns the score sets and, per item, the
    :class:`~repro.ppi.delta.DeltaStats` of its build (``None`` without a
    cache or a provenance).
    """
    provs = provenances if provenances is not None else [None] * len(arrays)
    with engine.telemetry.span("pipe.window_build"):
        if cache is not None:
            built = cache.similarity_batch(engine.database, arrays, provs)
        else:
            built = [
                (similarity, None)
                for similarity in engine.database.sequence_similarity_batch(arrays)
            ]
    members: dict[Problem, list[int]] = {}
    for i, problem in enumerate(problems):
        members.setdefault(problem, []).append(i)
    score_sets: list[ScoreSet | None] = [None] * len(arrays)
    for (target, non_targets), indices in members.items():
        scored = engine.score_similarities(
            [built[i][0] for i in indices], [target, *non_targets]
        )
        for i, scores in zip(indices, scored):
            score_sets[i] = ScoreSet(
                scores[target], tuple(scores[name] for name in non_targets)
            )
    return score_sets, [stats for _, stats in built]  # type: ignore[return-value]


def combine_scores(scores: ScoreSet) -> float:
    """The Sec. 2.2 fitness: ``(1 - MAX(non-targets)) * target``."""
    return (1.0 - scores.max_non_target) * scores.target_score


@dataclass
class CacheLookup:
    """A batch after :meth:`CachingScoreProvider.lookup`.

    ``results`` holds the cache's answers (``None`` where a miss is
    pending); ``arrays``/``provenances`` are the distinct misses still to
    score, in first-seen order, and ``misses`` their ``(index, key)``
    positions in ``batch``.
    """

    batch: list[np.ndarray]
    results: list[ScoreSet | None]
    misses: list[tuple[int, bytes]]
    arrays: list[np.ndarray]
    provenances: list[Provenance | None] | None


class ScoreProvider(ABC):
    """Something that can produce PIPE score sets for candidate sequences.

    Implementations: :class:`SerialScoreProvider` (direct, in-process),
    :class:`repro.parallel.mp_backend.MultiprocessScoreProvider` (the
    paper's master/worker on-demand dispatch) and
    :class:`repro.fabric.FabricClient` (one campaign on a shared pool).
    All are context managers; prefer ``with provider:`` so resources are
    released on any exit path.
    """

    def __init__(self, telemetry: MetricsRegistry | None = None) -> None:
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._closed = False

    @abstractmethod
    def scores(self, sequences: list[np.ndarray]) -> list[ScoreSet]:
        """PIPE score sets for each sequence, in input order."""

    def scores_with_provenance(
        self,
        sequences: list[np.ndarray],
        provenances: list[Provenance | None] | None,
    ) -> list[ScoreSet]:
        """Score sequences, optionally exploiting operator provenance.

        Provenance (:class:`~repro.ppi.delta.Provenance`) is advisory:
        providers that understand it re-sweep only the dirty windows of a
        mutated/crossed-over child; this base implementation ignores it,
        so every provider remains correct by default.
        """
        return self.scores(sequences)

    def set_telemetry(self, telemetry: MetricsRegistry | None) -> None:
        """Attach (or, with None, detach) a metrics registry — to this
        provider and to whatever runtime it reports through."""
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY

    @property
    def closed(self) -> bool:
        """True after :meth:`close` (until the provider is used again)."""
        return self._closed

    def close(self) -> None:
        """Release any resources (worker processes); idempotent."""
        self._closed = True

    def __enter__(self) -> "ScoreProvider":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class CachingScoreProvider(ScoreProvider):
    """Shared caching surface of all concrete providers.

    Maintains an exact score cache keyed by the candidate's encoded bytes,
    bounded by :attr:`CACHE_SIZE` with least-recently-used eviction — a
    full cache evicts one cold entry per insertion instead of throwing
    away every hot entry at once.  Subclasses implement
    :meth:`_score_uncached` for the sequences the cache cannot answer;
    duplicates inside one batch are scored once.

    Cache traffic is recorded on the telemetry registry as
    ``provider.cache.hits`` / ``.misses`` / ``.evictions``.
    """

    #: Score-cache entries kept (least recently used evicted first).
    CACHE_SIZE = 100_000

    def __init__(self, *, telemetry: MetricsRegistry | None = None) -> None:
        super().__init__(telemetry)
        self._cache: OrderedDict[bytes, ScoreSet] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- the one scoring entry point ---------------------------------------

    def scores(self, sequences: list[np.ndarray]) -> list[ScoreSet]:
        return self.scores_with_provenance(sequences, None)

    def scores_with_provenance(
        self,
        sequences: list[np.ndarray],
        provenances: list[Provenance | None] | None,
    ) -> list[ScoreSet]:
        lookup = self.lookup(sequences, provenances)
        fresh = (
            self._score_uncached(lookup.arrays, lookup.provenances)
            if lookup.arrays
            else []
        )
        return self.store(lookup, fresh)

    def lookup(
        self,
        sequences: list[np.ndarray],
        provenances: list[Provenance | None] | None,
    ) -> "CacheLookup":
        """The cache half of scoring: answer what the LRU holds and list
        the distinct misses still to score (an in-batch duplicate of a
        miss is scored once).  :meth:`store` completes the batch."""
        self._closed = False
        arrays = [np.asarray(s, dtype=np.uint8) for s in sequences]
        if provenances is not None and len(provenances) != len(arrays):
            raise ValueError(
                f"{len(provenances)} provenances for {len(arrays)} sequences"
            )
        results: list[ScoreSet | None] = [None] * len(arrays)
        misses: list[tuple[int, bytes]] = []
        seen_in_batch: set[bytes] = set()
        for i, arr in enumerate(arrays):
            key = arr.tobytes()
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                results[i] = cached
                self._hits += 1
                self.telemetry.count("provider.cache.hits")
            elif key in seen_in_batch:
                # Duplicate within the batch: scored once, filled by store.
                self._hits += 1
                self.telemetry.count("provider.cache.hits")
            else:
                seen_in_batch.add(key)
                misses.append((i, key))
                self._misses += 1
                self.telemetry.count("provider.cache.misses")
        return CacheLookup(
            batch=arrays,
            results=results,
            misses=misses,
            arrays=[arrays[i] for i, _ in misses],
            provenances=(
                [provenances[i] for i, _ in misses]
                if provenances is not None
                else None
            ),
        )

    def store(
        self, lookup: "CacheLookup", fresh: list[ScoreSet]
    ) -> list[ScoreSet]:
        """The other half: file the misses' fresh score sets (aligned with
        ``lookup.arrays``) in the LRU and return the whole batch's."""
        if len(fresh) != len(lookup.misses):
            raise RuntimeError(
                f"{type(self).__name__}: {len(fresh)} fresh results for "
                f"{len(lookup.misses)} cache misses"
            )
        results = lookup.results
        fresh_by_key: dict[bytes, ScoreSet] = {}
        for (i, key), score_set in zip(lookup.misses, fresh):
            results[i] = score_set
            fresh_by_key[key] = score_set
            self._insert(key, score_set)
        # Fill in-batch duplicates from this batch's fresh results, not
        # the cache: a cache smaller than the batch may already have
        # evicted the entry the duplicate needs.
        for i, arr in enumerate(lookup.batch):
            if results[i] is None:
                results[i] = fresh_by_key[arr.tobytes()]
        return results  # type: ignore[return-value]

    @abstractmethod
    def _score_uncached(
        self,
        arrays: list[np.ndarray],
        provenances: list[Provenance | None] | None = None,
    ) -> list[ScoreSet]:
        """Score sequences the cache could not answer, in input order.

        ``provenances`` (when given) aligns with ``arrays``; entries may
        be ``None`` for sequences with no recorded derivation.
        """

    # -- cache management ---------------------------------------------------

    def _insert(self, key: bytes, score_set: ScoreSet) -> None:
        while len(self._cache) >= self.CACHE_SIZE:
            self._cache.popitem(last=False)  # evict least recently used
            self._evictions += 1
            self.telemetry.count("provider.cache.evictions")
        self._cache[key] = score_set

    def clear_cache(self) -> None:
        self._cache.clear()

    @property
    def cache_len(self) -> int:
        return len(self._cache)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        lookups = self._hits + self._misses
        return self._hits / lookups if lookups else 0.0

    @property
    def cache_stats(self) -> dict[str, int]:
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "size": len(self._cache),
        }


class SerialScoreProvider(CachingScoreProvider):
    """In-process provider: :func:`score_batch` over each generation's
    cache misses, with the shared cross-generation score cache.

    Keeps a bounded LRU of per-sequence similarity structures
    (:class:`~repro.ppi.delta.SimilarityLRU`, :attr:`SIMILARITY_CACHE_SIZE`
    entries) so a child with provenance re-sweeps only its dirty windows
    against the proteome; a parent evicted from the LRU degrades to the
    full sweep (``pipe.delta.fallbacks``), never to a wrong answer.  The
    full-sweep reference is :func:`score_batch` without a cache.
    """

    #: Similarity structures kept for delta re-scoring.
    SIMILARITY_CACHE_SIZE = 256

    def __init__(
        self,
        engine: PipeEngine,
        target: str,
        non_targets: list[str],
        *,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        self.problem = make_problem(engine.database.graph, target, non_targets)
        super().__init__(telemetry=telemetry)
        self.engine = engine
        self.target = target
        self.non_targets = list(non_targets)
        self._similarity_cache = SimilarityLRU(self.SIMILARITY_CACHE_SIZE)

    def _score_uncached(
        self,
        arrays: list[np.ndarray],
        provenances: list[Provenance | None] | None = None,
    ) -> list[ScoreSet]:
        with self.telemetry.span("provider.serial.score"):
            score_sets, deltas = score_batch(
                self.engine,
                arrays,
                [self.problem] * len(arrays),
                provenances,
                self._similarity_cache,
            )
            for stats in deltas:
                self._record_delta(stats)
        return score_sets

    def _record_delta(self, stats: DeltaStats | None) -> None:
        """Fold one delta-or-fallback accounting into the telemetry
        registry (the ``pipe.delta.*`` counters)."""
        if stats is None:
            return
        if stats.hit:
            self.telemetry.count("pipe.delta.hits")
        else:
            self.telemetry.count("pipe.delta.fallbacks")
        self.telemetry.count("pipe.delta.rows_rescored", stats.rows_rescored)
        self.telemetry.count("pipe.delta.rows_total", stats.rows_total)


class FitnessFunction:
    """Evaluate individuals in place, in two halves.

    Binds a :class:`ScoreProvider`.  :meth:`score` turns a batch of
    sequences into score sets through the provider; :meth:`apply` writes
    ``fitness`` plus the three Figure-7 statistics onto each
    :class:`Individual`.  A caller that scores elsewhere (the design
    service's fused dispatch) uses :meth:`apply` alone.
    """

    def __init__(self, provider: ScoreProvider) -> None:
        self.provider = provider

    def score(
        self,
        arrays: list[np.ndarray],
        provenances: list[Provenance | None] | None,
    ) -> list[ScoreSet]:
        """Score sets of ``arrays`` (batch, provider-ordered).

        Each sequence's operator provenance rides along so providers can
        delta-score; providers without ``scores_with_provenance``
        (minimal duck-typed stubs) are scored the classic way.
        """
        if not arrays:
            return []
        with_provenance = getattr(self.provider, "scores_with_provenance", None)
        if with_provenance is not None:
            score_sets = with_provenance(arrays, provenances)
        else:
            score_sets = self.provider.scores(arrays)
        if len(score_sets) != len(arrays):
            raise RuntimeError(
                f"score provider returned {len(score_sets)} results "
                f"for {len(arrays)} sequences"
            )
        return score_sets

    @staticmethod
    def apply(individuals: list[Individual], score_sets: list[ScoreSet]) -> None:
        """Write each score set's fitness and statistics onto its
        individual (``score_sets`` aligned with ``individuals``)."""
        for ind, scores in zip(individuals, score_sets):
            ind.target_score = scores.target_score
            ind.max_non_target = scores.max_non_target
            ind.avg_non_target = scores.avg_non_target
            ind.fitness = combine_scores(scores)

    def evaluate(self, individuals: list[Individual]) -> None:
        """Evaluate all unevaluated individuals: :meth:`score`, then
        :meth:`apply`."""
        pending = [ind for ind in individuals if not ind.evaluated]
        self.apply(
            pending,
            self.score(
                [ind.encoded for ind in pending],
                [ind.provenance for ind in pending],
            ),
        )

    def __call__(self, individuals: list[Individual]) -> None:
        self.evaluate(individuals)
