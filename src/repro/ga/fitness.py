"""The InSiPS fitness function (Sec. 2.2) and score-provider interface.

``fitness(seq) = (1 - MAX_k PIPE(seq, nt_k)) * PIPE(seq, target)``

The division of labour mirrors the paper exactly: *score providers*
(worker processes in the parallel runtime, a direct PIPE call in the
serial path) return the raw PIPE scores of a candidate against the target
and every non-target; the master-side :func:`combine_scores` folds them
into the scalar fitness.

Provider lifecycle
------------------
Every provider is a context manager: ``with provider: ...`` guarantees
``close()`` runs (reaping worker processes in the multiprocessing
backend) even when the GA raises.  ``close()`` is idempotent.  Whether
it is *final* depends on the backend: the serial and multiprocessing
providers may be reused after closing (the next scoring call re-acquires
whatever resources were released), while the thread provider and the
fabric client treat ``close()`` as final and raise ``RuntimeError`` /
``ClientClosedError`` on further scoring — a released thread pool or
fabric registration must never silently resurrect.

Caching
-------
Both concrete providers share one caching surface,
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
from repro.ppi.pipe import BatchScores, PipeEngine
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "ScoreSet",
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

    Implementations: :class:`SerialScoreProvider` (direct, in-process) and
    :class:`repro.parallel.mp_backend.MultiprocessScoreProvider` (the
    paper's master/worker on-demand dispatch).  Both are context managers;
    prefer ``with provider:`` so resources are released on any exit path.
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
    bounded by ``cache_size`` with least-recently-used eviction — a full
    cache evicts one cold entry per insertion instead of throwing away
    every hot entry at once.  Subclasses implement
    :meth:`_score_uncached` for the sequences the cache cannot answer;
    duplicates inside one batch are scored once.

    Cache traffic is recorded on the telemetry registry as
    ``provider.cache.hits`` / ``.misses`` / ``.evictions``.
    """

    def __init__(
        self,
        *,
        cache_size: int = 100_000,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(telemetry)
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.cache_size = int(cache_size)
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
        while len(self._cache) >= self.cache_size:
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
    """In-process provider: the reference implementation of Algorithm 2's
    per-candidate work, with the shared cross-generation score cache.

    Keeps a bounded LRU of per-sequence similarity structures
    (:class:`~repro.ppi.delta.SimilarityLRU`, ``similarity_cache_size``
    entries) so a child with provenance re-sweeps only its dirty windows
    against the proteome; a parent evicted from the LRU degrades to the
    full sweep (``pipe.delta.fallbacks``), never to a wrong answer.  Set
    ``use_delta=False`` to force the full sweep everywhere (the
    benchmark baseline).
    """

    def __init__(
        self,
        engine: PipeEngine,
        target: str,
        non_targets: list[str],
        *,
        cache_size: int = 100_000,
        similarity_cache_size: int = 256,
        use_delta: bool = True,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        if target in non_targets:
            raise ValueError(f"target {target!r} also appears in the non-target list")
        # Validate all names up front: a typo should fail fast, not mid-run.
        engine.database.graph.index_of(target)
        for nt in non_targets:
            engine.database.graph.index_of(nt)
        super().__init__(cache_size=cache_size, telemetry=telemetry)
        self.engine = engine
        self.target = target
        self.non_targets = list(non_targets)
        self.use_delta = bool(use_delta)
        self._similarity_cache = SimilarityLRU(similarity_cache_size)

    def _score_uncached(
        self,
        arrays: list[np.ndarray],
        provenances: list[Provenance | None] | None = None,
    ) -> list[ScoreSet]:
        names = [self.target, *self.non_targets]
        provs = provenances if provenances is not None else [None] * len(arrays)
        with self.telemetry.span("provider.serial.score"):
            # The whole batch moves through each stage together: one
            # stacked kernel pass covers all full sweeps, another all
            # dirty rows of the delta children, and the structures then
            # collapse into scores one fused group at a time.
            with self.engine.telemetry.span("pipe.window_build"):
                if self.use_delta:
                    built = self._similarity_cache.similarity_batch(
                        self.engine.database, arrays, provs
                    )
                    for _, stats in built:
                        self._record_delta(stats)
                    similarities = [similarity for similarity, _ in built]
                else:
                    similarities = self.engine.database.sequence_similarity_batch(
                        arrays
                    )
            scored = self.engine.score_similarities(similarities, names)
        return [
            BatchScores(scores).score_set(self.target, self.non_targets)
            for scores in scored
        ]


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
