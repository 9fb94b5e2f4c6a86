"""The PIPE scoring engine: ``PIPE(A, B) ∈ [0, 1)``.

Faithful to Sec. 2.2 of the paper: the result matrix ``H`` of size
``n_windows(A) x n_windows(B)`` counts, for each fragment pair
``(a_i, b_j)``, how many *known interacting protein pairs* (X, Y) have a
fragment of X similar to ``a_i`` and a fragment of Y similar to ``b_j`` —
"the result matrix indicates how many times a pair (ai, bj) of fragments
co-occurs in protein pairs that are known to interact".

With binary match matrices ``M_A`` (query-A windows x proteins) and ``M_B``
and the symmetric adjacency ``G`` this is one sparse triple product:

    H = M_A · G · M_Bᵀ

:meth:`PipeEngine.evaluate` computes exactly that, one pair at a time;
the GA's path, :meth:`PipeEngine.score_similarities`, lays a problem's
proteins side by side across the columns so a batch's result blocks cost
one compiled pass per window count (or, without the compiled library, one
product and one filter pass per axis per fused group), bit-identical to
the pairwise form.

The scalar score follows the MP-PIPE construction the paper cites for
details [11]: a (2r+1)² box-mean filter smooths single-cell noise out of
``H``, and the filtered maximum ``F`` is normalised by the saturating map
``F / (F + c)``, which is strictly monotone in the evidence and bounded in
[0, 1) — matching the paper's requirement that scores are *relative
likelihoods*, not probabilities.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.ppi.database import PipeDatabase, SequenceSimilarity
from repro.ppi.delta import DeltaStats
from repro.ppi.kernels import NativeSweep, ScratchArena, native_sweep, scratch_arena
from repro.ppi.similarity import calibrate_threshold
from repro.substitution import PAM120, get_matrix
from repro.substitution.matrix import SubstitutionMatrix
from repro.util.validation import check_fraction, check_int_range, check_positive
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ga.fitness import ScoreSet

__all__ = ["BatchScores", "PipeConfig", "PipeEngine", "PipeResult"]

#: Dense cells (candidates x windows x stacked protein windows) one fused
#: result-matrix group of the numpy body may hold: the 2 MB float64 block
#: a group carves from the thread's scratch arena (a single larger
#: candidate gets a one-off block).  It sizes only the numpy body's
#: groups, measured there (four candidates per group on the benchmark's
#: campaigns, ~10 % faster than one per group; larger no faster); the
#: compiled result block takes a whole window count in one call and uses
#: it only as the bound on the scratch cells the arena keeps for it.
GROUP_CELLS = 262_144


class _Evidence(NamedTuple):
    """One problem's entry in the evidence LRU."""

    #: ``hstack([adjacency @ M_bᵀ for b in names])``, float64 CSR.
    matrix: sp.csr_matrix
    #: Column bounds of each protein's block.
    bounds: list[int]
    #: ``(indptr, indices, data, bounds)`` as the compiled result block
    #: reads them (int32, int32, float64, int64), or None when an entry
    #: is not a non-negative integer: that pass is exact only on those.
    native: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None


@dataclass(frozen=True)
class PipeConfig:
    """Tunable parameters of the PIPE engine.

    Attributes
    ----------
    window_size:
        Fragment length ``w`` (the paper's production PIPE uses 20 on real
        yeast proteins; the scaled synthetic profiles use shorter windows
        matched to their motif length).
    similarity_threshold:
        Absolute window-score threshold; when None it is calibrated from
        ``match_rate`` at construction.
    match_rate:
        Target probability that two random background fragments count as
        similar (used only when ``similarity_threshold`` is None).
    box_radius:
        Radius r of the (2r+1)² mean filter applied to the result matrix.
    saturation:
        Constant ``c`` of the score map ``F / (F + c)``.
    count_positions:
        When True, match matrices carry per-window match *counts* instead
        of the paper's binary "contains a similar fragment" predicate
        (ablation knob).
    exclude_query_edge:
        When True and both queries are known proteins, their own edge is
        removed from the evidence (leave-one-out; used when validating
        PIPE's detection performance on known interactions).
    decision_threshold:
        Score above which a pair is "predicted to interact" (the black
        acceptance line of Figure 7).
    matrix_name:
        Bundled substitution-matrix name ("PAM120" or "BLOSUM62").
    """

    window_size: int = 6
    similarity_threshold: float | None = None
    match_rate: float = 1e-5
    box_radius: int = 1
    saturation: float = 3.0
    count_positions: bool = False
    exclude_query_edge: bool = False
    decision_threshold: float = 0.5
    matrix_name: str = "PAM120"

    def __post_init__(self) -> None:
        check_int_range(self.window_size, "window_size", lo=1)
        check_int_range(self.box_radius, "box_radius", lo=0)
        check_positive(self.saturation, "saturation")
        check_fraction(self.match_rate, "match_rate", inclusive=False)
        check_fraction(self.decision_threshold, "decision_threshold")

    @property
    def matrix(self) -> SubstitutionMatrix:
        return get_matrix(self.matrix_name)

    def resolved_threshold(self) -> float:
        """The similarity threshold actually in force."""
        if self.similarity_threshold is not None:
            return float(self.similarity_threshold)
        return calibrate_threshold(
            self.matrix, self.window_size, match_rate=self.match_rate
        )

    def with_matrix(self, name: str) -> "PipeConfig":
        """Copy of the config using a different substitution matrix."""
        return replace(self, matrix_name=name, similarity_threshold=None)


@dataclass(frozen=True)
class PipeResult:
    """Full output of one PIPE evaluation.

    ``decision_threshold`` is stamped by :meth:`PipeEngine.evaluate` from
    the engine's config, so :attr:`predicted` agrees with
    :meth:`PipeEngine.predict` for non-default thresholds.
    """

    score: float
    filtered_max: float
    raw_max: int
    decision_threshold: float = 0.5
    result_matrix: np.ndarray | None = field(default=None, repr=False)

    @property
    def predicted(self) -> bool:
        """Whether the pair is predicted to interact at the engine's
        acceptance threshold."""
        return self.score >= self.decision_threshold


class BatchScores(Mapping):
    """Typed result of one :meth:`PipeEngine.score_against` batch.

    Carries the per-protein scores together with the evaluation's
    provenance — the :class:`~repro.ppi.delta.DeltaStats` of the
    candidate's similarity build (when the delta path produced it) and
    the wall-clock time of the batch — mirroring how
    :class:`~repro.ga.fitness.ScoreSet` types the GA-facing scores.

    The class is a :class:`collections.abc.Mapping` over
    ``{protein_name: score}``, so every existing caller that indexed,
    iterated or compared the old ``dict[str, float]`` return keeps
    working unchanged.
    """

    __slots__ = ("per_protein", "delta", "elapsed_s")

    def __init__(
        self,
        per_protein: Mapping[str, float],
        *,
        delta: DeltaStats | None = None,
        elapsed_s: float = 0.0,
    ) -> None:
        self.per_protein: dict[str, float] = dict(per_protein)
        self.delta = delta
        self.elapsed_s = float(elapsed_s)

    # -- mapping shim ---------------------------------------------------------

    def __getitem__(self, name: str) -> float:
        return self.per_protein[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.per_protein)

    def __len__(self) -> int:
        return len(self.per_protein)

    def __eq__(self, other: object) -> bool:
        # Mapping does not define __eq__; compare by scores (like the old
        # dict return did) so `scores == {"T": 0.5}` and cross-provider
        # equality assertions keep passing.
        if isinstance(other, BatchScores):
            return self.per_protein == other.per_protein
        if isinstance(other, Mapping):
            return self.per_protein == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        return (
            f"BatchScores({self.per_protein!r}, delta={self.delta!r}, "
            f"elapsed_s={self.elapsed_s:.6f})"
        )

    # -- GA bridge ------------------------------------------------------------

    def score_set(self, target: str, non_targets: list[str]) -> "ScoreSet":
        """The GA-facing :class:`~repro.ga.fitness.ScoreSet` view."""
        from repro.ga.fitness import ScoreSet

        return ScoreSet(
            target_score=self.per_protein[target],
            non_target_scores=tuple(self.per_protein[n] for n in non_targets),
        )


class PipeEngine:
    """Scores query pairs against a :class:`PipeDatabase`.

    The engine's *inputs* (database, config) are read-only after
    construction, so it can be shared/broadcast across workers as the
    paper does.  The one piece of mutable state is ``_evidence_cache``, a
    bounded LRU memoising, per *problem* (the tuple of known-protein
    names a candidate is scored against), the right-hand factor of the
    result-matrix triple product for all its proteins side by side
    (``hstack([adjacency @ M_bᵀ for b in names])``), which is identical
    for every candidate scored against the same target/non-targets — the
    GA's hot loop.  A campaign is one entry; a service juggling many
    problems is capped at ``evidence_cache_size`` entries instead of
    growing without bound.  Each forked worker owns an independent copy,
    so the mutation is process-local and needs no locking.
    """

    def __init__(
        self,
        database: PipeDatabase,
        config: PipeConfig,
        *,
        evidence_cache_size: int = 256,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        if database.window_size != config.window_size:
            raise ValueError(
                "database window size "
                f"{database.window_size} != config window size {config.window_size}"
            )
        if evidence_cache_size < 1:
            raise ValueError(
                f"evidence_cache_size must be >= 1, got {evidence_cache_size}"
            )
        self.database = database
        self.config = config
        self.evidence_cache_size = int(evidence_cache_size)
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._evidence_cache: OrderedDict[tuple[str, ...], _Evidence] = OrderedDict()

    def set_telemetry(self, telemetry: MetricsRegistry | None) -> None:
        """Attach (or, with None, detach) a metrics registry.

        Kernel phases are reported as the nestable timer spans
        ``pipe.window_build`` (candidate similarity structure),
        ``pipe.result_block`` (the compiled product, filter and maximum:
        one per window count in :meth:`score_similarities`),
        ``pipe.triple_product`` (``M_A · G · M_Bᵀ``) and
        ``pipe.box_filter`` (mean filter + saturating score map) — one of
        each per fused group of the numpy body, per pair in
        :meth:`evaluate` — plus the counter ``pipe.evaluations`` (always
        candidate x protein pairs).  Forwarded to the database so the
        ``pipe.protein_cache.*`` accounting lands in the same registry.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self.database.set_telemetry(telemetry)

    # -- scoring ---------------------------------------------------------------

    def similarity_of(
        self, query: np.ndarray | str
    ) -> SequenceSimilarity:
        """Similarity structure for a query given as an encoded array or a
        known-protein name."""
        if isinstance(query, str):
            return self.database.protein_similarity(query)
        with self.telemetry.span("pipe.window_build"):
            return self.database.sequence_similarity(
                np.asarray(query, dtype=np.uint8)
            )

    def result_matrix(
        self,
        sim_a: SequenceSimilarity,
        sim_b: SequenceSimilarity,
        *,
        exclude_edge: tuple[str, str] | None = None,
    ) -> np.ndarray:
        """The n x m fragment co-occurrence count matrix ``H``.

        Leave-one-out (``exclude_edge``) subtracts the single edge's
        contribution from the full-adjacency product — two rank-1 outer
        products of match-matrix columns — instead of rebuilding a masked
        adjacency per pair.  All quantities are small integers in float64,
        so the subtraction is exact.
        """
        adj = self.database.adjacency
        ma = sim_a.counts if self.config.count_positions else sim_a.binary
        mb = sim_b.counts if self.config.count_positions else sim_b.binary
        with self.telemetry.span("pipe.triple_product"):
            h = (ma @ adj @ mb.T).toarray()
        h = np.asarray(h, dtype=np.float64)
        if exclude_edge is not None:
            a, b = exclude_edge
            if self.database.graph.has_edge(a, b):
                ia = self.database.graph.index_of(a)
                ib = self.database.graph.index_of(b)
                col_a = ma[:, [ia]].toarray().ravel()
                col_b = mb[:, [ib]].toarray().ravel()
                h -= float(adj[ia, ib]) * np.outer(col_a, col_b)
                if ia != ib:
                    h -= float(adj[ib, ia]) * np.outer(
                        ma[:, [ib]].toarray().ravel(), mb[:, [ia]].toarray().ravel()
                    )
        return h

    def score_matrix(self, h: np.ndarray) -> tuple[float, float]:
        """Collapse a result matrix into ``(score, filtered_max)``."""
        if h.size == 0:
            return 0.0, 0.0
        import scipy.ndimage as ndi

        with self.telemetry.span("pipe.box_filter"):
            r = self.config.box_radius
            if r > 0:
                filtered = ndi.uniform_filter(h, size=2 * r + 1, mode="constant")
            else:
                filtered = h
            fmax = float(filtered.max())
        score = fmax / (fmax + self.config.saturation)
        return score, fmax

    def evaluate(
        self,
        a: np.ndarray | str,
        b: np.ndarray | str,
        *,
        keep_matrix: bool = False,
    ) -> PipeResult:
        """Full PIPE evaluation of a query pair.

        Either side may be an encoded candidate sequence or the name of a
        known protein (resolved through the offline cache).
        """
        sim_a = self.similarity_of(a)
        sim_b = self.similarity_of(b)
        exclude = None
        if (
            self.config.exclude_query_edge
            and isinstance(a, str)
            and isinstance(b, str)
        ):
            exclude = (a, b)
        h = self.result_matrix(sim_a, sim_b, exclude_edge=exclude)
        score, fmax = self.score_matrix(h)
        self.telemetry.count("pipe.evaluations")
        return PipeResult(
            score=score,
            filtered_max=fmax,
            raw_max=int(h.max()) if h.size else 0,
            decision_threshold=self.config.decision_threshold,
            result_matrix=h if keep_matrix else None,
        )

    def score(self, a: np.ndarray | str, b: np.ndarray | str) -> float:
        """``PIPE(A, B)`` — the scalar used by the InSiPS fitness function."""
        return self.evaluate(a, b).score

    def predict(self, a: np.ndarray | str, b: np.ndarray | str) -> bool:
        """Binary interaction prediction at the acceptance threshold."""
        return self.score(a, b) >= self.config.decision_threshold

    def score_against(
        self,
        sequence: np.ndarray,
        protein_names: list[str],
        *,
        similarity: SequenceSimilarity | None = None,
        delta: DeltaStats | None = None,
    ) -> BatchScores:
        """Scores of one candidate against many known proteins.

        This is the worker-process inner loop (Algorithm 2): the candidate's
        similarity structure is built once and reused for the target and
        every non-target — the one-candidate :meth:`score_similarities`.
        Returns a :class:`BatchScores` — a typed, mapping-compatible result
        that also carries the caller-supplied ``delta`` accounting of the
        similarity build and the batch's wall-clock time.
        """
        started = time.perf_counter()
        sim = similarity if similarity is not None else self.similarity_of(sequence)
        (out,) = self.score_similarities([sim], protein_names)
        return BatchScores(
            out, delta=delta, elapsed_s=time.perf_counter() - started
        )

    def score_similarities(
        self,
        similarities: Sequence[SequenceSimilarity],
        protein_names: Sequence[str],
    ) -> list[dict[str, float]]:
        """``{protein: PIPE score}`` for each candidate structure, fused.

        A problem's proteins lie side by side in one evidence matrix
        (:meth:`_evidence`), so a candidate's result matrices against all
        of them are one block ``H``.  Candidates with equally many windows
        are scored together: where this process loaded the compiled
        library (:func:`~repro.ppi.kernels.native_sweep`) and the
        problem's evidence is integral, all of them in **one** compiled
        call (:meth:`_score_block`); otherwise by the numpy body, stacked
        in groups of at most :data:`GROUP_CELLS` dense cells, each
        multiplied against the evidence in one sparse product and
        box-filtered once down the window axis of the whole group and
        once along each protein's block of columns (:meth:`_score_group`).

        Both routes are bit-identical to per-pair :meth:`evaluate`: the
        result matrix is integer-valued, so the product's summation order
        is irrelevant; ndimage's running mean is line-local and
        history-dependent, and the lines filtered here — (candidate,
        column) in the first pass, (candidate, row of one protein block)
        in the second, in that axis order — are exactly the lines
        ``uniform_filter`` walks per pair.  Filtering across a block
        boundary or across stacked candidates, even zero-padded, would
        change the running sum's history and the last bits.
        """
        names = tuple(protein_names)
        if not names:
            return [{} for _ in similarities]
        evidence = self._evidence(names)
        bounds = evidence.bounds
        # A candidate without windows, like a protein without, has an
        # empty result matrix: score 0.0.
        scores = np.zeros((len(similarities), len(names)))
        by_windows: dict[int, list[int]] = {}
        for i, sim in enumerate(similarities):
            if sim.num_windows and bounds[-1]:
                by_windows.setdefault(sim.num_windows, []).append(i)
        native = native_sweep()
        compiled = native.available and evidence.native is not None
        for n, members in by_windows.items():
            counts = [similarities[i].counts for i in members]
            if compiled:
                with self.telemetry.span("pipe.result_block"):
                    scores[members] = self._score_block(
                        native, counts, n, evidence.native
                    )
                continue
            step = max(1, GROUP_CELLS // (n * bounds[-1]))
            for g in range(0, len(members), step):
                scores[members[g : g + step]] = self._score_group(
                    counts[g : g + step], n, evidence.matrix, bounds
                )
        self.telemetry.count("pipe.evaluations", len(similarities) * len(names))
        return [dict(zip(names, row)) for row in scores.tolist()]

    def _score_block(
        self,
        native: NativeSweep,
        counts: list[sp.csr_matrix],
        n: int,
        evidence: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> np.ndarray:
        """The ``(len(counts), proteins)`` scores of candidates with ``n``
        windows each, in one compiled call (:meth:`NativeSweep.result_block
        <repro.ppi._native.NativeSweep.result_block>`).

        The candidates' match rows are stacked into one CSR and the call
        scores them one after another through one scratch reservation
        from this thread's :class:`~repro.ppi.kernels.ScratchArena`,
        sized for the candidate with the most windows near a match (a
        one-off buffer past :data:`GROUP_CELLS` cells).
        """
        bounds = evidence[3]
        lengths = np.concatenate([np.diff(c.indptr) for c in counts])
        rows = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=rows[1:])
        proteins = np.concatenate([c.indices[: c.nnz] for c in counts]).astype(
            np.int32, copy=False
        )
        weights = None
        if self.config.count_positions:
            weights = np.concatenate([c.data[: c.nnz] for c in counts]).astype(
                np.float64
            )
        radius = self.config.box_radius
        matched = int((lengths.reshape(len(counts), n) > 0).sum(axis=1).max())
        windows = min(n, matched * (2 * radius + 1))
        columns = int(bounds[-1])
        cells = (columns + 3) * windows
        scratch = scratch_arena().reserve(
            ScratchArena.nbytes(
                ((cells,), np.float64), ((n,), np.int64), ((columns,), np.uint8)
            ),
            retain=cells <= GROUP_CELLS,
        )
        fmax = native.result_block(
            rows,
            proteins,
            weights,
            evidence,
            n,
            radius,
            scratch.carve((cells,), np.float64),
            scratch.carve((n,), np.int64),
            scratch.carve((columns,), np.uint8),
        )
        return fmax / (fmax + self.config.saturation)

    def _score_group(
        self,
        counts: list[sp.csr_matrix],
        n: int,
        evidence: sp.csr_matrix,
        bounds: list[int],
    ) -> np.ndarray:
        """The numpy body: the ``(len(counts), len(bounds) - 1)`` scores of
        one fused group of candidates with ``n`` windows each.

        The dense result block ``H`` is carved from this thread's
        :class:`~repro.ppi.kernels.ScratchArena` (a one-off buffer when a
        single candidate's block exceeds :data:`GROUP_CELLS`) and both
        box-filter passes write back into it: ndimage filters a line
        through a buffer of its own, so the in-place 1-D filter is
        bit-identical to the out-of-place one.  Only the scores leave.
        A group is a call of its own so its views of the arena are gone
        before the next group reserves, which may grow the arena.
        """
        import scipy.ndimage as ndi

        telemetry = self.telemetry
        size = 2 * self.config.box_radius + 1
        cells = len(counts) * n * bounds[-1]
        scratch = scratch_arena().reserve(
            ScratchArena.nbytes(((cells,), np.float64)), retain=cells <= GROUP_CELLS
        )
        with telemetry.span("pipe.triple_product"):
            ma = sp.vstack(counts, "csr")
            if not self.config.count_positions:
                # The paper's binary predicate, once per group.
                ma.data = np.ones_like(ma.data)
            # toarray zeroes ``out`` itself.
            h = (ma @ evidence).toarray(
                out=scratch.carve((len(counts) * n, bounds[-1]), np.float64)
            )
            h = h.reshape(len(counts), n, bounds[-1])
        with telemetry.span("pipe.box_filter"):
            if size > 1:
                ndi.uniform_filter1d(h, size, axis=1, mode="constant", output=h)
            fmax = np.zeros((len(counts), len(bounds) - 1))
            for b, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                if hi == lo:
                    continue
                block = h[:, :, lo:hi]
                if size > 1:
                    ndi.uniform_filter1d(
                        block, size, axis=2, mode="constant", output=block
                    )
                fmax[:, b] = block.max(axis=(1, 2))
        return fmax / (fmax + self.config.saturation)

    def _evidence(self, names: tuple[str, ...]) -> _Evidence:
        """``hstack([adjacency @ M_bᵀ for b in names])``, the column
        bounds of each protein's block and the compiled pass's view of
        both, through the bounded LRU.

        float64 CSR: the product with a candidate's (CSR) match matrix
        then needs no format conversion and lands directly in the dtype
        the box filter works in; every entry is a small integer, exact.
        Whether it is — finite, non-negative, integral — is checked here,
        once per entry: only then may the compiled pass score it.
        """
        cached = self._evidence_cache.get(names)
        if cached is not None:
            self._evidence_cache.move_to_end(names)
            return cached
        adjacency = self.database.adjacency
        blocks = []
        bounds = [0]
        for name in names:
            sim_b = self.database.protein_similarity(name)
            mb = sim_b.counts if self.config.count_positions else sim_b.binary
            blocks.append(adjacency @ mb.T)
            bounds.append(bounds[-1] + sim_b.num_windows)
        evidence = sp.hstack(blocks, format="csr", dtype=np.float64)
        data = evidence.data[: evidence.nnz]
        native = None
        if evidence.nnz < 2**31 and np.all(
            np.isfinite(data) & (data >= 0) & (data == np.floor(data))
        ):
            native = (
                evidence.indptr.astype(np.int32, copy=False),
                evidence.indices[: evidence.nnz].astype(np.int32, copy=False),
                np.ascontiguousarray(data),
                np.array(bounds, dtype=np.int64),
            )
        while len(self._evidence_cache) >= self.evidence_cache_size:
            self._evidence_cache.popitem(last=False)
            self.telemetry.count("pipe.evidence_cache.evictions")
        entry = self._evidence_cache[names] = _Evidence(evidence, bounds, native)
        self.telemetry.set_gauge(
            "pipe.evidence_cache.size", len(self._evidence_cache)
        )
        return entry
