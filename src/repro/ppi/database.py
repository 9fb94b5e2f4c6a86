"""The preprocessed PIPE database and per-sequence similarity structures.

The paper's master process loads and broadcasts "the known protein-protein
interaction graph, PIPE similarity database and index, [and] sequences of
all known proteins" once; each worker then builds, per candidate sequence,
a ``sequence_similarity`` structure recording which known proteins contain
fragments similar to the candidate's fragments (Algorithm 2).  This module
implements both halves:

* :class:`PipeDatabase` — the read-only broadcast side: the proteome
  concatenated into one encoded array (so the whole similarity search is a
  single vectorised pass) and pre-scored against each residue code
  (``score_rows``, the batched kernel's contiguous gather source), the
  interaction adjacency, and a cache of match matrices for *known*
  proteins ("the preprocessing is completed offline, beforehand, for the
  known natural proteins").  Every build is batch-shaped —
  :meth:`~PipeDatabase.sequence_similarity_batch` for full sweeps,
  :meth:`~PipeDatabase.update_similarity_batch` for delta children — and
  the one-item methods are calls of those.
* :class:`SequenceSimilarity` — the per-candidate side: a sparse
  ``windows x proteins`` matrix, held as raw CSR arrays
  (:class:`~repro.ppi.kernels.CSRRows`), whose entry (i, p) counts how
  many fragments of protein p are similar to candidate fragment i.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.ppi.graph import InteractionGraph
from repro.ppi.kernels import CSRRows, SimilarityKernel, get_kernel, native_sweep
from repro.ppi.windows import num_windows
from repro.substitution.matrix import SubstitutionMatrix
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

__all__ = ["PipeDatabase", "SequenceSimilarity", "DeltaUpdate"]


@dataclass(frozen=True)
class SequenceSimilarity:
    """Similarity of one query sequence against the whole known proteome.

    Attributes
    ----------
    rows:
        The ``(num_query_windows, num_proteins)`` match counts as raw CSR
        arrays (:class:`~repro.ppi.kernels.CSRRows`: int32 ``indptr`` and
        ``indices``, int64 ``data``); entry (i, p) is the number of
        windows of protein p similar to query window i.  The sweep, the
        delta assembly and the compiled result block read these arrays
        and never build a scipy matrix.
    """

    rows: CSRRows

    @property
    def num_windows(self) -> int:
        """Number of query windows (rows of the match counts)."""
        return self.rows.num_windows

    @cached_property
    def counts(self) -> sp.csr_matrix:
        """``rows`` as a scipy CSR matrix sharing its arrays.

        Memoised and built on first access: the pairwise ``evaluate``
        oracle, the evidence matrices and the numpy result body read it;
        the scoring hot path does not.  Treat it as read-only.
        """
        return self.rows.tocsr()

    @cached_property
    def binary(self) -> sp.csr_matrix:
        """0/1 indicator: does protein p contain any fragment similar to
        query fragment i?  This is the predicate PIPE's result matrix uses.

        Memoised: the CSR copy is built on first access and shared
        afterwards — treat the returned matrix as read-only.
        """
        out = self.counts.copy()
        out.data = np.ones_like(out.data)
        return out

    def matched_protein_indices(self) -> np.ndarray:
        """Indices of proteins with at least one similar fragment."""
        return np.unique(self.rows.indices)


@dataclass(frozen=True)
class DeltaUpdate:
    """Result of one incremental similarity build.

    ``rows_rescored`` of ``rows_total`` window rows were re-swept against
    the proteome; the remainder were patched verbatim from parent
    structures.  The ratio is the delta path's work saving and feeds the
    ``pipe.delta.rows_*`` telemetry.
    """

    similarity: SequenceSimilarity
    rows_rescored: int
    rows_total: int


def _gather_rows(
    pool: list[CSRRows], pool_row: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of the CSR whose row g is row
    ``pool_row[g]`` of the pool — its parts' rows back to back — in one
    gather (int64 ``indptr``, the pool's index and data dtypes)."""
    if not pool:
        return (
            np.zeros(pool_row.size + 1, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int64),
        )
    n_rows = np.array([rows.num_windows for rows in pool], dtype=np.int64)
    nnz = np.array([rows.indices.size for rows in pool], dtype=np.int64)
    # Each part's row bounds, shifted onto the concatenated arrays.
    shift = np.repeat(np.cumsum(nnz) - nnz, n_rows)
    starts = np.concatenate([rows.indptr[:-1] for rows in pool]) + shift
    stops = np.concatenate([rows.indptr[1:] for rows in pool]) + shift
    row_start = starts[pool_row]
    row_len = stops[pool_row] - row_start
    indptr = np.zeros(pool_row.size + 1, dtype=np.int64)
    np.cumsum(row_len, out=indptr[1:])
    gather = np.repeat(row_start - indptr[:-1], row_len) + np.arange(indptr[-1])
    return (
        indptr,
        np.concatenate([rows.indices for rows in pool])[gather],
        np.concatenate([rows.data for rows in pool])[gather],
    )


class PipeDatabase:
    """Read-only preprocessed data shared by every PIPE evaluation.

    Parameters
    ----------
    graph:
        Interaction graph over the full proteome.
    matrix:
        Fragment-similarity substitution matrix (PAM120 in the paper).
    window_size:
        Fragment length ``w``.
    threshold:
        Absolute window-alignment score above which two fragments are
        "similar" (see :func:`repro.ppi.similarity.calibrate_threshold`).
    kernel:
        The similarity-sweep kernel (a
        :class:`~repro.ppi.kernels.SimilarityKernel` instance or registry
        name); defaults to the batched numpy kernel, bit-exact with the
        ``"chunked"`` reference.
    telemetry:
        Optional metrics registry for the ``pipe.protein_cache.*``
        counters; usually attached later through :meth:`set_telemetry` by
        the owning engine.
    """

    #: Bound of the known-protein similarity LRU (the offline
    #: preprocessing cache).  The GA's fixed target/non-target set fits
    #: far inside it; scan workloads touching many proteins are capped
    #: instead of growing without limit.
    PROTEIN_CACHE_SIZE = 4096

    def __init__(
        self,
        graph: InteractionGraph,
        matrix: SubstitutionMatrix,
        window_size: int,
        threshold: float,
        *,
        kernel: SimilarityKernel | str | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        self._init_common(
            graph, matrix, window_size, threshold, kernel=kernel, telemetry=telemetry
        )
        proteins = graph.proteins
        lengths = np.array([len(p) for p in proteins], dtype=np.int64)
        # Pad the concatenated proteome with window_size - 1 trailing
        # residues so every protein owns exactly `len(p)` window-start
        # columns and segment reductions never run out of bounds.
        pad = self.window_size - 1
        self.offsets = np.concatenate([[0], np.cumsum(lengths)])
        total = int(self.offsets[-1])
        self.concatenated = np.zeros(total + pad, dtype=np.uint8)
        for p, start in zip(proteins, self.offsets[:-1]):
            self.concatenated[start : start + len(p)] = p.encoded

        # Window-start column j is valid iff the whole window stays inside
        # the protein owning column j.
        self.valid_columns = np.zeros(total, dtype=bool)
        for start, length in zip(self.offsets[:-1], lengths):
            last_valid = start + max(0, length - self.window_size + 1)
            self.valid_columns[start:last_valid] = True

        self._adopt_score_rows(None)
        self.adjacency = graph.adjacency_matrix()

    def _init_common(
        self,
        graph: InteractionGraph,
        matrix: SubstitutionMatrix,
        window_size: int,
        threshold: float,
        *,
        kernel: SimilarityKernel | str | None,
        telemetry: MetricsRegistry | None,
    ) -> None:
        """Scalar state shared by __init__ and :meth:`from_arrays`."""
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        self.graph = graph
        self.matrix = matrix
        self.window_size = int(window_size)
        self.threshold = float(threshold)
        self.kernel = get_kernel(kernel)
        self.num_proteins = len(graph.proteins)
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._protein_similarity_cache: OrderedDict[str, SequenceSimilarity] = (
            OrderedDict()
        )

    @classmethod
    def from_arrays(
        cls,
        graph: InteractionGraph,
        matrix: SubstitutionMatrix,
        window_size: int,
        threshold: float,
        *,
        concatenated: np.ndarray,
        offsets: np.ndarray,
        valid_columns: np.ndarray,
        adjacency: sp.csr_matrix,
        score_rows: np.ndarray | None = None,
        kernel: SimilarityKernel | str | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> "PipeDatabase":
        """Build a database around *prebuilt* proteome arrays.

        Used by :class:`~repro.ppi.shm.SharedProteomeView` to attach a
        worker-side database whose arrays are zero-copy views into
        shared-memory segments; the arrays are adopted as-is (treat them
        as read-only).  ``score_rows`` is derived data: when it does not
        ride along it is rebuilt from ``concatenated`` and the matrix.
        """
        self = cls.__new__(cls)
        self._init_common(
            graph, matrix, window_size, threshold, kernel=kernel, telemetry=telemetry
        )
        self.concatenated = np.asarray(concatenated, dtype=np.uint8)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.valid_columns = np.asarray(valid_columns, dtype=bool)
        self._adopt_score_rows(score_rows)
        self.adjacency = adjacency
        return self

    def _adopt_score_rows(self, score_rows: np.ndarray | None) -> None:
        """Set ``score_rows`` (adopted as given, else built) and, when
        there are any, resolve the compiled sweep that reads them now —
        before any fork — so pool workers inherit the loaded library
        instead of each running the compiler."""
        self.score_rows = (
            np.asarray(score_rows, dtype=np.int16)
            if score_rows is not None
            else self._build_score_rows()
        )
        if self.score_rows is not None:
            native_sweep()

    def _build_score_rows(self) -> np.ndarray | None:
        """``int16_table[:, concatenated]`` — the proteome pre-scored
        against every residue code, one contiguous row per code.

        A query's score matrix against any proteome slice is then a take
        of contiguous row slices (40 bytes per proteome residue buy the
        batched kernel its gather).  None when integer scoring would not
        be exact (non-integer matrix entries) or a window sum could
        overflow int16 (``window_size * max|score|``); kernels then take
        the float64 reference path.
        """
        table = np.asarray(self.matrix.scores)
        if not np.all(table == np.rint(table)):
            return None
        if float(np.abs(table).max()) * self.window_size >= np.iinfo(np.int16).max:
            return None
        return np.ascontiguousarray(table.astype(np.int16)[:, self.concatenated])

    def set_telemetry(self, telemetry: MetricsRegistry | None) -> None:
        """Attach (or, with None, detach) a metrics registry for the
        ``pipe.protein_cache.*`` cache accounting."""
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY

    # -- similarity sweep ----------------------------------------------------

    def num_query_windows(self, length: int) -> int:
        """Window rows a query of ``length`` residues contributes."""
        return num_windows(int(length), self.window_size)

    def sequence_similarity(self, encoded: np.ndarray) -> SequenceSimilarity:
        """Build the per-candidate similarity structure (Algorithm 2's
        ``build specified portion of sequence_similarity``): the one-item
        :meth:`sequence_similarity_batch`.

        Holds the sparse ``windows x proteins`` count matrix.  The sweep is
        chunked over the concatenated proteome to bound peak memory.
        """
        return self.sequence_similarity_batch([encoded])[0]

    def sequence_similarity_batch(
        self, encoded: Sequence[np.ndarray]
    ) -> list[SequenceSimilarity]:
        """Similarity structures for a whole population in one batched sweep.

        The batched entry point of the kernel interface: all queries'
        windows are scored against the proteome through
        :meth:`~repro.ppi.kernels.SimilarityKernel.sweep_batch_sparse`
        (one stacked pass under the batched kernel), bit-exact per
        sequence with the reference kernel's one-query sweep.  A sequence
        shorter than the window has no rows: an empty structure.
        """
        arrays: list[np.ndarray] = []
        for encoded_seq in encoded:
            seq = np.asarray(encoded_seq, dtype=np.uint8)
            if seq.ndim != 1 or seq.size == 0:
                raise ValueError("encoded sequence must be a non-empty 1-D array")
            arrays.append(seq)
        return [
            SequenceSimilarity(rows)
            for rows in self.kernel.sweep_batch_sparse(self, arrays)
        ]

    def update_similarity(
        self,
        child: np.ndarray,
        sources: Sequence[tuple[SequenceSimilarity, int, int, int]],
    ) -> DeltaUpdate:
        """Incrementally build one child's similarity from parent
        structures: the one-item :meth:`update_similarity_batch`."""
        return self.update_similarity_batch([(child, sources)])[0]

    def update_similarity_batch(
        self,
        items: Sequence[
            tuple[np.ndarray, Sequence[tuple[SequenceSimilarity, int, int, int]]]
        ],
    ) -> list[DeltaUpdate]:
        """Incrementally build many children's similarities in one sweep.

        Each item is ``(child, sources)``; ``sources`` resolves the
        child's provenance: each entry
        ``(parent_sim, parent_start, child_start, length)`` states that
        ``child[child_start : child_start + length]`` is byte-identical to
        the parent residues ``[parent_start, parent_start + length)`` whose
        similarity structure is ``parent_sim`` (the caller — GA operators
        via :class:`~repro.ppi.delta.SimilarityLRU` — guarantees the
        identity; this method only exploits it).

        A child window row is *clean* when it lies entirely inside one
        source segment: its counts row equals the parent's corresponding
        row and is patched verbatim.  Every other row — windows containing
        a mutated residue, straddling a crossover cut, or belonging to a
        parent missing from the cache — is *dirty* and re-swept against
        the proteome through the same kernel as the full sweep, so the
        result is bit-exact with :meth:`sequence_similarity` on the
        assembled child.  The dirty runs of *all* items go through the
        kernel's batched entry point in one call: a generation of point
        mutants costs one pass over the proteome, not one per child.

        The whole batch is planned and assembled in one vectorised pass:
        every source's rows are expanded at once (the first source listed
        wins where segments overlap), the dirty rows fall out of a mask,
        and every child's rows are gathered from one pool of parent and
        re-swept rows; each child holds views of its own share.
        """
        children = []
        for child, _ in items:
            seq = np.asarray(child, dtype=np.uint8)
            if seq.ndim != 1 or seq.size == 0:
                raise ValueError("encoded sequence must be a non-empty 1-D array")
            children.append(seq)
        w = self.window_size
        lengths = np.array([seq.size for seq in children], dtype=np.int64)
        n_wins = np.maximum(lengths - w + 1, 0)
        # Every child's window rows, back to back: child i owns global
        # rows [row_base[i], row_base[i] + n_wins[i]).
        row_base = np.cumsum(n_wins) - n_wins
        total_rows = int(n_wins.sum())

        # Distinct parent structures (by identity) and every source as
        # one row of (child, parent, parent_start, child_start, length).
        parents: dict[int, int] = {}
        pool: list[CSRRows] = []
        flat: list[tuple[int, int, int, int, int]] = []
        for i, (_, sources) in enumerate(items):
            for sim, ps, cs, ln in sources:
                k = parents.setdefault(id(sim), len(pool))
                if k == len(pool):
                    pool.append(sim.rows)
                flat.append((i, k, int(ps), int(cs), int(ln)))
        item, parent, ps, cs, ln = np.array(flat, dtype=np.int64).reshape(-1, 5).T
        invalid = (ps < 0) | (cs < 0) | (ln < 1)
        overrun = cs + ln > lengths[item]
        if (invalid | overrun).any():
            k = int(np.argmax(invalid | overrun))
            if invalid[k]:
                raise ValueError(
                    f"invalid source segment ({ps[k]}, {cs[k]}, {ln[k]})"
                )
            raise ValueError(
                f"segment [{cs[k]}, {cs[k] + ln[k]}) overruns child of length "
                f"{lengths[item[k]]}"
            )

        # A source supplies child rows [cs, stop): windows inside both the
        # segment and the child whose parent row exists.  Expand them all;
        # where sources overlap, the first one listed wins.
        parent_wins = np.array([rows.num_windows for rows in pool], dtype=np.int64)
        parent_base = np.cumsum(parent_wins) - parent_wins
        stop = np.minimum(
            np.minimum(n_wins[item], cs + ln - w + 1), cs + parent_wins[parent] - ps
        )
        covered = np.maximum(stop - cs, 0)
        seg = np.repeat(np.arange(covered.size), covered)
        step = np.arange(seg.size) - np.repeat(np.cumsum(covered) - covered, covered)
        child_rows, first = np.unique(
            row_base[item[seg]] + cs[seg] + step, return_index=True
        )
        # pool_row[g]: the row of the pool (parents, then re-swept runs)
        # that child row g copies.
        pool_row = np.full(total_rows, -1, dtype=np.int64)
        first_seg = seg[first]
        pool_row[child_rows] = (
            parent_base[parent[first_seg]] + ps[first_seg] + step[first]
        )

        # Dirty rows — no source — re-swept as maximal runs of one child,
        # every run of every child in one kernel call.  The runs' rows, in
        # order, are exactly the dirty rows in order.
        dirty = np.flatnonzero(pool_row < 0)
        child_of_row = np.repeat(np.arange(len(children)), n_wins)
        dirty_child = child_of_row[dirty]
        run_start = np.ones(dirty.size, dtype=bool)
        run_start[1:] = (dirty[1:] != dirty[:-1] + 1) | (
            dirty_child[1:] != dirty_child[:-1]
        )
        run_end = np.ones(dirty.size, dtype=bool)
        run_end[:-1] = run_start[1:]
        run_child = dirty_child[run_start]
        run_first = dirty[run_start] - row_base[run_child]
        run_stop = dirty[run_end] + 1 - row_base[run_child]
        runs = zip(run_child.tolist(), run_first.tolist(), run_stop.tolist())
        queries = [children[c][a : b - 1 + w] for c, a, b in runs]
        if queries:
            pool.extend(self.kernel.sweep_batch_sparse(self, queries))
            pool_row[dirty] = int(parent_wins.sum()) + np.arange(dirty.size)

        indptr, indices, data = _gather_rows(pool, pool_row)
        # Each child's indptr, rebased to its first row, side by side: child
        # i's is rebased[row_base[i] + i : row_base[i] + i + n_wins[i] + 1].
        slot_child = np.repeat(np.arange(len(children)), n_wins + 1)
        slot_row = np.arange(slot_child.size) - slot_child
        rebased = (indptr[slot_row] - indptr[row_base[slot_child]]).astype(np.int32)
        rescored = np.bincount(dirty_child, minlength=len(children)).tolist()
        out: list[DeltaUpdate] = []
        for i, (base, n, lo, hi) in enumerate(
            zip(
                row_base.tolist(),
                n_wins.tolist(),
                indptr[row_base].tolist(),
                indptr[row_base + n_wins].tolist(),
            )
        ):
            rows = CSRRows(
                rebased[base + i : base + i + n + 1],
                indices[lo:hi],
                data[lo:hi],
                n,
                self.num_proteins,
            )
            out.append(DeltaUpdate(SequenceSimilarity(rows), rescored[i], n))
        return out

    def protein_similarity(self, name: str) -> SequenceSimilarity:
        """Cached similarity structure for a *known* protein.

        Mirrors the paper's offline preprocessing of natural proteins; the
        cache makes repeated GA evaluations against the same target and
        non-target set cost one sweep each in total.
        """
        cached = self._protein_similarity_cache.get(name)
        if cached is None:
            protein = self.graph.protein(name)
            cached = self.sequence_similarity(protein.encoded)
            while len(self._protein_similarity_cache) >= self.PROTEIN_CACHE_SIZE:
                self._protein_similarity_cache.popitem(last=False)
                self.telemetry.count("pipe.protein_cache.evictions")
            self._protein_similarity_cache[name] = cached
            self.telemetry.set_gauge(
                "pipe.protein_cache.size", len(self._protein_similarity_cache)
            )
        else:
            self._protein_similarity_cache.move_to_end(name)
        return cached

    def precompute(self, names: list[str] | None = None) -> None:
        """Eagerly fill the known-protein similarity cache."""
        for name in names if names is not None else self.graph.names:
            self.protein_similarity(name)

    def cache_info(self) -> dict[str, int]:
        """Size of the offline-preprocessing cache (for memory accounting)."""
        nnz = sum(
            s.rows.indices.size for s in self._protein_similarity_cache.values()
        )
        return {"entries": len(self._protein_similarity_cache), "nnz": nnz}

    def __repr__(self) -> str:
        return (
            f"PipeDatabase(proteins={self.num_proteins}, "
            f"edges={self.graph.num_edges}, w={self.window_size}, "
            f"threshold={self.threshold}, matrix={self.matrix.name})"
        )
