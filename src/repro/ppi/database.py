"""The preprocessed PIPE database and per-sequence similarity structures.

The paper's master process loads and broadcasts "the known protein-protein
interaction graph, PIPE similarity database and index, [and] sequences of
all known proteins" once; each worker then builds, per candidate sequence,
a ``sequence_similarity`` structure recording which known proteins contain
fragments similar to the candidate's fragments (Algorithm 2).  This module
implements both halves:

* :class:`PipeDatabase` — the read-only broadcast side: the proteome
  concatenated into one encoded array (so the whole similarity search is a
  single vectorised pass), the interaction adjacency, and a cache of
  match matrices for *known* proteins ("the preprocessing is completed
  offline, beforehand, for the known natural proteins").
* :class:`SequenceSimilarity` — the per-candidate side: a sparse
  ``windows x proteins`` matrix whose entry (i, p) counts how many
  fragments of protein p are similar to candidate fragment i.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.ppi.graph import InteractionGraph
from repro.ppi.kernels import SimilarityKernel, get_kernel
from repro.ppi.windows import num_windows
from repro.substitution.matrix import SubstitutionMatrix
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

__all__ = ["PipeDatabase", "SequenceSimilarity", "DeltaUpdate"]


@dataclass(frozen=True)
class SequenceSimilarity:
    """Similarity of one query sequence against the whole known proteome.

    Attributes
    ----------
    counts:
        Sparse ``(num_query_windows, num_proteins)`` matrix; entry (i, p)
        is the number of windows of protein p similar to query window i.
    num_windows:
        Number of query windows (rows of ``counts``).
    """

    counts: sp.csr_matrix
    num_windows: int

    @cached_property
    def binary(self) -> sp.csr_matrix:
        """0/1 indicator: does protein p contain any fragment similar to
        query fragment i?  This is the predicate PIPE's result matrix uses.

        Memoised: ``result_matrix``/``score_against`` read it once per
        evaluation on the hot path, so the CSR copy is built on first
        access and shared afterwards — treat the returned matrix as
        read-only.
        """
        out = self.counts.copy()
        out.data = np.ones_like(out.data)
        return out

    def __getstate__(self) -> dict[str, object]:
        # ``cached_property`` memoises ``binary`` in the instance dict, so
        # the default pickle would ship the derived CSR with every
        # structure PIPE has already read; the receiver rebuilds it.
        return {"counts": self.counts, "num_windows": self.num_windows}

    def matched_protein_indices(self) -> np.ndarray:
        """Indices of proteins with at least one similar fragment."""
        return np.unique(self.counts.indices)


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
    chunk_residues:
        Column-chunk size (in proteome residues) for the similarity sweep;
        bounds peak memory at roughly ``max_query_len * chunk_residues``
        float64 entries, mirroring the paper's concern with per-thread
        memory footprint on the BGQ.
    kernel:
        The similarity-sweep kernel (a
        :class:`~repro.ppi.kernels.SimilarityKernel` instance or registry
        name); defaults to the batched numpy kernel, bit-exact with the
        ``"chunked"`` reference.
    protein_cache_size:
        Bound of the known-protein similarity LRU (the offline
        preprocessing cache).  The GA's fixed target/non-target set fits
        far inside the default; scan workloads touching many proteins are
        capped instead of growing without limit.
    telemetry:
        Optional metrics registry for the ``pipe.protein_cache.*``
        counters; usually attached later through :meth:`set_telemetry` by
        the owning engine.
    """

    def __init__(
        self,
        graph: InteractionGraph,
        matrix: SubstitutionMatrix,
        window_size: int,
        threshold: float,
        *,
        chunk_residues: int = 250_000,
        kernel: SimilarityKernel | str | None = None,
        protein_cache_size: int = 4096,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        self._init_common(
            graph,
            matrix,
            window_size,
            threshold,
            chunk_residues=chunk_residues,
            kernel=kernel,
            protein_cache_size=protein_cache_size,
            telemetry=telemetry,
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

        self.adjacency = graph.adjacency_matrix()

    def _init_common(
        self,
        graph: InteractionGraph,
        matrix: SubstitutionMatrix,
        window_size: int,
        threshold: float,
        *,
        chunk_residues: int,
        kernel: SimilarityKernel | str | None,
        protein_cache_size: int,
        telemetry: MetricsRegistry | None,
    ) -> None:
        """Scalar state shared by __init__ and :meth:`from_arrays`."""
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        if chunk_residues < window_size:
            raise ValueError("chunk_residues must be >= window_size")
        if protein_cache_size < 1:
            raise ValueError(
                f"protein_cache_size must be >= 1, got {protein_cache_size}"
            )
        self.graph = graph
        self.matrix = matrix
        self.window_size = int(window_size)
        self.threshold = float(threshold)
        self.chunk_residues = int(chunk_residues)
        self.kernel = get_kernel(kernel)
        self.num_proteins = len(graph.proteins)
        self.protein_cache_size = int(protein_cache_size)
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
        chunk_residues: int = 250_000,
        kernel: SimilarityKernel | str | None = None,
        protein_cache_size: int = 4096,
        telemetry: MetricsRegistry | None = None,
    ) -> "PipeDatabase":
        """Build a database around *prebuilt* proteome arrays.

        Used by :class:`~repro.ppi.shm.SharedProteomeView` to attach a
        worker-side database whose arrays are zero-copy views into
        shared-memory segments; the arrays are adopted as-is (treat them
        as read-only).
        """
        self = cls.__new__(cls)
        self._init_common(
            graph,
            matrix,
            window_size,
            threshold,
            chunk_residues=chunk_residues,
            kernel=kernel,
            protein_cache_size=protein_cache_size,
            telemetry=telemetry,
        )
        self.concatenated = np.asarray(concatenated, dtype=np.uint8)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.valid_columns = np.asarray(valid_columns, dtype=bool)
        self.adjacency = adjacency
        return self

    def set_telemetry(self, telemetry: MetricsRegistry | None) -> None:
        """Attach (or, with None, detach) a metrics registry for the
        ``pipe.protein_cache.*`` cache accounting."""
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY

    # -- similarity sweep ----------------------------------------------------

    def num_query_windows(self, length: int) -> int:
        """Window rows a query of ``length`` residues contributes."""
        return num_windows(int(length), self.window_size)

    def _sweep_counts(self, seq: np.ndarray) -> np.ndarray:
        """Dense ``(num_windows, num_proteins)`` match counts for ``seq``.

        Delegates to the pluggable similarity kernel
        (:mod:`repro.ppi.kernels`); both the full sweep and the delta
        re-sweep of dirty rows run through here, so the two paths are
        bit-exact by construction (a subsequence's rows reproduce the
        corresponding rows of the full sweep — same chunking over the
        proteome, same float64 summation order).
        """
        return self.kernel.sweep(self, seq)

    def sequence_similarity(self, encoded: np.ndarray) -> SequenceSimilarity:
        """Build the per-candidate similarity structure (Algorithm 2's
        ``build specified portion of sequence_similarity``).

        Returns a sparse ``windows x proteins`` count matrix.  The sweep is
        chunked over the concatenated proteome to bound peak memory.
        """
        seq = np.asarray(encoded, dtype=np.uint8)
        if seq.ndim != 1 or seq.size == 0:
            raise ValueError("encoded sequence must be a non-empty 1-D array")
        n_win = num_windows(seq.size, self.window_size)
        if n_win == 0:
            empty = sp.csr_matrix((0, self.num_proteins), dtype=np.int64)
            return SequenceSimilarity(empty, 0)
        return SequenceSimilarity(self.kernel.sweep_sparse(self, seq), n_win)

    def sequence_similarity_batch(
        self, encoded: Sequence[np.ndarray]
    ) -> list[SequenceSimilarity]:
        """Similarity structures for a whole population in one batched sweep.

        The batched entry point of the kernel interface: all queries'
        windows are scored against the proteome through
        :meth:`~repro.ppi.kernels.SimilarityKernel.sweep_batch` (one
        stacked array op per pass under the batched kernel), bit-exact
        per sequence with :meth:`sequence_similarity`.
        """
        arrays: list[np.ndarray] = []
        for encoded_seq in encoded:
            seq = np.asarray(encoded_seq, dtype=np.uint8)
            if seq.ndim != 1 or seq.size == 0:
                raise ValueError(
                    "encoded sequences must be non-empty 1-D arrays"
                )
            arrays.append(seq)
        # Sequences shorter than the window have no rows to sweep.
        sweepable = [
            i
            for i, seq in enumerate(arrays)
            if num_windows(seq.size, self.window_size) > 0
        ]
        counts = self.kernel.sweep_batch_sparse(
            self, [arrays[i] for i in sweepable]
        )
        out: list[SequenceSimilarity] = []
        by_index = dict(zip(sweepable, counts))
        for i, seq in enumerate(arrays):
            n_win = num_windows(seq.size, self.window_size)
            if n_win == 0:
                empty = sp.csr_matrix((0, self.num_proteins), dtype=np.int64)
                out.append(SequenceSimilarity(empty, 0))
            else:
                out.append(SequenceSimilarity(by_index[i], n_win))
        return out

    def update_similarity(
        self,
        child: np.ndarray,
        sources: Sequence[tuple[SequenceSimilarity, int, int, int]],
    ) -> DeltaUpdate:
        """Incrementally build a child's similarity from parent structures.

        ``sources`` resolves a child's provenance: each entry
        ``(parent_sim, parent_start, child_start, length)`` states that
        ``child[child_start : child_start + length]`` is byte-identical to
        the parent residues ``[parent_start, parent_start + length)`` whose
        similarity structure is ``parent_sim`` (the caller — GA operators
        via :class:`~repro.ppi.delta.SimilarityLRU` — guarantees the
        identity; this method only exploits it).

        A child window row is *clean* when it lies entirely inside one
        source segment: its counts row equals the parent's corresponding
        row and is patched verbatim (CSR row slice).  Every other row —
        windows containing a mutated residue, straddling a crossover cut,
        or belonging to a parent missing from the cache — is *dirty* and
        re-swept against the proteome through the same kernel as the full
        sweep, so the result is bit-exact with
        :meth:`sequence_similarity` on the assembled child.
        """
        seq = np.asarray(child, dtype=np.uint8)
        if seq.ndim != 1 or seq.size == 0:
            raise ValueError("encoded sequence must be a non-empty 1-D array")
        w = self.window_size
        n_win = num_windows(seq.size, w)
        if n_win == 0:
            empty = sp.csr_matrix((0, self.num_proteins), dtype=np.int64)
            return DeltaUpdate(SequenceSimilarity(empty, 0), 0, 0)

        # Row resolution: src_of[j] = source index whose parent row
        # src_row[j] supplies child window row j; -1 = dirty.
        src_of = np.full(n_win, -1, dtype=np.intp)
        src_row = np.full(n_win, -1, dtype=np.intp)
        for k, (sim, ps, cs, ln) in enumerate(sources):
            ps, cs, ln = int(ps), int(cs), int(ln)
            if ps < 0 or cs < 0 or ln < 1:
                raise ValueError(f"invalid source segment ({ps}, {cs}, {ln})")
            if cs + ln > seq.size:
                raise ValueError(
                    f"segment [{cs}, {cs + ln}) overruns child of length {seq.size}"
                )
            lo, hi = cs, min(n_win - 1, cs + ln - w)
            if hi < lo:
                continue
            rows = np.arange(lo, hi + 1)
            parent_rows = ps + (rows - cs)
            take = (
                (parent_rows >= 0)
                & (parent_rows < sim.num_windows)
                & (src_of[rows] == -1)
            )
            src_of[rows[take]] = k
            src_row[rows[take]] = parent_rows[take]

        # Assemble the child CSR from maximal row runs: dirty runs are
        # re-swept as subsequences (windows [a, j) need residues
        # [a, j - 1 + w)) — all of a child's dirty runs go through the
        # kernel's batched entry point in one call — while clean runs
        # slice consecutive parent rows.
        blocks: list[sp.spmatrix | None] = []
        dirty_slots: list[int] = []
        dirty_seqs: list[np.ndarray] = []
        rows_rescored = 0
        j = 0
        while j < n_win:
            a = j
            if src_of[j] < 0:
                while j < n_win and src_of[j] < 0:
                    j += 1
                dirty_slots.append(len(blocks))
                dirty_seqs.append(seq[a : j - 1 + w])
                blocks.append(None)
                rows_rescored += j - a
            else:
                k = src_of[j]
                while (
                    j + 1 < n_win
                    and src_of[j + 1] == k
                    and src_row[j + 1] == src_row[j] + 1
                ):
                    j += 1
                j += 1
                blocks.append(sources[k][0].counts[src_row[a] : src_row[a] + (j - a)])
        if dirty_seqs:
            for slot, counts in zip(
                dirty_slots, self.kernel.sweep_batch_sparse(self, dirty_seqs)
            ):
                blocks[slot] = counts
        counts = sp.vstack(blocks, format="csr") if len(blocks) > 1 else blocks[0].tocsr()
        return DeltaUpdate(SequenceSimilarity(counts, n_win), rows_rescored, n_win)

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
            while len(self._protein_similarity_cache) >= self.protein_cache_size:
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
        nnz = sum(s.counts.nnz for s in self._protein_similarity_cache.values())
        return {"entries": len(self._protein_similarity_cache), "nnz": nnz}

    def __repr__(self) -> str:
        return (
            f"PipeDatabase(proteins={self.num_proteins}, "
            f"edges={self.graph.num_edges}, w={self.window_size}, "
            f"threshold={self.threshold}, matrix={self.matrix.name})"
        )
