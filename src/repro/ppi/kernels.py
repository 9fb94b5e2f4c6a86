"""Pluggable PIPE similarity-sweep kernels.

The window sweep — "build the specified portion of sequence_similarity"
(Algorithm 2) — is the hot loop of the whole reproduction: every candidate
(or every dirty window row of a delta re-score) is aligned against the
entire concatenated proteome.  This module makes that sweep a *pluggable
kernel* behind one small interface, so an implementation can be swapped
without touching :class:`~repro.ppi.database.PipeDatabase` or any
provider (both kernels here are plain numpy — the gain is in the shape
of the calls, not in a compiled backend):

* :class:`SimilarityKernel` — the contract: ``sweep`` produces the dense
  ``(num_windows, num_proteins)`` match-count matrix of one query;
  ``sweep_batch`` the same for a whole population; the ``*_sparse``
  forms, which the database calls, return CSR.
* :class:`ChunkedNumpyKernel` — the bit-exact float64 reference: the
  chunked per-sequence sweep that has been the one kernel since the seed.
* :class:`BatchedNumpyKernel` — the batched entry point: all queries of a
  generation (full candidates, or the dirty runs of every delta child of
  a round) are stacked into one query array and swept against the
  proteome tile by tile, each tile's score matrix being one contiguous
  row take from the database's ``score_rows``.  Row-for-row **bit-exact**
  with the reference: stacking only adds seam rows (later discarded) and
  every retained row accumulates exactly the per-sequence sweep's terms.

Kernels are stateless and hold no references to the database; they read
the read-only proteome arrays — ``score_rows`` included, which the
database derives once from its own matrix — off whatever database-like
object is passed in (a :class:`~repro.ppi.database.PipeDatabase`, built
in process or over a :mod:`repro.ppi.shm` segment), so one kernel
instance can serve many databases and processes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np
import scipy.sparse as sp

from repro.ppi.similarity import windowed_diagonal_sums
from repro.ppi.windows import num_windows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.substitution.matrix import SubstitutionMatrix

__all__ = [
    "ProteomeArrays",
    "SimilarityKernel",
    "ChunkedNumpyKernel",
    "BatchedNumpyKernel",
    "get_kernel",
    "register_kernel",
    "available_kernels",
    "DEFAULT_KERNEL",
]


class ProteomeArrays(Protocol):
    """What a kernel needs from a database: the broadcast-once arrays.

    Satisfied by :class:`~repro.ppi.database.PipeDatabase` and by the
    shared-memory database built from
    :class:`~repro.ppi.shm.SharedProteomeView` (whose arrays live in
    ``multiprocessing.shared_memory`` segments).
    """

    concatenated: np.ndarray
    offsets: np.ndarray
    valid_columns: np.ndarray
    #: ``int16_table[:, concatenated]``, or None when integer scoring
    #: would not be exact for this matrix and window size.
    score_rows: "np.ndarray | None"
    matrix: "SubstitutionMatrix"
    window_size: int
    threshold: float
    chunk_residues: int
    num_proteins: int


class SimilarityKernel(ABC):
    """One similarity-sweep implementation.

    Implementations must be bit-exact with :class:`ChunkedNumpyKernel`
    (the property tests enforce it): the GA's delta re-scoring, the
    checkpoint bit-exact-resume guarantee and the serial-vs-parallel
    equality tests all assume a sweep's result is a pure function of the
    query and the database, independent of which kernel produced it.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def sweep(self, db: ProteomeArrays, seq: np.ndarray) -> np.ndarray:
        """Dense ``(num_windows, num_proteins)`` match counts for one
        encoded query sequence."""

    def sweep_batch(
        self, db: ProteomeArrays, seqs: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Match counts for many queries; default loops over :meth:`sweep`."""
        return [self.sweep(db, np.asarray(s, dtype=np.uint8)) for s in seqs]

    def sweep_sparse(self, db: ProteomeArrays, seq: np.ndarray) -> sp.csr_matrix:
        """The sweep of one query as a CSR matrix.

        The database stores similarity structures sparsely (match counts
        are overwhelmingly zero on realistic thresholds), so kernels that
        can skip the dense ``(num_windows, num_proteins)`` intermediate
        override this; the default densifies via :meth:`sweep`.  Must be
        exactly ``sp.csr_matrix(self.sweep(db, seq))`` element-for-element.
        """
        return sp.csr_matrix(self.sweep(db, np.asarray(seq, dtype=np.uint8)))

    def sweep_batch_sparse(
        self, db: ProteomeArrays, seqs: Sequence[np.ndarray]
    ) -> list[sp.csr_matrix]:
        """CSR sweeps for many queries; default loops over
        :meth:`sweep_sparse`."""
        return [self.sweep_sparse(db, s) for s in seqs]


class ChunkedNumpyKernel(SimilarityKernel):
    """The reference sweep: one query, chunked over the proteome.

    Chunking bounds peak memory at roughly
    ``num_windows * chunk_residues`` float64 entries, mirroring the
    paper's concern with per-thread memory footprint on the BGQ.
    """

    name = "chunked"

    def sweep(self, db: ProteomeArrays, seq: np.ndarray) -> np.ndarray:
        seq = np.asarray(seq, dtype=np.uint8)
        n_win = num_windows(seq.size, db.window_size)
        total_cols = db.valid_columns.size  # one column per proteome residue
        w = db.window_size
        counts = np.zeros((n_win, db.num_proteins), dtype=np.int64)
        offsets = db.offsets
        start = 0
        while start < total_cols:
            stop = min(start + db.chunk_residues, total_cols)
            # Overlap by w - 1 residues so windows starting near the chunk
            # edge are complete; the padded tail guarantees availability.
            segment = db.concatenated[start : stop + w - 1]
            scores = windowed_diagonal_sums(db.matrix.pair_scores(seq, segment), w)
            mask = scores >= db.threshold
            mask[:, ~db.valid_columns[start:stop]] = False
            # Collapse window-start columns into per-protein counts with a
            # dense segment reduction (far cheaper than a sparse
            # intermediate): the chunk's columns belong to the protein run
            # [first_protein, ...] split at the offsets inside the chunk.
            first_protein = int(np.searchsorted(offsets, start, side="right")) - 1
            inner = offsets[(offsets > start) & (offsets < stop)]
            seg_starts = np.concatenate([[0], inner - start]).astype(np.intp)
            chunk_counts = np.add.reduceat(
                mask.astype(np.int64), seg_starts, axis=1
            )
            proteins_hit = np.arange(
                first_protein, first_protein + seg_starts.size
            )
            counts[:, proteins_hit] += chunk_counts
            start = stop
        return counts


def _diag_window_sums_int(
    scores: np.ndarray, w: int, n_win: int, cols: int
) -> np.ndarray:
    """Exact integer window sums along the diagonals of ``scores``.

    ``out[r, c] = sum(scores[r + t, c + t] for t in range(w))`` computed
    with pairwise doubling — ``O(log2 w)`` whole-matrix adds instead of
    the reference path's ``w - 1``.  Integer addition is associative, so
    the regrouping is *exact*; only the float64 reference must keep its
    sequential accumulation order.  Partial sums cover at most ``w``
    consecutive terms, so the caller's ``w * max|score| < int16 max``
    overflow guard bounds every intermediate too.
    """
    if w == 1:
        return scores[:n_win, :cols]
    # powers[k] holds D[r, c] = sum(scores[r+t, c+t] for t < 2**k).
    powers = [scores]
    k = 1
    while k * 2 <= w:
        d = powers[-1]
        powers.append(d[:-k, :-k] + d[k:, k:])
        k *= 2
    # Binary decomposition of w, highest power first: each piece extends
    # the covered prefix of the window by 2**bit diagonal steps.
    result = None
    covered = 0
    for bit in range(len(powers) - 1, -1, -1):
        if not (w - covered) >> bit:
            continue
        d = powers[bit]
        piece = d[covered : covered + n_win, covered : covered + cols]
        result = piece if result is None else result + piece
        covered += 1 << bit
    return result


class BatchedNumpyKernel(ChunkedNumpyKernel):
    """Batched sweep: a whole population's windows in one stacked pass.

    All queries of a batch are concatenated back to back into one array
    and swept against the proteome; each query's window rows are then
    cut back out, discarding the ``window_size - 1`` rows per seam that
    straddle two queries.  Every retained row accumulates exactly the
    terms of the per-sequence sweep, so the result is bit-exact with
    :class:`ChunkedNumpyKernel` — property-tested, not assumed.

    Three things make the stacked pass faster than a per-sequence loop:

    * **int16 scoring from contiguous score rows** — the database owns
      ``score_rows`` (``int16_table[:, concatenated]``, built once when
      the substitution matrix is integer-valued and ``w * max|s|`` fits
      int16), so a tile's score matrix is one row take of contiguous
      slices instead of a 2-D gather through the table, and window sums
      are exact in int16 at a quarter of the float64 memory traffic; the
      threshold compare uses ``ceil(threshold)``, identical for integer
      sums.  A database without score rows takes the float64 reference
      path.
    * **cache-sized column tiles** — the score matrix is swept in
      ``~stacked_rows x small_cols`` tiles (``fast_chunk_elements``
      bounds the tile) that stay inside the CPU caches, where a
      population-sized matrix would spill to (slow) main memory.
    * **hits, not masks** — matches are overwhelmingly rare, so each tile
      contributes only the flat indices of its hits; validity, the
      column → protein map and the per-query cut are applied to that
      handful after the tile loop.

    ``batch_residues`` caps the stacked length (``batch_elements``
    further bounds it by the proteome-chunk width), so batches too large
    for one pass are swept in greedy groups — grouping changes wall time
    only, never results.
    """

    name = "batched"

    def __init__(
        self,
        *,
        batch_residues: int = 16_384,
        batch_elements: int = 33_554_432,
        fast_chunk_elements: int = 524_288,
    ) -> None:
        for name, value in (
            ("batch_residues", batch_residues),
            ("batch_elements", batch_elements),
            ("fast_chunk_elements", fast_chunk_elements),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.batch_residues = int(batch_residues)
        self.batch_elements = int(batch_elements)
        self.fast_chunk_elements = int(fast_chunk_elements)

    def sweep(self, db: ProteomeArrays, seq: np.ndarray) -> np.ndarray:
        if db.score_rows is None:
            return super().sweep(db, seq)
        return self.sweep_sparse(db, seq).toarray()

    def sweep_batch(
        self, db: ProteomeArrays, seqs: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        # The dense API is kept for the kernel contract (and the
        # bit-exactness property tests); the hot path is the sparse one.
        return [counts.toarray() for counts in self.sweep_batch_sparse(db, seqs)]

    def sweep_sparse(self, db: ProteomeArrays, seq: np.ndarray) -> sp.csr_matrix:
        if db.score_rows is None:
            return super().sweep_sparse(db, seq)
        return self._sweep_stacked(db, [np.asarray(seq, dtype=np.uint8)])[0]

    def sweep_batch_sparse(
        self, db: ProteomeArrays, seqs: Sequence[np.ndarray]
    ) -> list[sp.csr_matrix]:
        arrays = [np.asarray(s, dtype=np.uint8) for s in seqs]
        if db.score_rows is None:
            return super().sweep_batch_sparse(db, arrays)
        # Stacked residues allowed per pass given the chunk width.
        chunk_cols = max(1, min(db.chunk_residues, db.valid_columns.size))
        limit = max(1, min(self.batch_residues, self.batch_elements // chunk_cols))
        out: list[sp.csr_matrix] = []
        group: list[np.ndarray] = []
        group_len = 0
        for arr in arrays:
            if group and group_len + arr.size > limit:
                out.extend(self._sweep_stacked(db, group))
                group, group_len = [], 0
            group.append(arr)
            group_len += arr.size
        if group:
            out.extend(self._sweep_stacked(db, group))
        return out

    def _sweep_stacked(
        self, db: ProteomeArrays, arrays: list[np.ndarray]
    ) -> list[sp.csr_matrix]:
        """One stacked int16 pass over ``arrays``, straight to per-query CSR.

        Queries are concatenated back to back — no separators needed: a
        window row straddling two queries is simply never retained (query
        ``i``'s rows are ``starts[i] .. starts[i] + n_win_i - 1``, all
        fully inside query ``i``), so the straddle rows' garbage hits are
        found and dropped while every retained row sees exactly the
        per-sequence sweep's terms.  Each hit is one similar (query
        window, proteome window) pair; counting hits per (row, protein)
        gives the same int64 counts as ``sp.csr_matrix(dense counts)``,
        element for element, without the dense matrix.
        """
        w = db.window_size
        num_proteins = db.num_proteins
        lengths = np.array([a.size for a in arrays], dtype=np.intp)
        starts = np.cumsum(lengths) - lengths
        n_wins = np.maximum(lengths - w + 1, 0)
        stacked = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        n_rows = num_windows(stacked.size, w)
        hit_rows: list[np.ndarray] = []
        hit_cols: list[np.ndarray] = []
        if n_rows:
            sidx = stacked.astype(np.intp)
            # Integer window sums reach the same >= verdict at ceil(threshold).
            ithr = int(np.ceil(db.threshold))
            total_cols = db.valid_columns.size
            # Tile columns so the int16 score matrix stays cache-resident.
            chunk = max(64, min(db.chunk_residues, self.fast_chunk_elements // n_rows))
            for start in range(0, total_cols, chunk):
                cols = min(chunk, total_cols - start)
                # Overlap by w - 1 residues so windows starting near the
                # tile edge are complete; the padded tail guarantees it.
                scores = db.score_rows[:, start : start + cols + w - 1].take(
                    sidx, axis=0
                )
                sums = _diag_window_sums_int(scores, w, n_rows, cols)
                hits = np.flatnonzero(sums >= ithr)
                if hits.size:
                    r, c = np.divmod(hits, cols)
                    hit_rows.append(r)
                    hit_cols.append(c + start)
        if not hit_rows:
            return [
                sp.csr_matrix((int(n), num_proteins), dtype=np.int64) for n in n_wins
            ]
        rows = np.concatenate(hit_rows)
        cols = np.concatenate(hit_cols)
        # Drop windows that run off their protein and seam rows, then map
        # each surviving hit to (stacked row, protein).
        query = np.searchsorted(starts, rows, side="right") - 1
        keep = db.valid_columns[cols] & (rows - starts[query] < n_wins[query])
        rows = rows[keep]
        proteins = np.searchsorted(db.offsets, cols[keep], side="right") - 1
        cells, counts = np.unique(rows * num_proteins + proteins, return_counts=True)
        cell_rows, indices = np.divmod(cells, num_proteins)
        indices = indices.astype(np.int32)
        counts = counts.astype(np.int64)
        # indptr over all stacked rows; each query's CSR is a cut of it.
        indptr = np.searchsorted(cell_rows, np.arange(n_rows + 1)).astype(np.int32)
        out = []
        for first, n in zip(starts.tolist(), n_wins.tolist()):
            if n == 0:  # shorter than the window: no rows of its own
                out.append(sp.csr_matrix((0, num_proteins), dtype=np.int64))
                continue
            lo, hi = indptr[first], indptr[first + n]
            out.append(
                sp.csr_matrix(
                    (counts[lo:hi], indices[lo:hi], indptr[first : first + n + 1] - lo),
                    shape=(n, num_proteins),
                )
            )
        return out


DEFAULT_KERNEL = BatchedNumpyKernel.name

_REGISTRY: dict[str, type[SimilarityKernel]] = {
    ChunkedNumpyKernel.name: ChunkedNumpyKernel,
    BatchedNumpyKernel.name: BatchedNumpyKernel,
}


def register_kernel(cls: type[SimilarityKernel]) -> type[SimilarityKernel]:
    """Register a kernel class under its ``name`` (also usable as a
    decorator for out-of-tree backends)."""
    name = getattr(cls, "name", None)
    if not name or name == SimilarityKernel.name:
        raise ValueError(f"{cls.__name__} must define a concrete `name`")
    _REGISTRY[name] = cls
    return cls


def available_kernels() -> list[str]:
    """Registered kernel names, reference first."""
    return sorted(_REGISTRY, key=lambda n: (n != ChunkedNumpyKernel.name, n))


def get_kernel(kernel: "SimilarityKernel | str | None" = None) -> SimilarityKernel:
    """Resolve a kernel argument: an instance passes through, a name is
    looked up in the registry, ``None`` yields the default
    (:class:`BatchedNumpyKernel` — bit-exact with the reference)."""
    if kernel is None:
        kernel = DEFAULT_KERNEL
    if isinstance(kernel, SimilarityKernel):
        return kernel
    try:
        return _REGISTRY[kernel]()
    except KeyError:
        raise ValueError(
            f"unknown similarity kernel {kernel!r}; "
            f"available: {', '.join(available_kernels())}"
        ) from None
