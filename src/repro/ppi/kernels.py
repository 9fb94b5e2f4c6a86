"""Pluggable PIPE similarity-sweep kernels.

The window sweep — "build the specified portion of sequence_similarity"
(Algorithm 2) — is the hot loop of the whole reproduction: every candidate
(or every dirty window row of a delta re-score) is aligned against the
entire concatenated proteome.  This module makes that sweep a *pluggable
kernel* behind one small interface, so an implementation can be swapped
without touching :class:`~repro.ppi.database.PipeDatabase` or any
provider:

* :class:`SimilarityKernel` — the contract: ``sweep`` produces the dense
  ``(num_windows, num_proteins)`` match-count matrix of one query;
  ``sweep_batch`` the same for a whole population; the ``*_sparse``
  forms, which the database calls, return :class:`CSRRows` — the raw
  CSR arrays, with no scipy object built on the scoring path.
* :class:`ChunkedNumpyKernel` — the bit-exact float64 reference: the
  chunked per-sequence sweep that has been the one kernel since the seed.
* :class:`BatchedNumpyKernel` — the batched entry point: all queries of a
  generation (full candidates, or the dirty runs of every delta child of
  a round) are stacked into one query array and swept against the
  proteome's ``score_rows``.  Row-for-row **bit-exact** with the
  reference: stacking only adds seam rows (later discarded) and every
  retained row accumulates exactly the per-sequence sweep's terms.  Its
  tile loop has two bodies with the same int16 semantics: one compiled C
  loop (``_sweep.c``, which carries each window sum down its diagonal
  from the one before, two loads per vector instead of ``w``; built on
  first use and loaded with :mod:`ctypes` — :func:`native_sweep` says
  whether this process has it and why not) and the numpy tile body —
  cache-sized column tiles, each one contiguous row take of
  ``score_rows`` — which runs wherever the C loop cannot and is its
  reference.  Which one runs is decided by capability, never by an
  option.

Kernels hold no references to the database; they read the read-only
proteome arrays — ``score_rows`` included, which the database derives
once from its own matrix — off whatever database-like object is passed
in (a :class:`~repro.ppi.database.PipeDatabase`, built in process or over
a :mod:`repro.ppi.shm` segment), so one kernel instance can serve many
databases and processes.  The only state a sweep leaves behind is
scratch memory: each thread owns one :class:`ScratchArena`
(:func:`scratch_arena`) that the numpy tile body's tiles — and the result
blocks of :meth:`~repro.ppi.pipe.PipeEngine.score_similarities`, the
numpy body's fused groups and the compiled pass's per-candidate buffers
— carve their temporaries from instead of allocating them, so a process
scoring slice after slice stops handing those pages back to the kernel
and faulting them in again.  The arena is bounded: it keeps what one
tile of at most ``FAST_CHUNK_ELEMENTS`` cells or one result block of at
most :data:`~repro.ppi.pipe.GROUP_CELLS` cells needs, and a larger
request gets a one-off buffer.  Nothing a sweep returns lives in it.
"""

from __future__ import annotations

import math
import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, NamedTuple, Protocol, Sequence

import numpy as np
import scipy.sparse as sp

from repro.ppi._native import NativeSweep, native_sweep
from repro.ppi.similarity import windowed_diagonal_sums
from repro.ppi.windows import num_windows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.substitution.matrix import SubstitutionMatrix

__all__ = [
    "CSRRows",
    "ProteomeArrays",
    "SimilarityKernel",
    "ChunkedNumpyKernel",
    "BatchedNumpyKernel",
    "get_kernel",
    "register_kernel",
    "available_kernels",
    "DEFAULT_KERNEL",
    "ScratchArena",
    "scratch_arena",
    "NativeSweep",
    "native_sweep",
]


class CSRRows(NamedTuple):
    """A ``(num_windows, num_proteins)`` match-count matrix as raw CSR
    arrays: what a sparse sweep returns and a similarity structure holds.

    Canonical CSR — ``indptr[0] == 0``, ``indptr[-1] == indices.size ==
    data.size``, column indices sorted within each row, no explicit
    zeros — so :meth:`tocsr` is exactly ``sp.csr_matrix(dense counts)``.
    Building a scipy matrix costs ~25 µs of checks per call; the scoring
    path reads these arrays directly and only the reference, tests and
    the numpy result body ask for the scipy view.
    """

    #: Row pointers, int32, ``num_windows + 1`` entries.
    indptr: np.ndarray
    #: Protein index of each stored count, int32.
    indices: np.ndarray
    #: The counts, int64.
    data: np.ndarray
    num_windows: int
    num_proteins: int

    def tocsr(self) -> sp.csr_matrix:
        """The same matrix as a scipy CSR sharing these arrays."""
        return sp.csr_matrix(
            (self.data, self.indices, self.indptr),
            shape=(self.num_windows, self.num_proteins),
        )

    @classmethod
    def empty(cls, num_windows: int, num_proteins: int) -> "CSRRows":
        """``num_windows`` rows without a single match."""
        return cls(
            np.zeros(num_windows + 1, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int64),
            num_windows,
            num_proteins,
        )

    @classmethod
    def from_dense(cls, counts: np.ndarray) -> "CSRRows":
        """The rows of a dense count matrix (row-major nonzeros are
        exactly CSR order)."""
        num_windows, num_proteins = counts.shape
        indptr = np.zeros(num_windows + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(counts, axis=1), out=indptr[1:])
        rows, cols = np.nonzero(counts)
        return cls(
            indptr,
            cols.astype(np.int32),
            counts[rows, cols].astype(np.int64),
            num_windows,
            num_proteins,
        )


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
    num_proteins: int


#: Every carve starts on a cache-line boundary.
_ALIGN = 64


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


class _Scratch:
    """A bump allocator over one buffer: the carves of one tile or group."""

    __slots__ = ("buffer", "used")

    def __init__(self, buffer: np.ndarray) -> None:
        self.buffer = buffer
        self.used = 0

    def reset(self) -> None:
        """Forget every carve: the next tile reuses the same bytes."""
        self.used = 0

    def carve(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised C-contiguous ``shape`` array from the buffer."""
        dtype = np.dtype(dtype)
        start = self.used
        stop = start + math.prod(shape) * dtype.itemsize
        if stop > self.buffer.size:
            raise RuntimeError(
                f"scratch overrun: {stop} bytes carved from a "
                f"{self.buffer.size}-byte reservation"
            )
        self.used = _aligned(stop)
        return self.buffer[start:stop].view(dtype).reshape(shape)


class ScratchArena:
    """One thread's reusable scratch memory for scoring temporaries.

    A tile of the batched sweep or a fused result group computes its
    byte count from the shapes it is about to fill (:meth:`nbytes`),
    calls :meth:`reserve` once — growing the retained buffer, if it must,
    before anything is carved, so two generations of it are never alive
    at once — and carves its arrays from the returned bump allocator.
    A request the caller marks as out of bound (``retain=False``) gets a
    one-off buffer that dies with the caller, so the arena never holds
    more than the largest in-bound tile or group needed.

    Carved arrays are temporaries of the tile or group that carved them:
    the next reservation on the same thread hands out the same bytes
    again, so nothing returned or cached may be carved.
    """

    __slots__ = ("buffer",)

    def __init__(self) -> None:
        #: The retained buffer: every in-bound carve is a view of it, and
        #: its ``nbytes`` is what the arena keeps between reservations.
        self.buffer = np.empty(0, dtype=np.uint8)

    @staticmethod
    def nbytes(*arrays: tuple[tuple[int, ...], "np.dtype | type"]) -> int:
        """Bytes a reservation needs to carve ``(shape, dtype)`` arrays."""
        return sum(
            _aligned(math.prod(shape) * np.dtype(dtype).itemsize)
            for shape, dtype in arrays
        )

    def reserve(self, nbytes: int, *, retain: bool = True) -> _Scratch:
        """A bump allocator over at least ``nbytes``, every earlier carve
        of this thread forgotten; ``retain=False`` for a one-off."""
        if not retain:
            return _Scratch(np.empty(nbytes, dtype=np.uint8))
        if self.buffer.size < nbytes:
            # Drop the old buffer before allocating its successor.
            self.buffer = np.empty(0, dtype=np.uint8)
            self.buffer = np.empty(nbytes, dtype=np.uint8)
        return _Scratch(self.buffer)


_THREAD = threading.local()


def scratch_arena() -> ScratchArena:
    """The calling thread's :class:`ScratchArena`, created on first use."""
    arena = getattr(_THREAD, "arena", None)
    if arena is None:
        arena = _THREAD.arena = ScratchArena()
    return arena


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

    def sweep_sparse(self, db: ProteomeArrays, seq: np.ndarray) -> CSRRows:
        """The sweep of one query as :class:`CSRRows`.

        The database stores similarity structures sparsely (match counts
        are overwhelmingly zero on realistic thresholds), so kernels that
        can skip the dense ``(num_windows, num_proteins)`` intermediate
        override this; the default densifies via :meth:`sweep`.  Its
        :meth:`~CSRRows.tocsr` must be exactly
        ``sp.csr_matrix(self.sweep(db, seq))`` element-for-element, with
        int32 ``indptr``/``indices`` and int64 ``data``.
        """
        return CSRRows.from_dense(self.sweep(db, np.asarray(seq, dtype=np.uint8)))

    def sweep_batch_sparse(
        self, db: ProteomeArrays, seqs: Sequence[np.ndarray]
    ) -> list[CSRRows]:
        """CSR sweeps for many queries; default loops over
        :meth:`sweep_sparse`."""
        return [self.sweep_sparse(db, s) for s in seqs]


class ChunkedNumpyKernel(SimilarityKernel):
    """The reference sweep: one query, chunked over the proteome.

    Chunking bounds peak memory at roughly
    ``num_windows * CHUNK_RESIDUES`` float64 entries, mirroring the
    paper's concern with per-thread memory footprint on the BGQ.
    """

    name = "chunked"
    #: Proteome residues per column chunk of a sweep.
    CHUNK_RESIDUES = 250_000

    def sweep(self, db: ProteomeArrays, seq: np.ndarray) -> np.ndarray:
        seq = np.asarray(seq, dtype=np.uint8)
        n_win = num_windows(seq.size, db.window_size)
        total_cols = db.valid_columns.size  # one column per proteome residue
        w = db.window_size
        counts = np.zeros((n_win, db.num_proteins), dtype=np.int64)
        offsets = db.offsets
        start = 0
        while start < total_cols:
            stop = min(start + self.CHUNK_RESIDUES, total_cols)
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
    scores: np.ndarray, w: int, n_win: int, cols: int, scratch: _Scratch
) -> np.ndarray:
    """Exact integer window sums along the diagonals of ``scores``.

    ``out[r, c] = sum(scores[r + t, c + t] for t in range(w))`` computed
    with pairwise doubling — ``O(log2 w)`` whole-matrix adds instead of
    the reference path's ``w - 1``.  Integer addition is associative, so
    the regrouping is *exact*; only the float64 reference must keep its
    sequential accumulation order.  Partial sums cover at most ``w``
    consecutive terms, so the caller's ``w * max|score| < int16 max``
    overflow guard bounds every intermediate too.

    The ``floor(log2 w)`` partial sums are carved from ``scratch``, each
    at most ``scores.shape``; the result is a view of them (or of
    ``scores`` when ``w`` is 1), valid until the scratch is reset.
    """
    if w == 1:
        return scores[:n_win, :cols]
    # powers[k] holds D[r, c] = sum(scores[r+t, c+t] for t < 2**k).
    powers = [scores]
    k = 1
    while k * 2 <= w:
        d = powers[-1]
        rows, width = d.shape
        out = scratch.carve((rows - k, width - k), d.dtype)
        powers.append(np.add(d[:-k, :-k], d[k:, k:], out=out))
        k *= 2
    # Binary decomposition of w, highest power first: each piece extends
    # the covered prefix of the window by 2**bit diagonal steps.  The
    # first piece is a view of the top partial sum, dead after this, so
    # the later pieces accumulate into it.
    result = None
    covered = 0
    for bit in range(len(powers) - 1, -1, -1):
        if not (w - covered) >> bit:
            continue
        d = powers[bit]
        piece = d[covered : covered + n_win, covered : covered + cols]
        result = piece if result is None else np.add(result, piece, out=result)
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

    What makes the stacked pass faster than a per-sequence loop:

    * **int16 scoring from contiguous score rows** — the database owns
      ``score_rows`` (``int16_table[:, concatenated]``, built once when
      the substitution matrix is integer-valued and ``w * max|s|`` fits
      int16), so window sums are exact in int16 at a quarter of the
      float64 memory traffic; the threshold compare uses
      ``ceil(threshold)``, identical for integer sums.  A database
      without score rows takes the float64 reference path.
    * **one compiled loop** — where this process loaded it
      (:func:`native_sweep`), the whole tile loop is one C call.  It
      walks the window sums down their diagonals in vector registers:
      a band of columns builds its sums once per block of query rows
      with ``w`` loads per vector, then each next row's sums are the
      last row's plus the entering and minus the leaving score, two
      loads per vector; the few edge cells no band reaches are summed
      per row.  Each row's sums are compared against the threshold and
      only the hits are written, into a buffer it is handed, so a sweep
      reads score-row slices from L1 and writes nothing else.  It drops
      the GIL.
    * **hits, not masks** — matches are overwhelmingly rare, so the tile
      loop yields only the hits; validity, the column → protein map and
      the per-query cut are applied to that handful afterwards.
    * **the numpy tile body** (:meth:`_numpy_tile_hits`), where the C loop
      is absent or cannot read the score rows: cache-sized column tiles
      (``FAST_CHUNK_ELEMENTS`` cells) whose score matrix is one row take
      of contiguous slices, ``O(log2 w)`` doubling window sums and a hit
      mask, all carved from the thread's :class:`ScratchArena` (reserved
      once per pass for its widest, first tile; a pass whose tiles
      exceed ``FAST_CHUNK_ELEMENTS`` cells reserves a one-off buffer).

    ``BATCH_RESIDUES`` caps the stacked length (``BATCH_ELEMENTS``
    further bounds it by the proteome-chunk width), so batches too large
    for one pass are swept in greedy groups — grouping changes wall time
    only, never results.
    """

    name = "batched"
    #: Stacked query residues per pass.
    BATCH_RESIDUES = 16_384
    #: Stacked residues x proteome-chunk columns per pass.
    BATCH_ELEMENTS = 33_554_432
    #: Cells per column tile of the numpy tile body.
    FAST_CHUNK_ELEMENTS = 524_288

    def sweep(self, db: ProteomeArrays, seq: np.ndarray) -> np.ndarray:
        if db.score_rows is None:
            return super().sweep(db, seq)
        return self.sweep_sparse(db, seq).tocsr().toarray()

    def sweep_batch(
        self, db: ProteomeArrays, seqs: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        # The dense API is kept for the kernel contract (and the
        # bit-exactness property tests); the hot path is the sparse one.
        return [
            rows.tocsr().toarray() for rows in self.sweep_batch_sparse(db, seqs)
        ]

    def sweep_sparse(self, db: ProteomeArrays, seq: np.ndarray) -> CSRRows:
        if db.score_rows is None:
            return super().sweep_sparse(db, seq)
        return self._sweep_stacked(db, [np.asarray(seq, dtype=np.uint8)])[0]

    def sweep_batch_sparse(
        self, db: ProteomeArrays, seqs: Sequence[np.ndarray]
    ) -> list[CSRRows]:
        arrays = [np.asarray(s, dtype=np.uint8) for s in seqs]
        if db.score_rows is None:
            return super().sweep_batch_sparse(db, arrays)
        # Stacked residues allowed per pass given the chunk width.
        chunk_cols = max(1, min(self.CHUNK_RESIDUES, db.valid_columns.size))
        limit = max(1, min(self.BATCH_RESIDUES, self.BATCH_ELEMENTS // chunk_cols))
        out: list[CSRRows] = []
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
    ) -> list[CSRRows]:
        """One stacked int16 pass over ``arrays``, straight to per-query
        :class:`CSRRows`.

        Queries are concatenated back to back — no separators needed: a
        window row straddling two queries is simply never retained (query
        ``i``'s rows are ``starts[i] .. starts[i] + n_win_i - 1``, all
        fully inside query ``i``), so the straddle rows' garbage hits are
        found and dropped while every retained row sees exactly the
        per-sequence sweep's terms.  Each hit is one similar (query
        window, proteome window) pair; counting hits per (row, protein)
        gives the same int64 counts as ``sp.csr_matrix(dense counts)``,
        element for element, without the dense matrix.  Each query's rows
        are views of the pass's ``indices``/``data`` and its own rebased
        ``indptr``, cut with no scipy constructor.
        """
        w = db.window_size
        num_proteins = db.num_proteins
        lengths = np.array([a.size for a in arrays], dtype=np.intp)
        starts = np.cumsum(lengths) - lengths
        n_wins = np.maximum(lengths - w + 1, 0)
        stacked = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        n_rows = num_windows(stacked.size, w)
        rows = cols = np.empty(0, dtype=np.intp)
        if n_rows:
            # Integer window sums reach the same >= verdict at ceil(threshold).
            ithr = int(np.ceil(db.threshold))
            rows, cols = self._tile_hits(db, stacked, n_rows, ithr)
        if not rows.size:
            return [CSRRows.empty(int(n), num_proteins) for n in n_wins]
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
        # indptr over all stacked rows; each query's rows are a cut of it.
        indptr = np.searchsorted(cell_rows, np.arange(n_rows + 1)).astype(np.int32)
        out = []
        for first, n in zip(starts.tolist(), n_wins.tolist()):
            if n == 0:  # shorter than the window: no rows of its own
                out.append(CSRRows.empty(0, num_proteins))
                continue
            ptr = indptr[first : first + n + 1]
            lo, hi = ptr[0], ptr[-1]
            out.append(
                CSRRows(ptr - lo, indices[lo:hi], counts[lo:hi], n, num_proteins)
            )
        return out

    def _tile_hits(
        self, db: ProteomeArrays, stacked: np.ndarray, n_rows: int, threshold: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of every stacked cell whose exact int16 window
        sum reaches ``threshold``, in no particular order: the compiled
        loop when this process loaded it (:func:`native_sweep`) and it
        accepts the arrays, else :meth:`_numpy_tile_hits`."""
        total_cols = db.valid_columns.size
        native = native_sweep()
        if native.accepts(db.score_rows, stacked, total_cols, db.window_size):
            flat = native.hits(
                db.score_rows, stacked, n_rows, db.window_size, threshold, total_cols
            )
            return np.divmod(flat, total_cols)
        return self._numpy_tile_hits(db, stacked, n_rows, threshold)

    def _numpy_tile_hits(
        self, db: ProteomeArrays, stacked: np.ndarray, n_rows: int, threshold: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The numpy tile body of :meth:`_tile_hits`: the reference for the
        compiled loop's int16 semantics and the path of hosts without a C
        compiler.  Column tiles of at most ``FAST_CHUNK_ELEMENTS`` cells,
        each an int16 score matrix, its doubling window sums and a hit
        mask carved from the thread's :class:`ScratchArena`."""
        w = db.window_size
        sidx = stacked.astype(np.intp)
        total_cols = db.valid_columns.size
        # Tile columns so the int16 score matrix stays cache-resident.
        chunk = max(64, min(self.CHUNK_RESIDUES, self.FAST_CHUNK_ELEMENTS // n_rows))
        # The first tile is the widest: its score matrix, floor(log2 w)
        # partial sums no larger than it, and its hit mask.
        width = min(chunk, total_cols) + w - 1
        scratch = scratch_arena().reserve(
            ScratchArena.nbytes(
                *[((stacked.size, width), np.int16)] * w.bit_length(),
                ((n_rows, width), np.bool_),
            ),
            retain=n_rows * min(chunk, total_cols) <= self.FAST_CHUNK_ELEMENTS,
        )
        hit_rows = [np.empty(0, dtype=np.intp)]
        hit_cols = [np.empty(0, dtype=np.intp)]
        for start in range(0, total_cols, chunk):
            cols = min(chunk, total_cols - start)
            scratch.reset()
            # Overlap by w - 1 residues so windows starting near the
            # tile edge are complete; the padded tail guarantees it.
            # Every code indexes a row, so "clip" never clips; it
            # spares "raise" mode's internal buffering of ``out``.
            scores = db.score_rows[:, start : start + cols + w - 1].take(
                sidx,
                axis=0,
                out=scratch.carve((stacked.size, cols + w - 1), np.int16),
                mode="clip",
            )
            sums = _diag_window_sums_int(scores, w, n_rows, cols, scratch)
            mask = np.greater_equal(
                sums, threshold, out=scratch.carve((n_rows, cols), np.bool_)
            )
            hits = np.flatnonzero(mask)
            if hits.size:
                r, c = np.divmod(hits, cols)
                hit_rows.append(r)
                hit_cols.append(c + start)
        return np.concatenate(hit_rows), np.concatenate(hit_cols)



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
