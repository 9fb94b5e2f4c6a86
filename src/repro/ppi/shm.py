"""Zero-copy shared-memory proteome for the parallel runtime.

The paper's master "broadcasts all loaded data to worker processes" once.
Pickling the whole engine into every worker would make each worker pay
the full database memory again; this module is how the worker pool
broadcasts instead:

* :class:`SharedProteomeView` — master side: packs every read-only array
  of a :class:`~repro.ppi.database.PipeDatabase` (``concatenated``,
  ``offsets``, ``valid_columns``, ``score_rows`` when the database has
  them, the adjacency CSR buffers, and the precomputed known-protein
  similarity CSRs) plus each warmed problem's PIPE evidence (the
  ``indptr``/``indices``/``data``/``bounds`` arrays of
  :meth:`~repro.ppi.pipe.PipeEngine.evidence_arrays`) into **one**
  ``multiprocessing.shared_memory`` segment, so workers map the kernel's
  gather source and the result block's right-hand factor instead of
  rebuilding them.
* :class:`SharedProteomeHandle` — the lightweight picklable descriptor a
  worker receives instead of the engine: the segment name plus array
  specs and small metadata (protein names, the substitution matrix,
  scalar config).  Kilobytes on the wire regardless of proteome size.
* :meth:`SharedProteomeView.attach` / :meth:`~SharedProteomeView.build_engine`
  — worker side: map the segment and rebuild a fully functional
  :class:`~repro.ppi.database.PipeDatabase` whose arrays are zero-copy
  views into shared physical memory, and an engine over it whose
  evidence LRU already holds every warmed problem — a pool worker is
  ready to score as soon as it has mapped the segment.

Lifecycle
---------
Segments are refcounted **per process** in a module registry: every
:meth:`share`/:meth:`attach` registers the view, every :meth:`close`
deregisters it, and the *creating* process unlinks the segment when its
last view closes (``unlink-on-last-close``).  Workers only ever map and
unmap — a SIGKILLed worker therefore cannot leak a segment (the master
still unlinks it; the provider's close escalation guarantees ``close()``
runs even when workers hang), and a crashed master is covered by the
stdlib ``resource_tracker``.  Attaching processes deregister from the
resource tracker so the segment is not unlinked twice.

Telemetry: ``shm.segments`` / ``shm.bytes`` gauges (live segments created
by this process), ``shm.attaches`` and ``shm.unlinks`` counters.
"""

from __future__ import annotations

import os
import threading
import uuid
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.sequences.encoding import decode
from repro.sequences.protein import Protein
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ppi.database import PipeDatabase
    from repro.ppi.pipe import PipeConfig, PipeEngine
    from repro.substitution.matrix import SubstitutionMatrix

#: A problem's evidence as :meth:`~repro.ppi.pipe.PipeEngine.evidence_arrays`
#: returns it: ``(indptr, indices, data, bounds)``.
EvidenceArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
_EVIDENCE_PARTS = ("indptr", "indices", "data", "bounds")

__all__ = ["ArraySpec", "SharedProteomeHandle", "SharedProteomeView"]

_ALIGN = 16  # byte alignment of each packed array


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside the shared segment."""

    offset: int
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        n = int(np.prod(self.shape)) if self.shape else 1
        return n * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SharedProteomeHandle:
    """Picklable descriptor of a shared proteome segment.

    Everything a worker needs to rebuild the database: the segment name,
    where each array lives inside it, and the small metadata that is
    cheaper to pickle than to share (protein names, the substitution
    matrix — a few kilobytes — and the scalar PIPE parameters).
    ``evidence`` names the problems whose evidence rides along, the
    ``i``-th under the keys ``evidence.<i>.*``.
    """

    token: str
    creator_pid: int
    nbytes: int
    arrays: dict[str, ArraySpec]
    adjacency_shape: tuple[int, int]
    similarities: dict[str, dict[str, object]]
    evidence: tuple[tuple[str, ...], ...]
    protein_names: tuple[str, ...]
    matrix: "SubstitutionMatrix"
    window_size: int
    threshold: float
    kernel_name: str


# Per-process registry of open views by token; the creator's entry owns
# the unlink.  (Threading discipline: providers may be closed from a
# supervisor thread.)
_LOCK = threading.Lock()
_OPEN_VIEWS: dict[str, int] = {}
_OWNED_BYTES: dict[str, int] = {}


def _csr_parts(matrix: sp.csr_matrix) -> dict[str, np.ndarray]:
    csr = matrix.tocsr()
    return {"data": csr.data, "indices": csr.indices, "indptr": csr.indptr}


def _attach_untracked(token: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with the resource tracker.

    Python < 3.13 has no ``track=False``; registration is suppressed by
    patching ``resource_tracker.register`` for the duration of the attach
    (under the module lock — attaches are rare, once per worker).
    """
    with _LOCK:
        original = resource_tracker.register

        def _skip(name: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - defensive
                original(name, rtype)

        resource_tracker.register = _skip
        try:
            return shared_memory.SharedMemory(name=token)
        finally:
            resource_tracker.register = original


class SharedProteomeView:
    """One process's mapping of a shared proteome segment.

    Create with :meth:`share` (master; owns the segment) or
    :meth:`attach` (worker; maps an existing segment).  Always pair with
    :meth:`close`; the creating process unlinks the segment when its last
    open view for the token closes.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: SharedProteomeHandle,
        *,
        owner: bool,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        self._shm = shm
        self.handle = handle
        self.owner = bool(owner)
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._closed = False

    # -- construction (master) ----------------------------------------------

    @classmethod
    def share(
        cls,
        database: "PipeDatabase",
        *,
        similarity_names: list[str] | None = None,
        evidence: dict[tuple[str, ...], EvidenceArrays] | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> "SharedProteomeView":
        """Pack a database's read-only arrays into one shared segment.

        ``similarity_names`` selects which known-protein similarity CSRs
        ride along (typically the target and non-targets — the paper's
        offline preprocessing); they are computed on demand if not yet
        cached.  ``evidence`` maps a problem's protein names (target
        first) to its evidence arrays, built by the master's engine
        (:meth:`~repro.ppi.pipe.PipeEngine.evidence_arrays`); they ride
        along too.
        """
        arrays: dict[str, np.ndarray] = {
            "concatenated": np.ascontiguousarray(database.concatenated),
            "offsets": np.ascontiguousarray(database.offsets),
            "valid_columns": np.ascontiguousarray(database.valid_columns),
        }
        if database.score_rows is not None:
            arrays["score_rows"] = np.ascontiguousarray(database.score_rows)
        adjacency = database.adjacency.tocsr()
        for part, arr in _csr_parts(adjacency).items():
            arrays[f"adjacency.{part}"] = np.ascontiguousarray(arr)

        similarities: dict[str, dict[str, object]] = {}
        for name in similarity_names or ():
            rows = database.protein_similarity(name).rows
            for part in ("data", "indices", "indptr"):
                arrays[f"sim.{name}.{part}"] = np.ascontiguousarray(
                    getattr(rows, part)
                )
            similarities[name] = {"shape": (rows.num_windows, rows.num_proteins)}
        problems = tuple(evidence or ())
        for i, names in enumerate(problems):
            for part, arr in zip(_EVIDENCE_PARTS, evidence[names]):
                arrays[f"evidence.{i}.{part}"] = np.ascontiguousarray(arr)

        specs: dict[str, ArraySpec] = {}
        cursor = 0
        for key, arr in arrays.items():
            cursor = (cursor + _ALIGN - 1) // _ALIGN * _ALIGN
            specs[key] = ArraySpec(cursor, tuple(arr.shape), arr.dtype.str)
            cursor += arr.nbytes
        total = max(1, cursor)

        token = f"repro-proteome-{uuid.uuid4().hex[:12]}"
        shm = shared_memory.SharedMemory(name=token, create=True, size=total)
        for key, arr in arrays.items():
            spec = specs[key]
            dest = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=spec.offset
            )
            dest[...] = arr

        handle = SharedProteomeHandle(
            token=token,
            creator_pid=os.getpid(),
            nbytes=total,
            arrays=specs,
            adjacency_shape=tuple(adjacency.shape),
            similarities=similarities,
            evidence=problems,
            protein_names=tuple(database.graph.names),
            matrix=database.matrix,
            window_size=database.window_size,
            threshold=database.threshold,
            kernel_name=database.kernel.name,
        )
        view = cls(shm, handle, owner=True, telemetry=telemetry)
        with _LOCK:
            _OPEN_VIEWS[token] = _OPEN_VIEWS.get(token, 0) + 1
            _OWNED_BYTES[token] = total
        view._report_gauges()
        return view

    # -- construction (worker) ----------------------------------------------

    @classmethod
    def attach(
        cls,
        handle: SharedProteomeHandle,
        *,
        telemetry: MetricsRegistry | None = None,
    ) -> "SharedProteomeView":
        """Map an existing segment described by ``handle``.

        Safe at any point in the segment's lifetime — workers respawned
        after a death attach long after the initial broadcast
        (*late attach*); an attach after the creator unlinked raises a
        diagnostic ``FileNotFoundError`` naming the token.

        In a *different* process the mapping is kept out of the stdlib
        resource tracker (Python < 3.13 tracks attaches too): unlinking
        is the creating process's job (unlink-on-last-close).  Forked
        workers share the creator's tracker process, so an attach must
        not register — or unregister — the creator's entry; attaching
        untracked sidesteps both double-unlink warnings and clobbering
        the creator's registration.
        """
        if os.getpid() != handle.creator_pid:
            try:
                shm = _attach_untracked(handle.token)
            except FileNotFoundError:
                raise FileNotFoundError(
                    f"shared proteome segment {handle.token!r} is gone — "
                    "late attach after the creating provider unlinked it?"
                ) from None
        else:
            # Same process as the creator: the name is already tracked
            # exactly once; a plain attach re-registers into the same
            # set, which is a no-op.
            shm = shared_memory.SharedMemory(name=handle.token)
        view = cls(shm, handle, owner=False, telemetry=telemetry)
        with _LOCK:
            _OPEN_VIEWS[handle.token] = _OPEN_VIEWS.get(handle.token, 0) + 1
        view.telemetry.count("shm.attaches")
        return view

    # -- array access --------------------------------------------------------

    def array(self, key: str) -> np.ndarray:
        """Read-only zero-copy view of one packed array."""
        if self._closed:
            raise ValueError(f"view of {self.handle.token} is closed")
        spec = self.handle.arrays[key]
        arr = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=self._shm.buf,
            offset=spec.offset,
        )
        arr.setflags(write=False)
        return arr

    def _csr(self, prefix: str, shape: tuple[int, int]) -> sp.csr_matrix:
        # copy=False keeps the CSR buffers backed by shared memory.
        return sp.csr_matrix(
            (
                self.array(f"{prefix}.data"),
                self.array(f"{prefix}.indices"),
                self.array(f"{prefix}.indptr"),
            ),
            shape=shape,
            copy=False,
        )

    def adjacency(self) -> sp.csr_matrix:
        return self._csr("adjacency", self.handle.adjacency_shape)

    def build_database(
        self,
        *,
        kernel: str | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> "PipeDatabase":
        """Rebuild a fully functional database over the shared arrays.

        The master validated every protein and edge when it built the
        database, so nothing is checked again: the residues are decoded
        in one pass over the shared concatenated proteome and each
        protein's ``encoded`` cache is a zero-copy slice of it
        (:meth:`~repro.sequences.protein.Protein.trusted`), the
        interaction graph is read off the shared adjacency in bulk
        (:meth:`~repro.ppi.graph.InteractionGraph.from_adjacency`), and
        the known-protein similarity cache is prefilled with the shared
        CSRs — a worker database costs O(names + edges) private memory,
        not O(proteome).
        """
        from repro.ppi.database import PipeDatabase, SequenceSimilarity
        from repro.ppi.graph import InteractionGraph
        from repro.ppi.kernels import CSRRows

        handle = self.handle
        concatenated = self.array("concatenated")
        offsets = self.array("offsets")
        bounds = offsets.tolist()
        residues = decode(concatenated[: bounds[-1]])
        proteins = [
            Protein.trusted(name, residues[lo:hi], concatenated[lo:hi])
            for name, lo, hi in zip(handle.protein_names, bounds, bounds[1:])
        ]
        adjacency = self.adjacency()
        database = PipeDatabase.from_arrays(
            InteractionGraph.from_adjacency(proteins, adjacency),
            handle.matrix,
            handle.window_size,
            handle.threshold,
            concatenated=concatenated,
            offsets=offsets,
            valid_columns=self.array("valid_columns"),
            adjacency=adjacency,
            score_rows=(
                self.array("score_rows") if "score_rows" in handle.arrays else None
            ),
            kernel=kernel if kernel is not None else handle.kernel_name,
            telemetry=telemetry,
        )
        for name, meta in handle.similarities.items():
            prefix = f"sim.{name}"
            database._protein_similarity_cache[name] = SequenceSimilarity(
                CSRRows(
                    self.array(f"{prefix}.indptr"),
                    self.array(f"{prefix}.indices"),
                    self.array(f"{prefix}.data"),
                    *meta["shape"],
                )
            )
        # The database's arrays are zero-copy views into this segment: pin
        # the view so dropping the last *view* reference cannot unmap the
        # pages out from under a still-live database.
        database._shm_view = self
        return database

    def build_engine(self, config: "PipeConfig") -> "PipeEngine":
        """A :class:`~repro.ppi.pipe.PipeEngine` over :meth:`build_database`
        whose evidence LRU holds every problem the segment carries
        (:meth:`~repro.ppi.pipe.PipeEngine.adopt_evidence`, zero-copy):
        the one way a pool worker builds its engine, under every start
        method.  A problem first named later is built on first sight."""
        from repro.ppi.pipe import PipeEngine

        engine = PipeEngine(self.build_database(), config)
        for i, names in enumerate(self.handle.evidence):
            engine.adopt_evidence(
                names,
                tuple(self.array(f"evidence.{i}.{part}") for part in _EVIDENCE_PARTS),
            )
        return engine

    # -- lifecycle -----------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Segment accounting (mirrors the ``shm.*`` telemetry)."""
        with _LOCK:
            open_views = _OPEN_VIEWS.get(self.handle.token, 0)
        return {
            "token": self.handle.token,
            "bytes": self.handle.nbytes,
            "arrays": len(self.handle.arrays),
            "similarities": len(self.handle.similarities),
            "evidence": len(self.handle.evidence),
            "owner": self.owner,
            "open_views": open_views,
            "closed": self._closed,
        }

    def close(self) -> None:
        """Unmap; the creating process unlinks on its last close.

        Idempotent, and safe to call with worker processes already dead:
        unlink only removes the *name* — kernel memory is freed when the
        last mapping (including a crashed worker's, torn down by the OS)
        disappears.
        """
        if self._closed:
            return
        self._closed = True
        token = self.handle.token
        unlink = False
        with _LOCK:
            remaining = _OPEN_VIEWS.get(token, 1) - 1
            if remaining > 0:
                _OPEN_VIEWS[token] = remaining
            else:
                _OPEN_VIEWS.pop(token, None)
                if _OWNED_BYTES.pop(token, None) is not None:
                    unlink = True
        self._shm.close()
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                # Unlinked from outside: the name is gone, so the
                # resource tracker must not look for it at exit either.
                resource_tracker.unregister(self._shm._name, "shared_memory")
            self.telemetry.count("shm.unlinks")
        self._report_gauges()

    def __enter__(self) -> "SharedProteomeView":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _report_gauges(self) -> None:
        if not self.telemetry.enabled:
            return
        with _LOCK:
            segments = len(_OWNED_BYTES)
            total = sum(_OWNED_BYTES.values())
        self.telemetry.set_gauge("shm.segments", segments)
        self.telemetry.set_gauge("shm.bytes", total)

    def __repr__(self) -> str:
        return (
            f"SharedProteomeView(token={self.handle.token!r}, "
            f"bytes={self.handle.nbytes}, owner={self.owner}, "
            f"closed={self._closed})"
        )
