"""Provenance-based delta re-scoring of PIPE similarity structures.

The GA's dominant cost is :meth:`~repro.ppi.database.PipeDatabase.sequence_similarity`
— a full ``O(L x proteome_residues x w)`` sweep per candidate — yet a point
mutation at residue *i* changes at most ``w`` of the candidate's windows,
and a crossover leaves the entire prefix/suffix windows of its parents
intact.  This module carries the information needed to exploit that
locality:

* :class:`SequenceSegment` / :class:`Provenance` — a residue-level record
  of how a child sequence was assembled from its parent(s): each segment
  maps a run of residues that is *byte-identical* to a run in a parent.
  Any child window fully inside one segment is unchanged from the parent;
  every other window (straddling a cut, containing a mutated residue) is
  *dirty* and must be re-swept.
* :class:`SimilarityLRU` — a bounded cache of
  :class:`~repro.ppi.database.SequenceSimilarity` structures keyed by
  sequence bytes, with :meth:`SimilarityLRU.similarity_batch` the one
  place the hit/fallback policy lives: when the parents named by a
  provenance are cached, only the dirty window rows are re-swept — all
  dirty runs of a round in one kernel pass
  (:meth:`~repro.ppi.database.PipeDatabase.update_similarity_batch`); a
  cache miss silently falls back to the full sweep — a miss can cost
  time but never correctness.
* :class:`DeltaStats` — the per-candidate accounting behind the
  ``pipe.delta.{hits,fallbacks,rows_rescored,rows_total}`` telemetry.

Provenance is deliberately *structural* (parent key bytes plus integer
segment geometry) and contains nothing its consumer must trust — the
delta path re-derives everything else and is bit-exact with the full
sweep by construction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.ppi.database import PipeDatabase, SequenceSimilarity

__all__ = [
    "SequenceSegment",
    "Provenance",
    "DeltaStats",
    "SimilarityLRU",
    "copy_provenance",
    "mutation_provenance",
    "crossover_provenance",
]


@dataclass(frozen=True)
class SequenceSegment:
    """A run of child residues byte-identical to a run in one parent.

    ``child[child_start : child_start + length]`` equals
    ``parent[parent_start : parent_start + length]`` where ``parent`` is
    the sequence whose encoded bytes are ``parent_key``.
    """

    parent_key: bytes
    parent_start: int
    child_start: int
    length: int

    def __post_init__(self) -> None:
        if not self.parent_key:
            raise ValueError("parent_key must be non-empty")
        if self.parent_start < 0 or self.child_start < 0:
            raise ValueError("segment offsets must be >= 0")
        if self.length < 1:
            raise ValueError(f"segment length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class Provenance:
    """How a child sequence was derived from its parent(s).

    ``segments`` is the residue-level identical-content map; residues not
    covered by any segment (mutated loci) and windows straddling segment
    boundaries are the dirty regions a delta re-score must sweep.
    """

    op: str  # "copy" | "mutate" | "crossover"
    segments: tuple[SequenceSegment, ...]

    def parent_keys(self) -> tuple[bytes, ...]:
        """Distinct parent keys, in first-appearance order."""
        seen: dict[bytes, None] = {}
        for seg in self.segments:
            seen.setdefault(seg.parent_key, None)
        return tuple(seen)


@dataclass(frozen=True)
class DeltaStats:
    """Accounting of one delta-or-fallback similarity build.

    ``hit`` — the delta path ran (all/some parents cached); ``rows_rescored``
    of ``rows_total`` window rows were re-swept (the remainder were patched
    from parent structures).  A fallback full sweep reports ``hit=False``
    with every row rescored.
    """

    hit: bool
    rows_rescored: int
    rows_total: int


def copy_provenance(parent: np.ndarray) -> Provenance:
    """Provenance of a verbatim copy: one identity segment, nothing dirty."""
    parent = np.asarray(parent, dtype=np.uint8)
    return Provenance(
        "copy",
        (SequenceSegment(parent.tobytes(), 0, 0, int(parent.size)),),
    )


def mutation_provenance(parent: np.ndarray, hits: Iterable[int]) -> Provenance:
    """Provenance of a point-mutated child: the unmutated runs of the
    parent, split at each hit locus.

    ``hits`` are the 0-based mutated residue indices.  Only windows
    containing a hit fall outside the segments, so the delta path
    re-sweeps exactly the ``[i - w + 1, i]`` window span of each locus.
    """
    parent = np.asarray(parent, dtype=np.uint8)
    key = parent.tobytes()
    length = int(parent.size)
    segments: list[SequenceSegment] = []
    prev = 0
    for h in sorted(int(h) for h in hits):
        if not 0 <= h < length:
            raise ValueError(f"mutation locus {h} outside sequence of length {length}")
        if h > prev:
            segments.append(SequenceSegment(key, prev, prev, h - prev))
        prev = h + 1
    if length > prev:
        segments.append(SequenceSegment(key, prev, prev, length - prev))
    return Provenance("mutate", tuple(segments))


def crossover_provenance(
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    cut_a: int,
    cut_b: int,
) -> tuple[Provenance, Provenance]:
    """Provenance of the two crossover children.

    Child 1 is ``a[:cut_a] + b[cut_b:]``, child 2 is ``b[:cut_b] + a[cut_a:]``
    (the Sec. 2.1 tail exchange).  Only the windows straddling the cut are
    dirty; the prefix rows patch from one parent, the suffix rows from the
    other.
    """
    a = np.asarray(parent_a, dtype=np.uint8)
    b = np.asarray(parent_b, dtype=np.uint8)
    if not 0 < cut_a < a.size or not 0 < cut_b < b.size:
        raise ValueError(
            f"cuts ({cut_a}, {cut_b}) must fall strictly inside the parents "
            f"(lengths {a.size}, {b.size})"
        )
    key_a, key_b = a.tobytes(), b.tobytes()
    child1 = Provenance(
        "crossover",
        (
            SequenceSegment(key_a, 0, 0, cut_a),
            SequenceSegment(key_b, cut_b, cut_a, int(b.size) - cut_b),
        ),
    )
    child2 = Provenance(
        "crossover",
        (
            SequenceSegment(key_b, 0, 0, cut_b),
            SequenceSegment(key_a, cut_a, cut_b, int(a.size) - cut_a),
        ),
    )
    return child1, child2


class SimilarityLRU:
    """Bounded LRU of per-sequence similarity structures.

    One instance lives in each :class:`~repro.ga.fitness.SerialScoreProvider`,
    the one delta route (pool workers full-sweep).  Keys are the
    candidate's encoded bytes (the same identity the score cache uses);
    values are the immutable
    :class:`~repro.ppi.database.SequenceSimilarity` structures, so sharing
    entries between a parent and the children patched from it is safe.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[bytes, "SequenceSimilarity"] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes) -> "SequenceSimilarity | None":
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: bytes, similarity: "SequenceSimilarity") -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = similarity
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # -- the delta-or-fallback policy ---------------------------------------

    def similarity_batch(
        self,
        database: "PipeDatabase",
        children: "Iterable[np.ndarray]",
        provenances: "Iterable[Provenance | None]",
    ) -> "list[tuple[SequenceSimilarity, DeltaStats | None]]":
        """Similarity structures of a whole population, each by the
        cheapest correct route.

        Routes, in order of preference:

        1. the child itself is cached (a re-submitted sequence) — reuse it;
        2. provenance names parents that are cached — patch their rows and
           re-sweep only the dirty ones; a parent missing from the cache
           only enlarges the dirty set;
        3. otherwise — full sweep (*fallback*; slower, never wrong).

        Each child takes the route a one-at-a-time loop over the batch
        would give it, but the work of a round runs batched: all dirty
        runs of the round's delta children go through one
        :meth:`~repro.ppi.database.PipeDatabase.update_similarity_batch`
        and all its full sweeps through one
        :meth:`~repro.ppi.database.PipeDatabase.sequence_similarity_batch`
        (one kernel pass each).  A child whose parent or twin is being
        built in the current round is deferred to the next, so it still
        patches from (or hits) the fresh structure exactly as the
        sequential loop would.

        Returns ``(similarity, stats)`` per child; ``stats`` is ``None``
        when no provenance was supplied (nothing to account: e.g. the
        random initial population).  Every result is cached so the *next*
        generation's children can patch from it.
        """
        work: list[tuple[int, np.ndarray, bytes, Provenance | None]] = []
        for i, (child, provenance) in enumerate(zip(children, provenances)):
            child = np.asarray(child, dtype=np.uint8)
            work.append((i, child, child.tobytes(), provenance))
        out: list["tuple[SequenceSimilarity, DeltaStats | None] | None"] = [
            None
        ] * len(work)

        def resolve_cached(
            i: int,
            similarity: "SequenceSimilarity",
            provenance: Provenance | None,
        ) -> None:
            stats = (
                DeltaStats(
                    hit=True, rows_rescored=0, rows_total=similarity.num_windows
                )
                if provenance is not None
                else None
            )
            out[i] = (similarity, stats)

        while work:
            # One round: route every item against the cache as it stands;
            # the patches and the sweeps needed this round each run as one
            # batch, and items depending on them wait for the next round.
            patches: list[tuple[int, bytes, np.ndarray, list]] = []
            # key -> (sequence, every (index, provenance) submitting it)
            pending: dict[bytes, tuple[np.ndarray, list]] = {}
            deferred: list[tuple[int, np.ndarray, bytes, Provenance | None]] = []
            # Keys that enter the cache later than "now" in sequential
            # order: patches and pending sweeps of this round plus every
            # deferred item.  An item touching one of these (as its own
            # key or as a provenance parent) must wait, or it would
            # full-sweep where the sequential loop takes the cached/delta
            # route.
            unresolved: set[bytes] = set()
            for i, child, key, provenance in work:
                if key in pending:
                    # Identical to an earlier full-sweep member: by the
                    # time the sequential loop reached it, the first copy
                    # would be cached — share the result as a cache hit.
                    pending[key][1].append((i, provenance))
                    continue
                if key in unresolved:
                    # Identical to an earlier patched or deferred member:
                    # once that one resolves, this is a plain cache hit.
                    deferred.append((i, child, key, provenance))
                    continue
                cached = self.get(key)
                if cached is not None:
                    resolve_cached(i, cached, provenance)
                    continue
                sources = []
                parent_unresolved = False
                if provenance is not None:
                    for seg in provenance.segments:
                        parent_sim = self.get(seg.parent_key)
                        if parent_sim is not None:
                            sources.append(
                                (
                                    parent_sim,
                                    seg.parent_start,
                                    seg.child_start,
                                    seg.length,
                                )
                            )
                        elif seg.parent_key in unresolved:
                            parent_unresolved = True
                unresolved.add(key)
                if parent_unresolved:
                    deferred.append((i, child, key, provenance))
                elif sources:
                    patches.append((i, key, child, sources))
                else:
                    pending[key] = (child, [(i, provenance)])
            if patches:
                updates = database.update_similarity_batch(
                    [(child, sources) for _, _, child, sources in patches]
                )
                for (i, key, _, _), update in zip(patches, updates):
                    self.put(key, update.similarity)
                    out[i] = (
                        update.similarity,
                        DeltaStats(
                            hit=True,
                            rows_rescored=update.rows_rescored,
                            rows_total=update.rows_total,
                        ),
                    )
            if pending:
                sims = database.sequence_similarity_batch(
                    [child for child, _ in pending.values()]
                )
                for (key, (_, members)), similarity in zip(pending.items(), sims):
                    self.put(key, similarity)
                    (first, first_prov), *rest = members
                    n_win = similarity.num_windows
                    out[first] = (
                        similarity,
                        DeltaStats(
                            hit=False, rows_rescored=n_win, rows_total=n_win
                        )
                        if first_prov is not None
                        else None,
                    )
                    for i, dup_prov in rest:
                        resolve_cached(i, similarity, dup_prov)
            work = deferred
        assert all(o is not None for o in out)
        return out  # type: ignore[return-value]
