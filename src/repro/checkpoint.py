"""Crash-safe checkpoint/resume for GA campaigns.

The paper's Blue Gene/Q runs evolve populations for tens of thousands of
generations over days of wall clock; the parallel runtime already survives
*worker* death, but a master crash (OOM, preemption, SIGKILL) would lose
the whole campaign.  This module closes that gap: a
:class:`CheckpointManager` periodically snapshots a running
:class:`~repro.ga.engine.InSiPSEngine` at the generation barrier, and
:meth:`InSiPSEngine.resume <repro.ga.engine.InSiPSEngine.resume>` restores
a snapshot **bit-exactly** — a run interrupted at generation *g* and
resumed produces the identical best sequence, history and evaluation
counts as an uninterrupted run with the same seed.

What a snapshot holds
---------------------
* the full population with scores (provenance-free encodings — see below),
* the engine's RNG bit-generator states (``Generator.bit_generator.state``),
* the generation counter, :class:`~repro.ga.stats.RunHistory`, best-so-far
  individual and evaluation count,
* the current :class:`~repro.ga.config.GAParams` plus, for
  :class:`~repro.ga.adaptive.AdaptiveInSiPSEngine`, the controller state
  and ``params_history``,
* a fingerprint of the GA/problem configuration, checked on resume so a
  snapshot cannot silently resume under a different problem.

Durability
----------
Every file goes through :func:`repro.util.atomic.atomic_write` (tmp file +
fsync + ``os.replace``), each snapshot embeds a SHA-256 checksum of its
canonical payload (verified on load), and retention is bounded to the
newest :attr:`CheckpointManager.RETAIN` snapshots.  A snapshot is
therefore never observably half-written, and a crash mid-checkpoint
leaves the previous snapshot intact.  The directory scan is the only
index: snapshot names sort by generation, so there is no pointer file
to keep in step with them.

Corruption recovery
-------------------
Atomicity protects against *our* crashes, not against the disk: a
truncated file after power loss, a bit flip, an fsck casualty.  When
:func:`load_snapshot` is given a checkpoint *directory* it therefore runs
a recovery chain instead of trusting one file: snapshots are tried
newest-first; one that is unreadable, unparseable or checksum-mismatched
is **quarantined** (renamed ``<name>.corrupt``, counted as
``checkpoint.corrupt_skipped``) and the loader walks back to the next
candidate.  Only when *no* valid snapshot remains does
:class:`CheckpointError` propagate.  Loading an explicit snapshot *file*
still fails fast — naming a file says "this one, exactly".

Bit-exactness caveats
---------------------
Operator provenance is dropped at snapshot boundaries: snapshots are taken
at the generation barrier where every member is already scored, so scores
never depend on it, but on the serial provider (the one delta route) the
first post-resume generation is delta-scored against a cold similarity
cache — ``pipe.delta.*`` hit/fallback *telemetry* (never scores) can
differ from the uninterrupted run.  Pool workers always full-sweep, so a
resumed pool campaign loses nothing.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import TYPE_CHECKING

from repro.telemetry import NULL_REGISTRY, MetricsRegistry
from repro.util.atomic import atomic_write

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ga.engine import InSiPSEngine
    from repro.ga.population import Individual, Population
    from repro.ga.stats import RunHistory

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "write_snapshot",
    "load_snapshot",
    "find_latest",
    "quarantine_snapshot",
]

FORMAT = "repro-checkpoint"
VERSION = 1

_SNAPSHOT_RE = re.compile(r"^ckpt-gen(\d+)(-emergency)?\.json$")


class CheckpointError(RuntimeError):
    """A snapshot is missing, corrupt, or belongs to a different run."""


def _canonical(payload: dict[str, object]) -> str:
    """The checksummed byte-stable form of a snapshot payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_snapshot(
    path: str | Path, payload: dict[str, object], *, fsync: bool = True
) -> int:
    """Atomically write one checksummed snapshot file; returns bytes written."""
    body = _canonical(payload)
    envelope = {
        "format": FORMAT,
        "version": VERSION,
        "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        "payload": payload,
    }
    return atomic_write(
        path, json.dumps(envelope, sort_keys=True, indent=1), fsync=fsync
    )


def _load_file(path: Path) -> dict[str, object]:
    """Read and verify one snapshot file; raises :class:`CheckpointError`
    on a missing file, unparseable JSON, unknown format/version, or
    checksum mismatch."""
    if not path.exists():
        raise CheckpointError(f"snapshot {path} does not exist")
    try:
        envelope = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable snapshot ({exc})") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != FORMAT:
        raise CheckpointError(f"{path}: not a {FORMAT} file")
    if envelope.get("version") != VERSION:
        raise CheckpointError(
            f"{path}: unsupported snapshot version {envelope.get('version')!r}"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: snapshot payload missing")
    digest = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
    if digest != envelope.get("sha256"):
        raise CheckpointError(
            f"{path}: checksum mismatch (file corrupt or tampered)"
        )
    return payload


def quarantine_snapshot(path: Path) -> Path:
    """Move a damaged snapshot out of the recovery scan's way.

    Renames ``ckpt-gen…json`` to ``ckpt-gen…json.corrupt`` (numbered
    ``.corrupt.2``, ``.corrupt.3`` … on collision) so operators can
    inspect the evidence while :func:`find_latest` and the recovery chain
    stop considering it.  Returns the quarantine path; a rename that
    itself fails falls back to returning the original path untouched.
    """
    destination = path.with_name(path.name + ".corrupt")
    n = 1
    while destination.exists():
        n += 1
        destination = path.with_name(f"{path.name}.corrupt.{n}")
    try:
        path.rename(destination)
    except OSError:  # pragma: no cover - racing deletion / RO filesystem
        return path
    return destination


def load_snapshot(
    source: str | Path, *, telemetry: MetricsRegistry | None = None
) -> dict[str, object]:
    """Read and verify a snapshot written by :func:`write_snapshot`.

    ``source`` may be a snapshot file (loaded exactly, failures raise) or
    a checkpoint directory.  For a directory the recovery chain runs:
    snapshots are tried newest-first, damaged ones are quarantined
    (``*.corrupt``) and counted as ``checkpoint.corrupt_skipped``, and
    the newest *valid* snapshot wins; :class:`CheckpointError` is raised
    only when none survives.
    """
    registry = telemetry if telemetry is not None else NULL_REGISTRY
    path = Path(source)
    if not path.is_dir():
        return _load_file(path)
    candidates = _scan_snapshots(path)
    if not candidates:
        raise CheckpointError(f"no snapshot found in {path}")
    skipped: list[str] = []
    for candidate in reversed(candidates):
        try:
            payload = _load_file(candidate)
        except CheckpointError as exc:
            quarantined = quarantine_snapshot(candidate)
            skipped.append(f"{candidate.name} ({exc})")
            registry.count("checkpoint.corrupt_skipped")
            registry.event(
                "checkpoint.quarantined",
                snapshot=candidate.name,
                quarantined_as=quarantined.name,
                error=str(exc),
            )
            continue
        return payload
    raise CheckpointError(
        f"no valid snapshot in {path}: all {len(skipped)} candidate(s) "
        f"quarantined — " + "; ".join(skipped)
    )


def _snapshot_order(path: Path) -> tuple[int, int, float]:
    """Sort key: (generation, pre-eval before barrier, mtime)."""
    match = _SNAPSHOT_RE.match(path.name)
    generation = int(match.group(1)) if match else -1
    barrier = 0 if (match and match.group(2)) else 1
    try:
        mtime = path.stat().st_mtime
    except OSError:  # pragma: no cover - racing deletion
        mtime = 0.0
    return (generation, barrier, mtime)


def _scan_snapshots(directory: Path) -> list[Path]:
    """Every well-named snapshot in ``directory``, oldest to newest."""
    return sorted(
        (
            p
            for p in directory.glob("ckpt-*.json")
            if _SNAPSHOT_RE.match(p.name)
        ),
        key=_snapshot_order,
    )


def find_latest(directory: str | Path) -> Path | None:
    """The newest snapshot in ``directory``, or None when it holds none."""
    candidates = _scan_snapshots(Path(directory))
    return candidates[-1] if candidates else None


class CheckpointManager:
    """Snapshot policy + durable storage for one GA campaign.

    Parameters
    ----------
    directory:
        Where snapshots live (created if missing).  One campaign per
        directory — the scan and retention are per-directory.
    every:
        Save at every k-th generation barrier (``None``: only forced and
        emergency snapshots are written).
    fsync:
        Forwarded to :func:`~repro.util.atomic.atomic_write`; tests may
        disable it for speed.
    telemetry:
        Metrics registry for the ``checkpoint.{writes,bytes,restore}``
        counters and the ``checkpoint.save`` span.
    """

    #: Snapshot files kept (oldest pruned first; the one just written is
    #: never pruned).
    RETAIN = 5

    def __init__(
        self,
        directory: str | Path,
        *,
        every: int | None = 1,
        fsync: bool = True,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        if every is not None and every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = every
        self.fsync = bool(fsync)
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self.writes = 0
        self.bytes_written = 0
        self._force_next = False

    # -- policy -------------------------------------------------------------

    def request_save(self) -> None:
        """Force a snapshot at the next barrier regardless of policy.

        Thread-safe enough for its purpose (a single boolean set by a
        controller thread, consumed by the run loop): the design
        service's cancel/evict path uses it so the job's resume point is
        exactly the barrier the stop request landed on, even when the
        generation policy would have skipped that barrier.
        """
        self._force_next = True

    def should_save(self, generation: int) -> bool:
        """Whether the barrier of ``generation`` is due a snapshot."""
        if self._force_next:
            return True
        return self.every is not None and generation % self.every == 0

    def maybe_save(
        self,
        engine: "InSiPSEngine",
        population: "Population",
        *,
        history: "RunHistory",
        best: "Individual | None",
    ) -> Path | None:
        """Barrier hook: save if the generation is due."""
        if not self.should_save(population.generation):
            return None
        return self.save(engine, population, history=history, best=best)

    # -- storage ------------------------------------------------------------

    def save(
        self,
        engine: "InSiPSEngine",
        population: "Population",
        *,
        history: "RunHistory",
        best: "Individual | None",
        phase: str = "barrier",
        reason: str | None = None,
    ) -> Path:
        """Write one snapshot (checksummed, atomic).

        ``phase`` is ``"barrier"`` (population evaluated, stats appended)
        or ``"pre_eval"`` (emergency: population bred but not yet fully
        evaluated); resume re-enters the main loop at the matching point.
        """
        payload = engine.checkpoint_state(
            population, history=history, best=best, phase=phase, reason=reason
        )
        suffix = "-emergency" if phase != "barrier" else ""
        name = f"ckpt-gen{population.generation:08d}{suffix}.json"
        path = self.directory / name
        with self.telemetry.span("checkpoint.save"):
            nbytes = write_snapshot(path, payload, fsync=self.fsync)
        self.writes += 1
        self.bytes_written += nbytes
        self.telemetry.count("checkpoint.writes")
        self.telemetry.count("checkpoint.bytes", nbytes)
        self._force_next = False
        self._prune(keep=path)
        return path

    def save_emergency(
        self,
        engine: "InSiPSEngine",
        population: "Population",
        *,
        history: "RunHistory",
        best: "Individual | None",
        reason: str,
    ) -> Path:
        """Best-effort snapshot when the run is dying (e.g. a worker's
        scoring raised
        :class:`~repro.parallel.mp_backend.WorkerFailureError`)."""
        self.telemetry.count("checkpoint.emergency")
        return self.save(
            engine,
            population,
            history=history,
            best=best,
            phase="pre_eval",
            reason=reason,
        )

    def _prune(self, *, keep: Path) -> None:
        """Delete all but the newest :attr:`RETAIN` snapshots (never
        ``keep``)."""
        snapshots = _scan_snapshots(self.directory)
        excess = len(snapshots) - self.RETAIN
        for path in snapshots:
            if excess <= 0:
                break
            if path == keep:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing deletion
                pass
            excess -= 1
