"""Composable chaos harness: one spec object driving a fault matrix.

PR 2's :class:`~repro.parallel.worker.FaultPlan` injects *one* worker-side
fault; realistic campaign failures compose — a worker crashes while
another runs slow and the newest checkpoint on disk is damaged.
:class:`ChaosSpec` describes such a scenario in one declarative object:

* the **worker axis** compiles to a :class:`FaultPlan` handed to
  :class:`~repro.parallel.mp_backend.MultiprocessScoreProvider` (crash /
  hang / slow / fail, optionally targeting one worker id);
* the **disk axis** is a sequence of :class:`CheckpointFault` records the
  harness applies to a checkpoint directory between runs (byte flips,
  truncation, garbage, a dangling ``latest`` pointer).

Every fault is seeded or positional — no randomness at injection time —
so a chaos test's failure schedule replays identically, which is what
keeps ``tests/resilience`` and ``scripts/chaos_smoke.py`` non-flaky.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.parallel.worker import FaultPlan

__all__ = [
    "ChaosSpec",
    "CheckpointFault",
    "apply_checkpoint_fault",
]


@dataclass(frozen=True)
class CheckpointFault:
    """One act of disk-level damage to a checkpoint directory.

    Attributes
    ----------
    mode:
        ``"flip"`` — invert one byte mid-file (checksum mismatch);
        ``"truncate"`` — keep only the first half (unparseable JSON);
        ``"garbage"`` — replace the content with non-JSON bytes;
        ``"dangling_pointer"`` — make ``latest`` name a missing file.
    which:
        ``"latest"`` (default: the newest snapshot by scan) or an exact
        snapshot file name inside the directory.
    """

    mode: str = "flip"
    which: str = "latest"

    _MODES = ("flip", "truncate", "garbage", "dangling_pointer")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(
                f"mode must be one of {self._MODES}, got {self.mode!r}"
            )


def apply_checkpoint_fault(
    directory: str | Path, fault: CheckpointFault
) -> Path:
    """Damage a checkpoint directory as ``fault`` prescribes.

    Returns the path that was damaged (the snapshot file, or the
    ``latest`` pointer for ``dangling_pointer``).  Raises
    :class:`FileNotFoundError` when the directory holds nothing to
    damage — a chaos plan that injures nothing is a test bug.
    """
    from repro.checkpoint import LATEST_POINTER, find_latest

    directory = Path(directory)
    if fault.mode == "dangling_pointer":
        pointer = directory / LATEST_POINTER
        pointer.write_text("ckpt-gen99999999.json\n")
        return pointer
    if fault.which == "latest":
        target = find_latest(directory)
        if target is None:
            raise FileNotFoundError(f"no snapshot to damage in {directory}")
    else:
        target = directory / fault.which
        if not target.exists():
            raise FileNotFoundError(f"snapshot {target} does not exist")
    raw = target.read_bytes()
    if fault.mode == "flip":
        mid = len(raw) // 2
        damaged = raw[:mid] + bytes([raw[mid] ^ 0xFF]) + raw[mid + 1 :]
    elif fault.mode == "truncate":
        damaged = raw[: len(raw) // 2]
    else:  # garbage
        damaged = b"\x00not json\x00" * 8
    target.write_bytes(damaged)
    return target


@dataclass(frozen=True)
class ChaosSpec:
    """A full fault matrix for one chaos scenario.

    Build declaratively::

        spec = (
            ChaosSpec()
            .with_worker_crash(on_item=0)          # every worker dies
            .with_checkpoint_fault("flip")          # newest snapshot damaged
        )
        provider = MultiprocessScoreProvider(..., faults=spec.fault_plan())
        ...
        spec.apply_disk(checkpoint_dir)

    The worker axis maps onto one :class:`FaultPlan`; setting the same
    axis twice raises, keeping specs unambiguous.  ``worker=None`` means
    the fault applies to **every** worker (including respawned
    replacements — their counters restart at 0), which is how "the pool
    is permanently lost" is spelled.  An ``on_item`` index counts the
    slices a worker has received, as :class:`FaultPlan`'s do.
    """

    crash_on_item: int | None = None
    fail_on_item: int | None = None
    hang_on_item: int | None = None
    hang_s: float = 3600.0
    slow_delay_s: float = 0.0
    slow_on_item: int | None = None
    only_worker: int | None = None
    checkpoint_faults: tuple[CheckpointFault, ...] = ()

    # -- builders ------------------------------------------------------------

    def with_worker_crash(
        self, *, on_item: int = 0, worker: int | None = None
    ) -> "ChaosSpec":
        """Hard-exit (``os._exit``) the targeted worker at its nth slice."""
        self._require_unset("crash_on_item")
        return replace(
            self, crash_on_item=on_item, only_worker=self._merge_worker(worker)
        )

    def with_worker_failure(
        self, *, on_item: int = 0, worker: int | None = None
    ) -> "ChaosSpec":
        """Raise inside scoring at the nth slice (a poisoned candidate)."""
        self._require_unset("fail_on_item")
        return replace(
            self, fail_on_item=on_item, only_worker=self._merge_worker(worker)
        )

    def with_worker_hang(
        self,
        *,
        on_item: int = 0,
        hang_s: float = 3600.0,
        worker: int | None = None,
    ) -> "ChaosSpec":
        """Stop responding at the nth slice (bounded sleep, not a spin)."""
        self._require_unset("hang_on_item")
        return replace(
            self,
            hang_on_item=on_item,
            hang_s=float(hang_s),
            only_worker=self._merge_worker(worker),
        )

    def with_slow_worker(
        self,
        *,
        delay_s: float,
        on_item: int | None = None,
        worker: int | None = None,
    ) -> "ChaosSpec":
        """Delay scoring by ``delay_s`` (every slice, or just slice n)."""
        if delay_s <= 0:
            raise ValueError(f"delay_s must be > 0, got {delay_s}")
        if self.slow_delay_s:
            raise ValueError("slow-worker axis already set")
        return replace(
            self,
            slow_delay_s=float(delay_s),
            slow_on_item=on_item,
            only_worker=self._merge_worker(worker),
        )

    def with_checkpoint_fault(
        self, mode: str = "flip", *, which: str = "latest"
    ) -> "ChaosSpec":
        """Queue disk damage for :meth:`apply_disk` (repeatable)."""
        fault = CheckpointFault(mode=mode, which=which)
        return replace(
            self, checkpoint_faults=(*self.checkpoint_faults, fault)
        )

    def _require_unset(self, axis: str) -> None:
        if getattr(self, axis) is not None:
            raise ValueError(f"{axis} already set; chaos axes compose once")

    def _merge_worker(self, worker: int | None) -> int | None:
        if worker is None:
            return self.only_worker
        if self.only_worker is not None and self.only_worker != worker:
            raise ValueError(
                f"conflicting worker targets {self.only_worker} and {worker}; "
                "one FaultPlan carries one target"
            )
        return worker

    # -- execution -----------------------------------------------------------

    def fault_plan(self) -> FaultPlan | None:
        """The worker-side fault plan, or None when the spec is disk-only."""
        if (
            self.crash_on_item is None
            and self.fail_on_item is None
            and self.hang_on_item is None
            and not self.slow_delay_s
        ):
            return None
        return FaultPlan(
            fail_on_item=self.fail_on_item,
            crash_on_item=self.crash_on_item,
            hang_on_item=self.hang_on_item,
            hang_s=self.hang_s,
            delay_on_item=self.slow_on_item,
            delay=self.slow_delay_s,
            only_worker=self.only_worker,
        )

    def apply_disk(self, directory: str | Path) -> list[Path]:
        """Apply every queued checkpoint fault; returns damaged paths."""
        return [
            apply_checkpoint_fault(directory, fault)
            for fault in self.checkpoint_faults
        ]
