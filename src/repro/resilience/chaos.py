"""Disk-level chaos: seeded damage to a checkpoint directory.

Worker-side faults are injected with
:class:`~repro.parallel.worker.FaultPlan` (crash / hang / slow / fail,
optionally targeting one worker id), handed to the pool as ``faults=``.
Realistic campaign failures also damage the disk, so this module adds
the other axis: a :class:`CheckpointFault` record names one act of
damage (byte flip, truncation, garbage) and
:func:`apply_checkpoint_fault` applies it to a checkpoint directory
between runs.

Every fault is positional — no randomness at injection time — so a
chaos test's failure schedule replays identically, which is what keeps
``tests/resilience`` and ``scripts/chaos_smoke.py`` non-flaky.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = [
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
        ``"garbage"`` — replace the content with non-JSON bytes.
    which:
        ``"latest"`` (default: the newest snapshot by scan) or an exact
        snapshot file name inside the directory.
    """

    mode: str = "flip"
    which: str = "latest"

    _MODES = ("flip", "truncate", "garbage")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(
                f"mode must be one of {self._MODES}, got {self.mode!r}"
            )


def apply_checkpoint_fault(
    directory: str | Path, fault: CheckpointFault
) -> Path:
    """Damage a checkpoint directory as ``fault`` prescribes.

    Returns the damaged snapshot file.  Raises
    :class:`FileNotFoundError` when the directory holds nothing to
    damage — a chaos plan that injures nothing is a test bug.
    """
    from repro.checkpoint import find_latest

    directory = Path(directory)
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
