"""Where things are, and what ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Which layer must be on a workload's path for a per-layer metric (named
#: ``<module>.<metric>``) to apply to it; other modules apply everywhere.
MODULE_LAYER = {"pool": "pool", "shm": "pool", "fabric": "fabric",
                "service": "service", "checkpoint": "service"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def on_path(metric: str, layers: tuple[str, ...]) -> bool:
    """Does this per-layer metric apply to a workload with these layers?"""
    layer = MODULE_LAYER.get(metric.split(".")[0])
    return layer is None or layer in layers


def import_program() -> None:
    """Put ``src/`` (the program) and this directory (the harness) on the
    path; the benchmark never needs an installed package."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench: the program is not here ({src / 'repro'} is missing)")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
