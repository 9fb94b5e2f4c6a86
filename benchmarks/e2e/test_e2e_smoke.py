"""Self-test of the benchmark's correctness gate and output contract.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (not part of
tier-1: it spawns pools and takes a few minutes).  Every run uses a 2 s
window, so the numbers mean nothing; only their presence, the gate and the
clean-up are checked.
"""

from __future__ import annotations

import glob
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spec import HERE, ROOT, load_spec, on_path  # noqa: E402
from workloads import make_workload  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIME_UNITS = {"s", "ms", "us"}


def _leftovers() -> set[str]:
    """Shared-memory segments and job roots a run could leave behind."""
    return set(glob.glob("/dev/shm/repro-proteome-*")) | {
        str(p) for p in (ROOT / ".bench_work").glob("*")
    }


def _session_pids(sid: int) -> list[int]:
    """Live processes of session ``sid`` (the run is its session's leader)."""
    pids = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            fields = Path(stat).read_bytes().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we were looking
        if int(fields[3]) == sid:
            pids.append(int(stat.split("/")[2]))
    return pids


def _run(workload: str, *extra: str) -> tuple[subprocess.CompletedProcess, dict]:
    before = _leftovers()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "bench.py"), "run", "--workload", workload,
         "--seed", "7", "--seconds", "2", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    )
    stdout, stderr = process.communicate(timeout=170)
    # Checked at once: multiprocessing's resource tracker used to end a few
    # milliseconds *after* the run, which the benchmark driver refuses.
    assert not _session_pids(process.pid), "the run left a process running"
    assert _leftovers() <= before, "the run left a shm segment or job root behind"
    done = subprocess.CompletedProcess(process.args, process.returncode, stdout, stderr)
    lines = done.stdout.strip().splitlines()
    assert lines, done.stderr
    return done, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done, result = _run(workload, "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "verify_ok=1" in done.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0, f"{metric['name']} must never read 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    done, result = _run(workload, "--trace", "1")
    assert done.returncode == 0, done.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert "layer overhead table" in done.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layers = make_workload(workload, 0).layers
    for metric in SPEC["per_layer"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        if not on_path(metric["name"], layers):
            assert entry["value"] == 0, f"{metric['name']} is off this path"
        elif metric["unit"] in TIME_UNITS and not (
            # no provenance, hence no delta candidate, in the screen
            workload == "screen_fullsweep" and "delta" in metric["name"]
        ):
            assert entry["value"] != 0, f"{metric['name']} was not measured"
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    if workload == "screen_fullsweep":
        assert result["metrics"]["fitness.delta_hit_ratio"]["value"] == 0
        assert result["metrics"]["fitness.cache_hit_ratio"]["value"] == 0


def test_corrupted_reference_fails_the_run():
    done, result = _run("screen_fullsweep", "--corrupt-reference")
    assert done.returncode != 0
    assert "verify_ok=0" in done.stdout
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
