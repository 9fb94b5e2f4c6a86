"""The traced run: recording proxy, rung replays and the layer ladder.

Tracing lives entirely in the harness.  A :class:`RecordingProvider` wraps
the provider handed to the GA engine and records one span per
``scores_with_provenance`` call together with the batch itself.  The
recorded batches are then replayed, in order, against each rung's public
entry point — kernel sweep, ``PipeEngine.score_against``, serial provider,
process pool, one-client fabric — and timed from outside.  A layer's cost
is its rung minus the rung below, so the table answers "what does each
layer add per candidate" without a single span inside ``src/``.

Every replayed rung must return ScoreSets equal to the recorded ones; a
mismatch raises :class:`LadderError` and the traced run fails instead of
printing a table.
"""

from __future__ import annotations

import json
import pickle
import statistics
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.checkpoint import load_snapshot, write_snapshot
from repro.fabric import ScoringFabric
from repro.ppi.kernels import get_kernel
from repro.ppi.shm import SharedProteomeView
from repro.providers import make_score_provider
from repro.service import job_dir
from repro.synthetic import get_profile
from repro.telemetry import MetricsRegistry, read_jsonl

import measure
from workloads import DRAIN_LIMIT_S, WORK_DIR, WORKERS, Window, timing_sample

#: At most this many recorded units are replayed on every rung (the four
#: distinct unit seeds); more would only repeat the same candidates.
MAX_REPLAY_UNITS = 4

#: ``ga.master + fitness.serial`` must reproduce the untraced per-candidate
#: wall this closely on the serial workloads, or the ladder is not trusted.
LADDER_TOLERANCE = 0.10
LADDER_ATTEMPTS = 3


class LadderError(RuntimeError):
    """A replayed rung disagreed with the recording, or the rungs do not
    add up to the untraced wall time."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: int


@dataclass
class Batch:
    """One recorded ``scores_with_provenance`` call."""

    arrays: list[np.ndarray]
    provenances: list | None
    results: list
    fresh: list[int] = field(default_factory=list)  # indices the cache missed


class Recorder:
    """In-memory span store; written out only when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.batches: dict[int, Batch] = {}
        self._unit_ids: dict[int, int] = {}
        self._seen: dict[int, set[bytes]] = {}

    def _unit_id(self, unit: int) -> int:
        if unit not in self._unit_ids:
            self._unit_ids[unit] = len(self.spans)
            self.spans.append(Span(len(self.spans), "unit", 0.0, 0.0, None, unit))
        return self._unit_ids[unit]

    def wrap(self, provider, unit: int) -> "RecordingProvider":
        self._unit_id(unit)
        return RecordingProvider(provider, self, unit)

    def unit_span(self, unit: int, start: float, end: float) -> None:
        span = self.spans[self._unit_id(unit)]
        span.start, span.end = start, end

    def record(self, unit: int, start: float, end: float, batch: Batch) -> None:
        # Each unit runs on a fresh provider whose cache never evicts at
        # these sizes, so "first time these bytes appear in the unit" is
        # exactly "provider cache miss".
        seen = self._seen.setdefault(unit, set())
        for i, arr in enumerate(batch.arrays):
            key = arr.tobytes()
            if key not in seen:
                seen.add(key)
                batch.fresh.append(i)
        span = Span(
            len(self.spans), "provider.scores", start, end, self._unit_id(unit), unit
        )
        self.spans.append(span)
        self.batches[span.id] = batch

    def units(self) -> list[tuple[Span, list[Span], list[Batch]]]:
        """(unit span, its provider spans, their batches in call order) for
        every finished unit."""
        out = []
        for unit, span_id in sorted(self._unit_ids.items()):
            span = self.spans[span_id]
            if span.end <= span.start:
                continue
            calls = [s for s in self.spans if s.parent == span_id]
            out.append((span, calls, [self.batches[s.id] for s in calls]))
        return out

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps([asdict(span) for span in self.spans], indent=1)
        )


class RecordingProvider:
    """Transparent proxy around a score provider; records each call."""

    def __init__(self, inner, recorder: Recorder, unit: int) -> None:
        self._inner = inner
        self._recorder = recorder
        self._unit = unit

    def scores(self, sequences):
        return self.scores_with_provenance(sequences, None)

    def scores_with_provenance(self, sequences, provenances):
        start = time.perf_counter()
        results = self._inner.scores_with_provenance(sequences, provenances)
        end = time.perf_counter()
        self._recorder.record(
            self._unit,
            start,
            end,
            Batch(
                [np.array(s, dtype=np.uint8) for s in sequences],
                list(provenances) if provenances is not None else None,
                list(results),
            ),
        )
        return results

    def __getattr__(self, name):
        return getattr(self._inner, name)


# --------------------------------------------------------------------------
# Rung replays
# --------------------------------------------------------------------------


def _replay(provider, batches: list[Batch], rung: str) -> float:
    """Seconds the provider takes to score the recorded batches, in order."""
    total = 0.0
    for batch in batches:
        start = time.perf_counter()
        results = provider.scores_with_provenance(batch.arrays, batch.provenances)
        total += time.perf_counter() - start
        if list(results) != batch.results:
            raise LadderError(f"{rung} rung returned different ScoreSets")
    return total


def _totals() -> defaultdict:
    """One replayed unit's rung seconds and counts, by name."""
    return defaultdict(float)


def _kernel_and_pipe_rungs(world, target, non_targets, batches, totals: dict):
    """Kernel sweep (full and delta) and ``score_against`` on every fresh
    candidate of the recorded batches."""
    engine = world.engine
    database = engine.database
    kernel = get_kernel()
    names = [target, *non_targets]
    columns = int(database.valid_columns.size)
    similarities: dict[bytes, object] = {}
    for batch in batches:
        fresh = [batch.arrays[i] for i in batch.fresh]
        if not fresh:
            continue
        start = time.perf_counter()
        kernel.sweep_batch(database, fresh)
        totals["sweep_full_s"] += time.perf_counter() - start
        totals["window_pairs"] += columns * sum(
            database.num_query_windows(a.size) for a in fresh
        )
        for i in batch.fresh:
            arr = batch.arrays[i]
            provenance = batch.provenances[i] if batch.provenances else None
            sources = [
                (
                    similarities[seg.parent_key],
                    seg.parent_start,
                    seg.child_start,
                    seg.length,
                )
                for seg in (provenance.segments if provenance else ())
                if seg.parent_key in similarities
            ]
            if sources:
                start = time.perf_counter()
                update = database.update_similarity(arr, sources)
                totals["sweep_delta_s"] += time.perf_counter() - start
                totals["delta_cands"] += 1
                totals["rows_rescored"] += update.rows_rescored
                totals["rows_total"] += update.rows_total
                similarity = update.similarity
            else:
                # No cached parent: not a delta candidate.  Swept untimed,
                # only so that its own children can patch from it.
                similarity = database.sequence_similarity(arr)
            similarities[arr.tobytes()] = similarity

            start = time.perf_counter()
            alone = engine.score_against(arr, names)
            totals["score_against_s"] += time.perf_counter() - start
            start = time.perf_counter()
            given = engine.score_against(arr, names, similarity=similarity)
            totals["pipe_self_s"] += time.perf_counter() - start
            totals["pipe_evaluations"] += len(names)
            for scored in (alone, given):
                if scored.score_set(target, non_targets) != batch.results[i]:
                    raise LadderError("pipe rung returned a different ScoreSet")


def _shm_rung(world, target, non_targets, totals: dict) -> None:
    names = [target, *non_targets]
    start = time.perf_counter()
    view = SharedProteomeView.share(world.engine.database, similarity_names=names)
    totals["shm_share_s"] = time.perf_counter() - start
    try:
        totals["shm_bytes"] = float(view.stats()["bytes"])
    finally:
        view.close()


def _pool_rung(world, target, non_targets, batches, totals: dict) -> None:
    provider = make_score_provider(
        world, target, non_targets, backend="process", workers=WORKERS
    )
    with provider:
        totals["pool_s"] = _replay(provider, batches, "pool")
        stats = provider.runtime_stats()
    workers = stats["workers"].values()
    totals["worker_utilisation"] = (
        statistics.fmean([w["utilisation"] for w in workers]) if workers else 0.0
    )
    totals["dispatched"] = stats["dispatched"]
    totals["sticky_routed"] = stats["delta"]["sticky_routed"]
    faults = stats["fault_tolerance"]
    totals["retries"] = faults["retries"]
    totals["respawns"] = faults["respawns"]
    totals["degraded_items"] = faults["degraded_items"]


def _fabric_rung(world, target, non_targets, batches, totals: dict) -> None:
    with ScoringFabric(world, num_workers=WORKERS) as fabric:
        client = fabric.client(target, non_targets)
        totals["fabric_s"] = _replay(client, batches, "fabric")


def replay_ladder(workload, recorded) -> list[dict]:
    """Replay the recorded units on every rung the workload's path uses;
    one totals record per replayed unit.

    Runs on a fresh, telemetry-free world so span overhead from the
    traced window cannot leak into the rung timings.
    """
    world = get_profile(workload.profile).build_world()
    replayed = []
    for span, calls, batches in recorded[:MAX_REPLAY_UNITS]:
        totals = _totals()
        replayed.append(totals)
        _, target, non_targets = workload.problem(workload.unit_key(span.unit))
        world.engine.database.precompute([target, *non_targets])
        totals["fresh"] = sum(len(b.fresh) for b in batches)
        totals["submitted"] = sum(len(b.arrays) for b in batches)
        totals["unit_wall_s"] = span.end - span.start
        totals["master_s"] = totals["unit_wall_s"] - sum(c.end - c.start for c in calls)
        for batch in batches:
            for i in batch.fresh:
                provenance = batch.provenances[i] if batch.provenances else None
                totals["pickle_bytes"] += len(
                    pickle.dumps((batch.arrays[i], provenance))
                )
        _kernel_and_pipe_rungs(world, target, non_targets, batches, totals)
        with make_score_provider(world, target, non_targets) as provider:
            totals["fitness_s"] = _replay(provider, batches, "fitness")
        if "pool" in workload.layers:
            _shm_rung(world, target, non_targets, totals)
            _pool_rung(world, target, non_targets, batches, totals)
        if "fabric" in workload.layers:
            _fabric_rung(world, target, non_targets, batches, totals)
    return replayed


# --------------------------------------------------------------------------
# Service-only observations
# --------------------------------------------------------------------------


def bare_fabric_campaigns(workload, recorder: Recorder) -> list[float]:
    """The service's campaigns on a bare ``FabricClient`` (no claim, no
    checkpoints, no artifacts): what a job costs below the service layer,
    and the source of the recorded batches for the lower rungs."""
    world = get_profile(workload.profile).build_world()
    walls = []
    with ScoringFabric(world, num_workers=WORKERS) as fabric:
        for index in range(MAX_REPLAY_UNITS):
            key = workload.unit_key(index)
            _, target, non_targets = workload.problem(key)
            client = fabric.client(target, non_targets)
            try:
                start = time.perf_counter()
                digest, _ = workload.drive(recorder.wrap(client, index), key)
                end = time.perf_counter()
            finally:
                client.close()
            if digest != workload.expected(key):
                raise LadderError("bare fabric campaign differs from the reference")
            recorder.unit_span(index, start, end)
            walls.append(end - start)
    return walls


def two_client_coalescing(workload) -> dict[str, float]:
    """Two campaigns at a time on one fabric, from two threads.

    The service window runs one job at a time (see ``ServiceWorkload``), so
    the fabric's reason to exist — fusing concurrent clients' batches —
    is observed here instead, on the same campaigns."""
    world = get_profile(workload.profile).build_world()
    registry = MetricsRegistry()

    def campaign(fabric, index: int) -> None:
        key = workload.unit_key(index)
        _, target, non_targets = workload.problem(key)
        client = fabric.client(target, non_targets)
        try:
            if workload.drive(client, key)[0] != workload.expected(key):
                raise LadderError("coalesced campaign differs from the reference")
        finally:
            client.close()

    for index in range(MAX_REPLAY_UNITS):
        workload.expected(workload.unit_key(index))  # memoise off the threads
    with ScoringFabric(world, num_workers=WORKERS, telemetry=registry) as fabric:
        with ThreadPoolExecutor(max_workers=2) as threads:
            for pair in ((0, 1), (2, 3)):
                running = [threads.submit(campaign, fabric, i) for i in pair]
                for future in running:
                    future.result(timeout=DRAIN_LIMIT_S)
        stats = fabric.fabric_stats()
    queue_wait = registry.snapshot().get("fabric.queue_wait", {})
    return {
        "fabric.mean_fused_size": float(stats["mean_fused_size"]),
        "fabric.fused_batches": float(stats["fused_batches"]),
        "fabric.queue_wait_ms_p50": 1e3 * float(queue_wait.get("p50", 0.0)),
    }


def service_observations(
    workload, window: Window, bare_walls: list[float]
) -> dict[str, float]:
    """Per-job numbers read from the live service's statuses and artifacts
    (call before teardown); ``bare_walls`` are the same campaigns' wall
    times on a bare ``FabricClient``."""
    done = [u for u in window.units if u.error is None]
    if not done:
        raise LadderError("no job finished in the traced window")
    artifact_bytes, save_ms, save_bytes, writes = [], [], [], []
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        for unit in done:
            directory = job_dir(workload.root, unit.status["job_id"])
            artifact_bytes.append(
                sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())
            )
            payload = load_snapshot(directory / "checkpoints")
            start = time.perf_counter()
            written = write_snapshot(Path(scratch) / "snapshot.json", payload)
            save_ms.append((time.perf_counter() - start) * 1e3)
            save_bytes.append(written)
            for record in read_jsonl(directory / "telemetry.jsonl"):
                if record.get("name") == "checkpoint.writes":
                    writes.append(record["value"])
    latencies = [u.end - u.start for u in done]
    job_run_s = statistics.median(
        [u.status["finished_at"] - u.status["started_at"] for u in done]
    )
    return {
        "service.tax_ms_per_job": 1e3 * (job_run_s - statistics.median(bare_walls)),
        "service.queue_wait_ms_p50": 1e3
        * statistics.median(
            [u.status["started_at"] - u.status["submitted_at"] for u in done]
        ),
        "service.submit_ms": 1e3 * statistics.median(window.submit_s),
        "service.artifact_bytes_per_job": statistics.median(artifact_bytes),
        "service.job_latency_s_p50": statistics.median(latencies),
        "service.job_latency_s_p75": measure.p75(latencies),
        "service.jobs_per_min": 60.0 * len(done) / window.wall,
        "checkpoint.save_ms": statistics.median(save_ms),
        "checkpoint.bytes_per_save": statistics.median(save_bytes),
        "checkpoint.writes_per_job": statistics.fmean(writes) if writes else 0.0,
    }


# --------------------------------------------------------------------------
# Per-layer metrics and the table
# --------------------------------------------------------------------------


def layer_metrics(
    workload,
    replayed: list[dict],
    *,
    untraced: Window,
    traced: Window,
    registry,
    gen_walls: list[float],
    extra: dict[str, float],
) -> dict[str, float]:
    """Turn the per-unit rung totals into ``<module>.<metric>`` metrics.

    A compute-bound rung's per-candidate cost is the *fastest* replayed
    unit's (see ``report_fastest_unit`` in ``workloads.py``: rungs replayed
    minutes apart on a box with shifting speed regimes only subtract
    cleanly when each is taken at its best).  The pool and fabric rungs
    mostly wait on dispatch stalls, where the fastest unit is merely a
    lucky one, so they report the median unit.  Counts are summed over the
    replayed units.

    Metrics of layers that are not on the workload's path are left out
    here; ``bench.py`` prints them as 0 on the result line because the
    benchmark contract wants every declared name on every workload.
    """

    def fastest_us(key: str, per: str = "fresh") -> float:
        return min(1e6 * t[key] / t[per] for t in replayed if t.get(per))

    def median_us(key: str) -> float:
        return statistics.median([1e6 * t[key] / t["fresh"] for t in replayed])

    def total(key: str) -> float:
        return sum(t.get(key, 0.0) for t in replayed)

    snapshot = registry.snapshot()
    counters = {
        name: inst["value"] for name, inst in snapshot.items()
        if inst.get("type") == "counter"
    }
    m: dict[str, float] = {}
    m["kernels.sweep_full_us_per_cand"] = fastest_us("sweep_full_s")
    m["kernels.window_pairs_per_s"] = max(
        t["window_pairs"] / t["sweep_full_s"] for t in replayed
    )
    if total("delta_cands"):
        m["kernels.sweep_delta_us_per_cand"] = fastest_us("sweep_delta_s", "delta_cands")
        m["kernels.delta_rows_rescored_ratio"] = total("rows_rescored") / total(
            "rows_total"
        )
    m["pipe.score_against_us_per_cand"] = fastest_us("score_against_s")
    m["pipe.self_us_per_cand"] = fastest_us("pipe_self_s")
    m["pipe.evaluations"] = total("pipe_evaluations")
    m["fitness.serial_us_per_cand"] = fastest_us("fitness_s")
    m["fitness.cache_hit_ratio"] = 1.0 - total("fresh") / total("submitted")
    delta_hits = counters.get("pipe.delta.hits", 0.0)
    delta_all = delta_hits + counters.get("pipe.delta.fallbacks", 0.0)
    if delta_all:
        m["fitness.delta_hit_ratio"] = delta_hits / delta_all
    m["ga.master_us_per_cand"] = fastest_us("master_s")
    m["ga.master_share"] = min(t["master_s"] / t["unit_wall_s"] for t in replayed)
    if "pool" in workload.layers:
        m["pool.us_per_cand"] = median_us("pool_s")
        m["pool.tax_us_per_cand"] = (
            m["pool.us_per_cand"] - m["fitness.serial_us_per_cand"] / WORKERS
        )
        m["pool.efficiency"] = m["fitness.serial_us_per_cand"] / (
            WORKERS * m["pool.us_per_cand"]
        )
        m["pool.worker_utilisation"] = total("worker_utilisation") / len(replayed)
        m["pool.gen_wall_ms_p75"] = 1e3 * measure.p75(gen_walls)
        m["pool.sticky_routed_ratio"] = total("sticky_routed") / max(
            1.0, total("dispatched")
        )
        m["pool.pickle_bytes_per_item"] = total("pickle_bytes") / total("fresh")
        if "parallel.spawn" in snapshot:
            m["pool.spawn_s"] = float(snapshot["parallel.spawn"]["mean_s"])
        m["pool.retries"] = total("retries")
        m["pool.respawns"] = total("respawns")
        m["pool.degraded_items"] = total("degraded_items")
        m["shm.share_ms"] = 1e3 * min(t["shm_share_s"] for t in replayed)
        m["shm.bytes"] = max(t["shm_bytes"] for t in replayed)
    if "fabric" in workload.layers:
        m["fabric.us_per_cand_1client"] = median_us("fabric_s")
        m["fabric.tax_us_per_cand"] = (
            m["fabric.us_per_cand_1client"] - m["pool.us_per_cand"]
        )
    m.update(extra)
    _, wall_on, _, fresh_on = timing_sample(workload, traced)
    _, wall_off, cpu_off, fresh_off = timing_sample(workload, untraced)
    # user+sys CPU of the driver and its workers: separates work from
    # waiting (the pool and the service mostly wait).
    m["process.cpu_ms_per_cand"] = 1e3 * cpu_off / fresh_off
    m["trace.overhead_ratio"] = (fresh_on / wall_on) / (fresh_off / wall_off)
    return m


def check_ladder(workload, recorded) -> None:
    """On the serial workloads nothing sits above the serial provider but
    the GA master, so the two rungs must add up to the untraced unit.

    Judged unit by unit: each recorded unit is run again untraced and its
    batches replayed right after, so the pair shares a speed regime (a
    comparison across minutes would mostly measure this box's regimes), and
    the median unit decides.  A mismatch that is only noise does not
    survive three attempts; a real one does."""
    if workload.layers[-1] != "fitness":
        return
    world = get_profile(workload.profile).build_world()
    for _ in range(LADDER_ATTEMPTS):
        ratios = []
        for span, calls, batches in recorded[:MAX_REPLAY_UNITS]:
            key = workload.unit_key(span.unit)
            _, target, non_targets = workload.problem(key)
            world.engine.database.precompute([target, *non_targets])
            master_s = (span.end - span.start) - sum(c.end - c.start for c in calls)
            with make_score_provider(world, target, non_targets) as provider:
                start = time.perf_counter()
                workload.drive(provider, key)
                drive_s = time.perf_counter() - start
            with make_score_provider(world, target, non_targets) as provider:
                ratios.append((master_s + _replay(provider, batches, "fitness")) / drive_s)
        ratio = statistics.median(ratios)
        if abs(ratio - 1.0) <= LADDER_TOLERANCE:
            return
    raise LadderError(
        f"ga.master + fitness.serial is {ratio:.2f} x the untraced unit wall, "
        f"outside {LADDER_TOLERANCE:.0%} on {LADDER_ATTEMPTS} attempts"
    )


def overhead_table(workload, m: dict[str, float]) -> str:
    """The layer overhead table: what each rung costs per candidate and
    what it adds on top of the rung below."""

    def row(label: str, value: float | None, added: float | None = None) -> str:
        cost = f"{value:12.1f}" if value is not None else f"{'-':>12}"
        plus = f"{added:+12.1f}" if added is not None else f"{'':>12}"
        return f"  {label:<34}{cost}{plus}"

    get = m.get
    lines = [
        f"layer overhead table — {workload.name} (us per fresh candidate)",
        f"  {'rung':<34}{'cost':>12}{'added':>12}",
        row("kernels.sweep_full", get("kernels.sweep_full_us_per_cand")),
        row("kernels.sweep_delta (delta cands)", get("kernels.sweep_delta_us_per_cand")),
        row(
            "pipe.score_against",
            get("pipe.score_against_us_per_cand"),
            get("pipe.self_us_per_cand"),
        ),
        row("fitness.serial (provider)", get("fitness.serial_us_per_cand")),
        row("ga.master", None, get("ga.master_us_per_cand")),
        row("pool", get("pool.us_per_cand"), get("pool.tax_us_per_cand")),
        row(
            "fabric (1 client)",
            get("fabric.us_per_cand_1client"),
            get("fabric.tax_us_per_cand"),
        ),
    ]
    if "pool.efficiency" in m:
        lines.append(
            f"  pool.efficiency = {m['pool.efficiency']:.3f} "
            f"(pool rate / ({WORKERS} workers x serial rate)), "
            f"worker utilisation {m['pool.worker_utilisation']:.3f}"
        )
    if "service.tax_ms_per_job" in m:
        lines.append(
            f"  service.tax_ms_per_job = {m['service.tax_ms_per_job']:.1f} "
            f"(job run minus the same campaign on a bare FabricClient), "
            f"queue wait p50 {m['service.queue_wait_ms_p50']:.1f} ms"
        )
    lines.append(f"  trace.overhead_ratio = {m['trace.overhead_ratio']:.3f}")
    return "\n".join(lines)
