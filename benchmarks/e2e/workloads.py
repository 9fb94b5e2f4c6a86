"""The four benchmark workloads.

Each workload drives the program through public entry points only and
exposes the same small interface to ``bench.py``:

``setup()``       build the world, precompute, construct what lives across
                  units, run one discarded warm-up unit (timed as ``setup_s``)
``run_window(s)`` closed loop, one driving thread: whole units back to back
                  for ``s`` seconds, finishing what is in flight
``expected(key)`` the unit's reference outcome from the serial provider on
                  the float64 ``ChunkedNumpyKernel`` (computed lazily, after
                  the window, so it touches neither the timings nor peak RSS)
``teardown()``    release everything, leave no file or shm segment behind

Why these four: ``screen_fullsweep`` and ``campaign_serial`` use the kernel
layer in its two modes (full batched sweep vs delta patching + caches) with
nothing above it; ``campaign_pool`` adds exactly the process pool to the
same campaigns; ``service_jobs`` makes the kernel cost negligible so the
fabric, checkpoint and service layers dominate.  A change to one layer
therefore has one workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ga import WETLAB_PARAMS, InSiPSEngine
from repro.ga.fitness import combine_scores
from repro.providers import make_engine, make_score_provider
from repro.service import DesignService, JobSpec, history_digest
from repro.synthetic import get_profile

import measure

#: Pool size of the pool/fabric/service workloads — the ``cores`` divisor
#: of ``cand_per_s_per_core`` there (1 for the serial workloads).
WORKERS = min(2, os.cpu_count() or 1)

#: Screen batches cycle over this many unit seeds derived from ``--seed``,
#: so the work mix is the same on a fast and a slow commit.
UNIT_SEEDS = 4

#: Scratch space for job roots; inside the checkout, ignored by git.
WORK_DIR = Path(__file__).resolve().parents[2] / ".bench_work"

#: A service window that has not drained this long after it closed is
#: reported as failed instead of hanging the run.
DRAIN_LIMIT_S = 60.0

CORRUPTED = "corrupted-reference"


@dataclass
class Unit:
    """One finished unit of work (screen batch, campaign or service job)."""

    key: object  # names the reference outcome this unit must equal
    start: float
    end: float
    gen_walls: list[float]
    outcome: object = None  # history digest, or the screen's ScoreSets
    fresh: int = 0  # candidates actually scored (provider cache misses)
    cpu: float = 0.0  # user+sys seconds of driver and workers over the unit
    children_hwm_mb: float = 0.0  # summed worker VmHWM, sampled before close
    error: str | None = None
    status: dict | None = None  # service jobs: the final status payload


@dataclass
class Window:
    """What one closed-loop measurement window observed."""

    units: list[Unit] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    fresh: int = 0
    children_hwm_mb: float = 0.0
    submit_s: list[float] = field(default_factory=list)  # service only


def derive_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def run_campaign(scorer, params, *, population, length, seed, generations):
    """One GA campaign on ``scorer``; returns (history digest, generation
    walls).  The initial-population barrier is left out of the walls: it is
    all full sweeps."""
    stamps: list[float] = []
    engine = InSiPSEngine(
        scorer, params, population_size=population, candidate_length=length, seed=seed
    )
    result = engine.run(
        generations,
        on_generation=lambda _pop, _stats: stamps.append(time.perf_counter()),
    )
    return history_digest(result.history), [b - a for a, b in zip(stamps, stamps[1:])]


class Workload:
    """What the workloads share: the lazily computed, memoised reference."""

    def __init__(self) -> None:
        self.corrupt = False  # the correctness gate's self-test
        self.world = None
        self._reference = None
        self._expected: dict[object, object] = {}

    def expected(self, key: object) -> object:
        """The outcome a unit with this key must equal: the same ``drive``
        on the serial provider over the float64 chunked kernel."""
        if self.corrupt:
            return CORRUPTED
        if key not in self._expected:
            if self._reference is None:
                engine = self.world.engine
                self._reference = make_engine(
                    engine.database.graph, engine.config, kernel="chunked"
                )
            _, target, non_targets = self.problem(key)
            with make_score_provider(self._reference, target, non_targets) as provider:
                self._expected[key] = self.drive(provider, key)[0]
        return self._expected[key]


class ScoringWorkload(Workload):
    """``screen_fullsweep``, ``campaign_serial`` and ``campaign_pool``: the
    small profile, target YBL051C + 8 non-targets, a fresh provider per
    unit so no cache carries across units."""

    profile = "small"
    target = "YBL051C"
    population = 60
    length = 64
    generations = 8
    batch = 32

    def __init__(self, name: str, *, campaign: bool, backend: str, seed: int) -> None:
        super().__init__()
        self.name = name
        self.campaign = campaign
        self.backend = backend
        self.cores = 1 if backend == "serial" else WORKERS
        #: Serial units are CPU-bound on a box whose speed shifts between
        #: regimes lasting seconds to tens of seconds: the timing metrics
        #: report each phase of a unit at the fastest of its repeats in the
        #: window (``timing_sample``), the only statistic that repeats from
        #: run to run here.  A pool generation instead waits out a ~1.2 s
        #: dispatch stall unless it gets lucky, so its fastest repeat is
        #: merely a lucky one: the pool reports means over the whole window.
        self.report_fastest_unit = backend == "serial"
        #: Layers on this workload's scoring path, bottom-up; the traced
        #: run replays only these rungs.
        self.layers = ("kernels", "pipe", "fitness") + (
            ("pool",) if backend == "process" else ()
        )
        # A campaign's generations are its phases, so every unit of a run
        # is the same campaign: six or seven repeats per phase in a window
        # (two on the pool), and one reference campaign to pay for.
        self.unit_seeds = derive_seeds(seed, 1 if campaign else UNIT_SEEDS)
        self.non_targets: list[str] = []
        self.telemetry = None
        self.recorder = None

    # -- lifecycle ----------------------------------------------------------

    def setup(self, *, telemetry=None, recorder=None) -> None:
        self.telemetry = self.recorder = None  # the warm-up is never traced
        self.world = get_profile(self.profile).build_world()
        self.non_targets = self.world.non_targets_for(self.target, limit=8)
        self.world.engine.database.precompute([self.target, *self.non_targets])
        # Discarded warm-up: initial sweep plus one bred generation covers
        # the full-sweep, delta and operator paths (and, for the pool, one
        # spawn + shm share) without paying for a whole campaign.
        self.run_unit(0, generations=2)
        self.telemetry, self.recorder = telemetry, recorder

    def teardown(self) -> None:
        """Nothing outlives a unit: every provider is closed where it ran."""

    def unit_key(self, index: int) -> int:
        return self.unit_seeds[index % len(self.unit_seeds)]

    def problem(self, key: object) -> tuple[object, str, list[str]]:
        """(world, target, non-targets) a unit with this key scores."""
        return self.world, self.target, self.non_targets

    # -- one unit -----------------------------------------------------------


    def drive(self, scorer, key: int, generations: int | None = None):
        """The unit's work against ``scorer``; returns (outcome, gen walls).

        Shared by the measured unit, the reference and the trace replays,
        so all of them see byte-identical candidates.
        """
        if not self.campaign:
            start = time.perf_counter()
            rng = np.random.default_rng(key)
            batch = [
                rng.integers(0, 20, size=self.length, dtype=np.uint8)
                for _ in range(self.batch)
            ]
            score_sets = scorer.scores(batch)
            for score_set in score_sets:
                combine_scores(score_set)  # the screen's whole master phase
            return score_sets, [time.perf_counter() - start]
        return run_campaign(
            scorer,
            WETLAB_PARAMS,
            population=self.population,
            length=self.length,
            seed=key,
            generations=generations or self.generations,
        )

    def run_unit(self, index: int, generations: int | None = None) -> Unit:
        key = self.unit_key(index)
        provider = make_score_provider(
            self.world,
            self.target,
            self.non_targets,
            backend=self.backend,
            telemetry=self.telemetry,
            **({"workers": WORKERS} if self.backend == "process" else {}),
        )
        try:
            scorer = (
                self.recorder.wrap(provider, index) if self.recorder else provider
            )
            start = time.perf_counter()
            outcome, walls = self.drive(scorer, key, generations)
            end = time.perf_counter()
            return Unit(
                key, start, end, walls, outcome, provider.cache_stats["misses"],
                children_hwm_mb=measure.children_hwm_mb(),
            )
        finally:
            provider.close()

    def run_window(self, seconds: float) -> Window:
        window = Window()
        cpu0 = measure.cpu_seconds()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            index = len(window.units)
            started = time.perf_counter()
            cpu_before = measure.cpu_seconds()
            try:
                unit = self.run_unit(index)
            except Exception:  # a unit that raises is a failed unit
                unit = Unit(
                    self.unit_key(index), started, time.perf_counter(), [],
                    error=traceback.format_exc(),
                )
            # The unit's provider is closed, so its workers are reaped and
            # their CPU time is in RUSAGE_CHILDREN by now.
            unit.cpu = measure.cpu_seconds() - cpu_before
            window.units.append(unit)
            if self.recorder is not None:
                self.recorder.unit_span(index, unit.start, unit.end)
        window.wall = time.perf_counter() - t0
        window.cpu = measure.cpu_seconds() - cpu0
        window.fresh = sum(u.fresh for u in window.units)
        window.children_hwm_mb = max(
            (u.children_hwm_mb for u in window.units), default=0.0
        )
        return window


class ServiceWorkload(Workload):
    """``service_jobs``: tiny profile, one ``DesignService`` with default
    quotas, fsync and ``checkpoint_every=1``; two tenants, the driver keeps
    two jobs outstanding per tenant and submits the next when one finishes.

    One engine thread, so jobs run one at a time and the other three wait
    PENDING.  With two engine threads a job's run time is chaotic on this
    code: a generation whose items are all sticky-routed waits out the
    worker's 1 s poll of the shared queue unless the *other* job happens to
    wake that worker, so throughput and latency moved by +-25 % from run to
    run and no timing metric could meet a bound.  One job at a time pays
    the same stalls, but the same number of them every time.  Two-client
    coalescing is still measured, in the traced run (``fabric.*``).
    """

    name = "service_jobs"
    profile = "tiny"
    cores = WORKERS
    #: Job latency is set by dispatch stalls, not by CPU speed, and varies
    #: job by job: the timing metrics report means over the whole window.
    report_fastest_unit = False
    layers = ("kernels", "pipe", "fitness", "pool", "fabric", "service")
    tenants = ("tenant-a", "tenant-b")
    max_concurrent = 1
    outstanding_per_tenant = 2
    population = 12
    length = 20
    generations = 3
    poll_s = 0.005

    def __init__(self, *, seed: int) -> None:
        super().__init__()
        # 16 (target, seed) pairs, cycled, each with a seed of its own: a
        # tiny job scores 17 to 27 fresh candidates depending mostly on its
        # seed, and a window's candidate count should vary little with
        # ``--seed``.
        self.job_seeds = derive_seeds(seed, 4 * UNIT_SEEDS)
        self.targets: list[str] = []
        self.service: DesignService | None = None
        self.root: Path | None = None
        self._submitted = 0

    # -- lifecycle ----------------------------------------------------------

    def setup(self, *, telemetry=None, recorder=None) -> None:
        # ``recorder`` is not used: jobs run inside the service, out of a
        # proxy's reach; the traced run records bare campaigns instead.
        self.world = get_profile(self.profile).build_world()
        self.targets = [p.name for p in self.world.candidate_targets()][:4]
        WORK_DIR.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="service-", dir=WORK_DIR))
        self.service = DesignService(
            self.world,
            self.root,
            max_concurrent=self.max_concurrent,
            num_workers=WORKERS,
            telemetry=telemetry,
        )
        self._submitted = 0
        warm = self._drive_jobs(0.0, per_tenant=1, tenants=self.tenants[:1])
        if any(u.error for u in warm.units):
            raise RuntimeError(f"warm-up job failed: {warm.units[0].error}")
        self._submitted = 0

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None
            try:
                WORK_DIR.rmdir()  # only when this run left it empty
            except OSError:
                pass

    def unit_key(self, index: int) -> tuple[str, int]:
        """4 targets, 16 seeds, cycled."""
        return (
            self.targets[index % len(self.targets)],
            self.job_seeds[index % len(self.job_seeds)],
        )

    def problem(self, key: tuple[str, int]) -> tuple[object, str, list[str]]:
        # What the service resolves for a spec without explicit non-targets.
        target = key[0]
        limit = JobSpec.non_target_limit
        return self.world, target, self.world.non_targets_for(target, limit=limit)

    def spec(self, tenant: str, key: tuple[str, int]) -> JobSpec:
        return JobSpec(
            tenant=tenant,
            target=key[0],
            seed=key[1],
            generations=self.generations,
            population_size=self.population,
            candidate_length=self.length,
        )

    def drive(self, scorer, key: tuple[str, int], generations: int | None = None):
        """A job's campaign on a bare provider (reference, trace replays)."""
        spec = self.spec(self.tenants[0], key)
        return run_campaign(
            scorer,
            spec.params,
            population=spec.population_size,
            length=spec.candidate_length,
            seed=spec.seed,
            generations=generations or spec.generations,
        )

    # -- the closed loop ----------------------------------------------------

    def run_window(self, seconds: float) -> Window:
        return self._drive_jobs(
            seconds, per_tenant=self.outstanding_per_tenant, tenants=self.tenants
        )

    def _drive_jobs(self, seconds: float, *, per_tenant: int, tenants) -> Window:
        service = self.service
        window = Window()
        outstanding: dict[str, tuple[float, str, tuple[str, int]]] = {}

        def submit(tenant: str) -> None:
            key = self.unit_key(self._submitted)
            self._submitted += 1
            spec = self.spec(tenant, key)
            before = time.perf_counter()
            job_id = service.submit(spec)
            window.submit_s.append(time.perf_counter() - before)
            outstanding[job_id] = (before, tenant, key)

        fused0 = self._fused_items()
        cpu0 = measure.cpu_seconds()
        t0 = time.perf_counter()
        for tenant in tenants:
            for _ in range(per_tenant):
                submit(tenant)
        while outstanding:
            now = time.perf_counter()
            overdue = now - t0 > seconds + DRAIN_LIMIT_S
            for job_id, (submitted, tenant, key) in list(outstanding.items()):
                status = service.status(job_id)
                state = status["state"]
                if state in ("PENDING", "RUNNING") and not overdue:
                    continue
                del outstanding[job_id]
                unit = Unit(key, submitted, time.perf_counter(), [], status=status)
                if state == "DONE":
                    run_s = status["finished_at"] - status["started_at"]
                    unit.gen_walls = [run_s / self.generations] * self.generations
                    unit.outcome = service.result(job_id)["history_digest"]
                else:
                    unit.error = f"job {job_id} ended {state}: {status.get('error')}"
                window.units.append(unit)
                if time.perf_counter() - t0 < seconds:
                    submit(tenant)
            time.sleep(self.poll_s)
        window.wall = time.perf_counter() - t0
        window.cpu = measure.cpu_seconds() - cpu0
        window.fresh = self._fused_items() - fused0
        window.children_hwm_mb = measure.children_hwm_mb()
        return window

    def _fused_items(self) -> int:
        """Candidates the pool has scored so far (client cache misses)."""
        return int(self.service.service_stats()["fabric"]["fused_items"])


def make_workload(name: str, seed: int):
    if name == "screen_fullsweep":
        return ScoringWorkload(name, campaign=False, backend="serial", seed=seed)
    if name == "campaign_serial":
        return ScoringWorkload(name, campaign=True, backend="serial", seed=seed)
    if name == "campaign_pool":
        return ScoringWorkload(name, campaign=True, backend="process", seed=seed)
    if name == "service_jobs":
        return ServiceWorkload(seed=seed)
    raise ValueError(f"unknown workload {name!r}")


def fastest_phases(repeats: list[Unit]) -> Unit:
    """Units with one key do identical work phase by phase (each bred
    generation, and the rest: initial barrier plus wrap-up); the unit made
    of every phase at its fastest repeat."""
    rests = [(u.end - u.start) - sum(u.gen_walls) for u in repeats]
    gen_walls = [min(walls) for walls in zip(*(u.gen_walls for u in repeats))]
    first = repeats[0]
    return Unit(
        first.key, 0.0, min(rests) + sum(gen_walls), gen_walls,
        fresh=first.fresh, cpu=min(u.cpu for u in repeats),
    )


def timing_sample(workload, window: Window) -> tuple[list[Unit], float, float, int]:
    """(units, wall s, cpu s, fresh candidates) the timing metrics are
    computed from: the whole window, or the unit seed whose unit, taken
    phase by phase at its fastest repeat, scored candidates at the highest
    rate (see ``report_fastest_unit``)."""
    done = [u for u in window.units if u.error is None]
    if not workload.report_fastest_unit:
        return done, window.wall, window.cpu, window.fresh
    best = max(
        (fastest_phases([u for u in done if u.key == key]) for key in {u.key for u in done}),
        key=lambda u: u.fresh / u.end,
    )
    return [best], best.end, best.cpu, best.fresh


def count_failed(workload, units: list[Unit]) -> int:
    """Units that raised, jobs not DONE, or outcomes that differ from the
    float64 serial reference."""
    failed = 0
    for unit in units:
        if unit.error is not None or unit.outcome != workload.expected(unit.key):
            failed += 1
    return failed
