"""Multi-tenant design service: durable jobs on the shared scoring fabric.

The paper's InSiPS workflow is one GA campaign per invocation; the
:class:`~repro.fabric.ScoringFabric` (PR 9) already multiplexes many
campaigns onto one worker pool, but until now there was no way to
*submit, track, evict or resume* a campaign as a job.  This module closes
that gap with a long-lived :class:`DesignService` — the glue layer that
turns the fabric into a service many tenants can share:

* **One immutable scoring substrate.**  The service owns exactly one
  :class:`~repro.fabric.ScoringFabric` (one shared-memory proteome, one
  worker pool); every job keeps its own score cache in its own
  :class:`~repro.fabric.FabricClient` and stays bit-exact with a
  dedicated pool.
* **One loop, like Algorithm 1's master.**  One thread drives every
  running job through its engine's
  :meth:`~repro.ga.engine.InSiPSEngine.steps` generator, a round at a
  time.  A round claims jobs into free slots, takes one generation's
  batch from each running job, scores all their cache misses in one
  :meth:`~repro.fabric.ScoringFabric.dispatch` (in claim order) and
  hands each job its scores back.  Fusion happens at the generation
  barrier, so a fused batch is an exact count; every running job
  advances exactly one generation per round, so a large job cannot
  starve a small one.  Cancel, evict and close take effect at the next
  barrier.  Idle, the loop sleeps on a condition that submit, resume,
  cancel, :meth:`DesignService.set_quota` and close notify.
* **Jobs, not invocations.**  A :class:`JobSpec` (tenant, design
  problem, GA geometry, checkpoint/deadline policy) is validated *before*
  admission; an admitted job moves through the lifecycle
  ``PENDING -> RUNNING -> {DONE, FAILED, CANCELLED, EVICTED}``.
* **Quotas and fairness.**  Per-tenant quotas
  (:class:`TenantQuota`) bound how many jobs a tenant may *run*
  concurrently (excess jobs wait in the queue) and how much total
  worker demand it may *hold* (excess submissions are rejected
  deterministically with :class:`QuotaError` naming the tenant and
  reason).  Admission is fair: FIFO within each tenant, round-robin
  across tenants, and the global run queue is bounded.
* **Durability.**  Every job owns a stable artifact directory::

      <root>/jobs/<job_id>/
          spec.json        # the admitted JobSpec (resolved non-targets)
          status.json      # live lifecycle record (stable schema)
          checkpoints/     # CheckpointManager snapshots (PR 5/6 machinery)
          result.json      # written on DONE (stable schema)
          telemetry.jsonl  # the latest attempt's metrics/events

  All files go through :func:`~repro.util.atomic.atomic_write`.  Cancel
  and evict force a snapshot at the next generation barrier and release
  the job's fabric client — *eviction is just "checkpoint + release"* —
  so :meth:`DesignService.resume` re-admits the job and it continues
  **bit-exactly**: the resumed campaign's result is identical to the same
  spec run uninterrupted on a dedicated provider.  A service killed
  mid-job (SIGKILL, OOM) recovers the same way: on restart, jobs found
  ``RUNNING``/``PENDING`` on disk are re-admitted from their snapshots.
* **A file control plane.**  ``python -m repro serve`` polls
  ``<root>/queue/`` for submit requests and ``jobs/<id>/cancel.request``
  markers, so ``python -m repro jobs submit|status|result|cancel|list``
  work against a running service with nothing but the filesystem as the
  transport — the artifact-first, inspect-by-id contract.

Telemetry lives under the ``service.*`` namespace: queued/running/evicted
gauges, admission/rejection/outcome counters, a per-job wall-clock timer
(``service.job``) and one ``service.job_finished`` event per attempt.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.checkpoint import CheckpointManager, find_latest
from repro.ga.config import GAParams
from repro.ga.engine import GAResult, InSiPSEngine
from repro.ga.fitness import ScoreSet, make_problem
from repro.ga.stats import RunHistory
from repro.ga.termination import MaxGenerations, TerminationCriterion
from repro.telemetry import (
    NULL_REGISTRY,
    MetricsRegistry,
    export_jsonl,
)
from repro.util.atomic import atomic_write
from repro.util.validation import check_int_range, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric import FabricClient
    from repro.parallel.worker import FaultPlan

__all__ = [
    "JobState",
    "JobSpec",
    "TenantQuota",
    "QuotaError",
    "DesignService",
    "job_dir",
    "read_spec",
    "read_status",
    "read_result",
    "list_statuses",
    "write_submit_request",
    "write_cancel_request",
    "history_digest",
]

SPEC_FORMAT = "repro-job-spec"
STATUS_FORMAT = "repro-job-status"
RESULT_FORMAT = "repro-job-result"
SCHEMA_VERSION = 1

_JOB_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class JobState:
    """The job lifecycle: ``PENDING -> RUNNING`` then exactly one of
    ``DONE`` (result written), ``FAILED`` (error recorded), ``CANCELLED``
    (user stop; resumable) or ``EVICTED`` (service stop — quota
    rebalancing, shutdown, crash recovery; resumable)."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"
    EVICTED = "EVICTED"

    ALL = (PENDING, RUNNING, DONE, FAILED, CANCELLED, EVICTED)
    #: States :meth:`DesignService.resume` accepts (their checkpoints —
    #: or, absent any snapshot, the deterministic seed — make the re-run
    #: bit-exact with an uninterrupted one).
    RESUMABLE = (CANCELLED, EVICTED, FAILED)
    #: States with no further transitions except explicit resume.
    TERMINAL = (DONE, FAILED, CANCELLED, EVICTED)


class QuotaError(RuntimeError):
    """A submission was rejected by an admission bound.

    Deterministic (a function of the queue/quota state at submit time,
    never of timing) and self-describing: ``tenant`` and ``reason`` say
    who hit which bound.
    """

    def __init__(self, tenant: str, reason: str) -> None:
        super().__init__(f"tenant {tenant!r}: {reason}")
        self.tenant = tenant
        self.reason = reason


@dataclass(frozen=True)
class TenantQuota:
    """Admission bounds of one tenant.

    ``max_running`` caps *concurrent* jobs: excess jobs are admitted but
    wait in the queue (state ``PENDING``) until a slot frees.
    ``max_demand`` caps the tenant's total outstanding demand — the sum
    of ``JobSpec.demand`` (a job's declared workers'-worth of load) over
    its ``PENDING`` + ``RUNNING`` jobs; a submission that would exceed it
    is *rejected* with :class:`QuotaError` (``None`` = unbounded).
    """

    max_running: int = 1
    max_demand: int | None = None

    def __post_init__(self) -> None:
        check_int_range(self.max_running, "max_running", lo=1)
        if self.max_demand is not None:
            check_int_range(self.max_demand, "max_demand", lo=1)


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to run one design campaign as a durable job.

    ``non_targets`` may be ``None``, in which case the service resolves
    the paper's same-component non-target list (capped at
    ``non_target_limit``) from its world at admission; the *resolved*
    list is what ``spec.json`` records.  ``demand`` is the job's declared
    workers'-worth of load, counted against
    :attr:`TenantQuota.max_demand`.  ``job_id`` is optional — the service
    assigns a sequential one when absent (CLI submissions generate their
    own so the id round-trips without a reply channel).
    """

    tenant: str
    target: str
    non_targets: tuple[str, ...] | None = None
    non_target_limit: int | None = 8
    seed: int = 0
    generations: int = 10
    population_size: int = 12
    candidate_length: int = 20
    params: GAParams = field(default_factory=GAParams)
    checkpoint_every: int = 1
    deadline_s: float | None = None
    demand: int = 1
    job_id: str | None = None

    def validate(self) -> None:
        """Problem-independent checks; raises :class:`ValueError`.

        Name resolution against the proteome happens at admission (the
        service holds the database); everything else fails fast here.
        """
        if not isinstance(self.tenant, str) or not _TENANT_RE.match(self.tenant):
            raise ValueError(
                f"tenant must match {_TENANT_RE.pattern}, got {self.tenant!r}"
            )
        if not isinstance(self.target, str) or not self.target:
            raise ValueError(f"target must be a protein name, got {self.target!r}")
        if self.non_targets is not None:
            if not all(isinstance(name, str) for name in self.non_targets):
                raise ValueError(
                    f"non_targets must be protein names, got {self.non_targets!r}"
                )
            if self.target in self.non_targets:
                raise ValueError(
                    f"target {self.target!r} also appears in the non-target list"
                )
            if len(set(self.non_targets)) != len(self.non_targets):
                raise ValueError("non_targets contains duplicates")
        if self.non_target_limit is not None:
            check_int_range(self.non_target_limit, "non_target_limit", lo=0)
        check_int_range(self.seed, "seed", lo=0)
        check_int_range(self.generations, "generations", lo=1)
        check_int_range(self.population_size, "population_size", lo=2)
        check_int_range(self.candidate_length, "candidate_length", lo=2)
        check_int_range(self.checkpoint_every, "checkpoint_every", lo=1)
        if self.deadline_s is not None:
            check_positive(self.deadline_s, "deadline_s")
        check_int_range(self.demand, "demand", lo=1)
        if self.job_id is not None and not (
            isinstance(self.job_id, str) and _JOB_ID_RE.match(self.job_id)
        ):
            raise ValueError(
                f"job_id must match {_JOB_ID_RE.pattern}, got {self.job_id!r}"
            )
        if not isinstance(self.params, GAParams):
            raise ValueError(f"params must be GAParams, got {type(self.params).__name__}")

    def to_payload(self) -> dict[str, object]:
        """The stable JSON form (``spec.json`` / submit requests)."""
        return {
            "format": SPEC_FORMAT,
            "version": SCHEMA_VERSION,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "target": self.target,
            "non_targets": (
                list(self.non_targets) if self.non_targets is not None else None
            ),
            "non_target_limit": self.non_target_limit,
            "seed": self.seed,
            "generations": self.generations,
            "population_size": self.population_size,
            "candidate_length": self.candidate_length,
            "params": self.params.to_payload(),
            "checkpoint_every": self.checkpoint_every,
            "deadline_s": self.deadline_s,
            "demand": self.demand,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, object]) -> "JobSpec":
        """Rebuild a spec saved by :meth:`to_payload` (re-validated)."""
        if not isinstance(payload, dict):
            raise ValueError("job spec payload must be a JSON object")
        fmt = payload.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ValueError(f"not a {SPEC_FORMAT} payload (format={fmt!r})")
        version = payload.get("version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported job spec version {version!r}")
        spec = cls(
            tenant=payload.get("tenant", ""),
            target=payload.get("target", ""),
            non_targets=_field(payload, "non_targets", tuple, None),
            non_target_limit=payload.get("non_target_limit"),
            # Integer fields are taken as given, never truncated:
            # validate() rejects a float or a bool, as it does for a
            # JobSpec built in code.
            seed=payload.get("seed", 0),
            generations=payload.get("generations", 10),
            population_size=payload.get("population_size", 12),
            candidate_length=payload.get("candidate_length", 20),
            params=_field(
                payload,
                "params",
                lambda p: GAParams.from_payload(dict(p or {})),
                {},
            ),
            checkpoint_every=payload.get("checkpoint_every", 1),
            deadline_s=_field(payload, "deadline_s", float, None),
            demand=payload.get("demand", 1),
            job_id=payload.get("job_id"),
        )
        spec.validate()
        return spec


def _field(payload: dict[str, object], name: str, convert, default: object):
    """``convert(payload[name])``, ``default`` when absent; an optional
    field (``default`` None) may be None.  A wrong-typed value — a
    ``TypeError`` such as ``int(None)`` — is a ``ValueError`` naming the
    field, like every other invalid submission."""
    value = payload.get(name, default)
    if value is None and default is None:
        return None
    try:
        return convert(value)
    except TypeError as exc:
        raise ValueError(f"job spec field {name!r}: {exc}") from exc


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def history_digest(history: "RunHistory | dict") -> str:
    """SHA-256 of the canonical :class:`~repro.ga.stats.RunHistory`
    payload — the compact bit-exactness witness ``result.json`` carries
    (two runs match bit for bit iff their digests match)."""
    payload = history.to_payload() if isinstance(history, RunHistory) else history
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Artifact layout (module-level so the CLI can inspect-by-id without a
# live service: the files ARE the API).
# --------------------------------------------------------------------------


def job_dir(root: str | Path, job_id: str) -> Path:
    """``<root>/jobs/<job_id>`` — one job's artifact directory.

    Raises ``ValueError`` for an id a :class:`JobSpec` would refuse, so
    no id (``../x``, say) reaches a path outside ``<root>/jobs``."""
    if not (isinstance(job_id, str) and _JOB_ID_RE.match(job_id)):
        raise ValueError(f"job id must match {_JOB_ID_RE.pattern}, got {job_id!r}")
    return Path(root) / "jobs" / job_id


def _read_json(path: Path, what: str) -> dict[str, object]:
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{what} is not a JSON object: {path}")
    return data


def _status_field(status: dict[str, object], name: str, kinds) -> object:
    """``status[name]``, or None when absent; ValueError when it is not of
    ``kinds`` (a bool is not a number here)."""
    value = status.get(name)
    if value is not None and (isinstance(value, bool) or not isinstance(value, kinds)):
        raise ValueError(f"status field {name!r} has the wrong type: {value!r}")
    return value


def _read_request(path: Path) -> dict[str, object]:
    """A queued submit request's payload.  An entry that cannot be read
    (a directory, say) is rejected like a malformed one: ValueError."""
    try:
        return _read_json(path, "submit request")
    except OSError as exc:
        raise ValueError(
            f"unreadable submit request: {type(exc).__name__}: {exc}"
        ) from exc


def read_spec(root: str | Path, job_id: str) -> dict[str, object]:
    """The admitted job's ``spec.json`` payload."""
    return _read_json(job_dir(root, job_id) / "spec.json", "job spec")


def read_status(root: str | Path, job_id: str) -> dict[str, object]:
    """The job's ``status.json`` payload (the stable status schema)."""
    return _read_json(job_dir(root, job_id) / "status.json", "job status")


def read_result(root: str | Path, job_id: str) -> dict[str, object]:
    """The job's ``result.json`` payload; only ``DONE`` jobs have one."""
    return _read_json(job_dir(root, job_id) / "result.json", "job result")


def list_statuses(
    root: str | Path, *, tenant: str | None = None
) -> list[dict[str, object]]:
    """Every job's status payload under ``root``, sorted by job id."""
    jobs_root = Path(root) / "jobs"
    out: list[dict[str, object]] = []
    if not jobs_root.is_dir():
        return out
    for status_path in sorted(jobs_root.glob("*/status.json")):
        try:
            payload = _read_json(status_path, "job status")
        except (ValueError, OSError, json.JSONDecodeError):
            continue
        if tenant is None or payload.get("tenant") == tenant:
            out.append(payload)
    return out


def write_submit_request(root: str | Path, spec: JobSpec) -> Path:
    """Drop one submit request into ``<root>/queue/`` (the file control
    plane ``python -m repro jobs submit`` uses).  Requests are processed
    in filename order, so the zero-padded timestamp keeps FIFO."""
    spec.validate()
    queue = Path(root) / "queue"
    queue.mkdir(parents=True, exist_ok=True)
    name = f"req-{time.time_ns():020d}-{os.getpid()}.json"
    path = queue / name
    atomic_write(path, json.dumps(spec.to_payload(), indent=1, sort_keys=True))
    return path


def write_cancel_request(root: str | Path, job_id: str) -> Path:
    """Drop a ``cancel.request`` marker in the job's directory; the
    serving process honours it at its next control-plane poll."""
    directory = job_dir(root, job_id)
    if not directory.is_dir():
        raise FileNotFoundError(f"no such job: {job_id} (under {directory})")
    path = directory / "cancel.request"
    atomic_write(path, json.dumps({"requested_at": time.time()}))
    return path


# --------------------------------------------------------------------------
# Internal job record
# --------------------------------------------------------------------------


class _JobControl:
    """Cooperative stop flag, checked at every generation barrier."""

    def __init__(self) -> None:
        self.requested: str | None = None  # None | "cancel" | "evict"

    @property
    def stop_requested(self) -> bool:
        return self.requested is not None


class _ControlledTermination(TerminationCriterion):
    """Wraps the job's termination rule with its control flag."""

    def __init__(self, inner: TerminationCriterion, control: _JobControl) -> None:
        self.inner = inner
        self.control = control

    def should_stop(self, history) -> bool:
        if self.control.stop_requested:
            return True
        return self.inner.should_stop(history)


class _Job:
    """Master-side record of one admitted job."""

    def __init__(
        self, spec: JobSpec, job_id: str, non_targets: list[str], directory: Path
    ) -> None:
        self.spec = spec
        self.job_id = job_id
        self.tenant = spec.tenant
        self.non_targets = list(non_targets)
        self.dir = directory
        self.state = JobState.PENDING
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.attempts = 0
        self.generations_done = 0
        self.best_fitness: float | None = None
        self.error: str | None = None
        self.reason: str | None = None
        self.control = _JobControl()
        self.manager: CheckpointManager | None = None

    @property
    def checkpoint_dir(self) -> Path:
        return self.dir / "checkpoints"

    def status_payload(self) -> dict[str, object]:
        """The stable ``status.json`` schema."""
        return {
            "format": STATUS_FORMAT,
            "version": SCHEMA_VERSION,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "target": self.spec.target,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "generations_done": self.generations_done,
            "generations_total": self.spec.generations,
            "best_fitness": self.best_fitness,
            "error": self.error,
            "reason": self.reason,
        }


class _Run:
    """One attempt of a RUNNING job: its fabric client and telemetry, its
    engine's ``steps()`` generator and the batch waiting on scores."""

    def __init__(self, job: _Job) -> None:
        self.job = job
        self.registry = MetricsRegistry()
        self.started = time.perf_counter()
        self.client: FabricClient | None = None
        self.steps = None
        self.batch: tuple[list, list] | None = None


# --------------------------------------------------------------------------
# The service
# --------------------------------------------------------------------------


class DesignService:
    """A long-lived, multi-tenant design-job orchestrator.

    Parameters
    ----------
    source:
        The world/engine the one shared :class:`~repro.fabric.ScoringFabric`
        is built over — anything :func:`repro.providers.make_engine`
        accepts.  When it exposes ``non_targets_for`` (a
        :class:`~repro.synthetic.world.SyntheticWorld`), specs may omit
        their non-target list and have the service resolve it.
    root:
        The service's durable directory: ``jobs/`` artifacts, ``queue/``
        submit requests, ``rejected/`` rejection records.
    max_concurrent:
        How many jobs may run at once — the global bound on RUNNING
        jobs, each advanced one generation per round of the loop.
    max_queue:
        Bound of the PENDING run queue; a submission past it is rejected
        with :class:`QuotaError` (recovered jobs bypass the bound: they
        were already admitted once).
    quotas, default_quota:
        Per-tenant :class:`TenantQuota` overrides and the fallback
        applied to tenants without one.
    fsync:
        Forwarded to every durable write (status/spec/result files and
        checkpoints); tests may disable for speed.
    num_workers, faults:
        Settings of the fabric's
        :class:`~repro.parallel.mp_backend.WorkerPool`.
    telemetry:
        Registry for the ``service.*`` metrics (shared with the fabric
        and its pool).

    Use as a context manager; :meth:`close` evicts running jobs
    (checkpoint + release), stops the service loop and reaps the pool.
    """

    def __init__(
        self,
        source: object,
        root: str | Path,
        *,
        max_concurrent: int = 2,
        max_queue: int = 32,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        fsync: bool = True,
        num_workers: int | None = None,
        faults: FaultPlan | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        from repro.fabric import ScoringFabric

        check_int_range(max_concurrent, "max_concurrent", lo=1)
        check_int_range(max_queue, "max_queue", lo=1)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "jobs").mkdir(exist_ok=True)
        self.max_concurrent = int(max_concurrent)
        self.max_queue = int(max_queue)
        self.fsync = bool(fsync)
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._quotas = dict(quotas or {})
        self._default_quota = (
            default_quota if default_quota is not None else TenantQuota()
        )
        self._resolver = getattr(source, "non_targets_for", None)
        self._fabric = ScoringFabric(
            source, num_workers=num_workers, faults=faults, telemetry=telemetry
        )
        self._graph = self._fabric._engine.database.graph
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: "OrderedDict[str, _Job]" = OrderedDict()
        self._queues: dict[str, deque[_Job]] = {}
        self._rr_tenant: str | None = None
        self._next_job_number = 1
        self._closing = False
        self._closed = False
        self.submitted = 0
        self.rejected = 0
        self.resumed = 0
        self.recovered = 0
        self._recover_jobs()
        self._loop = threading.Thread(
            target=self._serve_loop, name="repro-service-loop", daemon=True
        )
        self._loop.start()

    # -- admission -----------------------------------------------------------

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota applied to ``tenant`` (override or default)."""
        return self._quotas.get(tenant, self._default_quota)

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Install a per-tenant quota override (affects future admission
        and claiming, never jobs already running)."""
        with self._lock:
            self._quotas[tenant] = quota
            self._cond.notify_all()

    def _resolve_non_targets(self, spec: JobSpec) -> list[str]:
        if spec.non_targets is not None:
            names = list(spec.non_targets)
        elif self._resolver is not None:
            names = list(
                self._resolver(spec.target, limit=spec.non_target_limit)
            )
        else:
            raise ValueError(
                "spec.non_targets is None and the service source cannot "
                "resolve them (no non_targets_for); pass the list explicitly"
            )
        # Fail a typo at admission, not inside the service loop.
        make_problem(self._graph, spec.target, names)
        return names

    def _tenant_demand_locked(self, tenant: str) -> int:
        return sum(
            job.spec.demand
            for job in self._jobs.values()
            if job.tenant == tenant
            and job.state in (JobState.PENDING, JobState.RUNNING)
        )

    def _queued_locked(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _running_locked(self, tenant: str | None = None) -> int:
        return sum(
            1
            for job in self._jobs.values()
            if job.state == JobState.RUNNING
            and (tenant is None or job.tenant == tenant)
        )

    def submit(self, spec: JobSpec) -> str:
        """Validate and admit one job; returns its id.

        Raises :class:`ValueError` on an invalid spec (bad numbers,
        unknown protein names, duplicate job id) and :class:`QuotaError`
        on a deterministic admission bound (queue full, tenant demand
        quota) — quota rejections are counted as ``service.rejected``
        and carry the tenant + reason.
        """
        spec.validate()
        non_targets = self._resolve_non_targets(spec)
        with self._lock:
            if self._closing:
                raise RuntimeError("service is closed")
            job_id = spec.job_id
            if job_id is None:
                job_id = f"job-{self._next_job_number:06d}"
            if job_id in self._jobs or job_dir(self.root, job_id).exists():
                raise ValueError(f"job id {job_id!r} already exists")
            try:
                if self._queued_locked() >= self.max_queue:
                    raise QuotaError(
                        spec.tenant,
                        f"run queue full ({self.max_queue} jobs pending)",
                    )
                quota = self.quota_for(spec.tenant)
                if quota.max_demand is not None:
                    held = self._tenant_demand_locked(spec.tenant)
                    if held + spec.demand > quota.max_demand:
                        raise QuotaError(
                            spec.tenant,
                            f"demand quota exceeded: holding {held} of "
                            f"{quota.max_demand}, job asks {spec.demand} more",
                        )
            except QuotaError as exc:
                self.rejected += 1
                self.telemetry.count("service.rejected")
                self.telemetry.event(
                    "service.rejected", tenant=exc.tenant, reason=exc.reason
                )
                raise
            self._next_job_number += 1
            job = _Job(spec, job_id, non_targets, job_dir(self.root, job_id))
            self._admit_locked(job)
            self.submitted += 1
            self.telemetry.count("service.submitted")
        self._persist_spec(job)
        self._write_status(job)
        return job_id

    def _admit_locked(self, job: _Job) -> None:
        job.dir.mkdir(parents=True, exist_ok=True)
        job.checkpoint_dir.mkdir(exist_ok=True)
        self._jobs[job.job_id] = job
        self._queues.setdefault(job.tenant, deque()).append(job)
        self._update_gauges_locked()
        self._cond.notify_all()

    def _persist_spec(self, job: _Job) -> None:
        payload = job.spec.to_payload()
        payload["job_id"] = job.job_id
        payload["non_targets"] = list(job.non_targets)
        atomic_write(
            job.dir / "spec.json",
            json.dumps(payload, indent=1, sort_keys=True),
            fsync=self.fsync,
        )

    # -- inspection ----------------------------------------------------------

    def status(self, job_id: str) -> dict[str, object]:
        """The job's live status payload (identical to ``status.json``)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no such job: {job_id}")
            return job.status_payload()

    def result(self, job_id: str) -> dict[str, object]:
        """The job's ``result.json`` payload (``DONE`` jobs only)."""
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(f"no such job: {job_id}")
        return read_result(self.root, job_id)

    def jobs(self, *, tenant: str | None = None) -> list[dict[str, object]]:
        """Status payloads of every known job, sorted by id."""
        with self._lock:
            return [
                job.status_payload()
                for _, job in sorted(self._jobs.items())
                if tenant is None or job.tenant == tenant
            ]

    def service_stats(self) -> dict[str, object]:
        """Orchestrator counters (mirrors the ``service.*`` telemetry)."""
        with self._lock:
            by_state: dict[str, int] = {state: 0 for state in JobState.ALL}
            tenants: dict[str, dict[str, int]] = {}
            for job in self._jobs.values():
                by_state[job.state] += 1
                t = tenants.setdefault(
                    job.tenant, {"queued": 0, "running": 0, "demand": 0}
                )
                if job.state == JobState.PENDING:
                    t["queued"] += 1
                if job.state == JobState.RUNNING:
                    t["running"] += 1
                if job.state in (JobState.PENDING, JobState.RUNNING):
                    t["demand"] += job.spec.demand
            stats = {
                "jobs": by_state,
                "queued": self._queued_locked(),
                "running": self._running_locked(),
                "submitted": self.submitted,
                "rejected": self.rejected,
                "resumed": self.resumed,
                "recovered": self.recovered,
                "max_concurrent": self.max_concurrent,
                "max_queue": self.max_queue,
                "tenants": tenants,
            }
        stats["fabric"] = self._fabric.fabric_stats()
        return stats

    @property
    def fabric(self):
        """The one shared :class:`~repro.fabric.ScoringFabric`."""
        return self._fabric

    # -- lifecycle transitions ----------------------------------------------

    def cancel(self, job_id: str) -> str:
        """Cancel a PENDING or RUNNING job; returns the resulting state.

        A pending job is removed from the queue immediately; a running
        one stops at its next generation barrier after forcing a
        snapshot there, so :meth:`resume` can continue it bit-exactly.
        Cancelling a terminal job raises :class:`ValueError`.
        """
        return self._request_stop(job_id, "cancel")

    def evict(self, job_id: str) -> str:
        """Evict a RUNNING job: checkpoint at the next barrier, release
        its fabric client and mark it ``EVICTED`` (resumable).  A
        PENDING job may be evicted too (it simply leaves the queue)."""
        return self._request_stop(job_id, "evict")

    def _request_stop(self, job_id: str, kind: str) -> str:
        final = JobState.CANCELLED if kind == "cancel" else JobState.EVICTED
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no such job: {job_id}")
            if job.state == JobState.PENDING:
                queue = self._queues.get(job.tenant)
                if queue is not None and job in queue:
                    queue.remove(job)
                job.state = final
                job.reason = f"{kind} while pending"
                job.finished_at = time.time()
                self._count_outcome_locked(final)
                self._update_gauges_locked()
                self._cond.notify_all()
            elif job.state == JobState.RUNNING:
                if job.control.requested is None:
                    job.control.requested = kind
                    job.reason = f"{kind} requested"
                    if job.manager is not None:
                        # Force a snapshot at the barrier the stop lands
                        # on, so the resume point is exactly where the
                        # job stopped.
                        job.manager.request_save()
            elif job.state in JobState.TERMINAL:
                raise ValueError(
                    f"job {job_id} is {job.state}; cannot {kind} it"
                )
            state = job.state
        self._write_status(job)
        return state

    def resume(self, job_id: str) -> str:
        """Re-admit a CANCELLED/EVICTED/FAILED job; returns its id.

        The job re-enters the queue as ``PENDING`` (demand quota
        re-checked) and, when claimed, restores its newest valid
        snapshot — absent any snapshot it simply re-runs from its seed.
        Either way the final result is bit-exact with an uninterrupted
        run of the same spec.
        """
        with self._lock:
            if self._closing:
                raise RuntimeError("service is closed")
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no such job: {job_id}")
            if job.state not in JobState.RESUMABLE:
                raise ValueError(
                    f"job {job_id} is {job.state}; only "
                    f"{'/'.join(JobState.RESUMABLE)} jobs can be resumed"
                )
            quota = self.quota_for(job.tenant)
            if quota.max_demand is not None:
                held = self._tenant_demand_locked(job.tenant)
                if held + job.spec.demand > quota.max_demand:
                    raise QuotaError(
                        job.tenant,
                        f"demand quota exceeded: holding {held} of "
                        f"{quota.max_demand}, job asks {job.spec.demand} more",
                    )
            job.state = JobState.PENDING
            job.control = _JobControl()
            job.error = None
            job.reason = None
            job.finished_at = None
            self._queues.setdefault(job.tenant, deque()).append(job)
            self.resumed += 1
            self.telemetry.count("service.resumed")
            self._update_gauges_locked()
            self._cond.notify_all()
        self._write_status(job)
        return job_id

    # -- the service loop ----------------------------------------------------

    def _serve_loop(self) -> None:
        """Drive every running job, one round (one generation each) at a
        time, until :meth:`close` and the last running job has stopped."""
        runs: list[_Run] = []
        while True:
            with self._cond:
                while True:
                    claimed = self._claim_locked(self.max_concurrent - len(runs))
                    if runs or claimed or self._closing:
                        break
                    self._cond.wait()
                if not runs and not claimed:
                    return
            for job in claimed:
                self._write_status(job)
                run = self._start_run(job)
                if run is not None:
                    runs.append(run)
            if runs:
                runs = self._round(runs)

    def _claim_locked(self, slots: int) -> list[_Job]:
        """Claim up to ``slots`` PENDING jobs by the fair rule of
        :meth:`_pick_locked`; none once the service is closing."""
        claimed: list[_Job] = []
        while not self._closing and len(claimed) < slots:
            job = self._pick_locked()
            if job is None:
                break
            job.state = JobState.RUNNING
            job.started_at = time.time()
            job.attempts += 1
            claimed.append(job)
        if claimed:
            self._update_gauges_locked()
        return claimed

    def _pick_locked(self) -> _Job | None:
        """Fair claim: FIFO within a tenant, round-robin across tenants,
        honouring each tenant's ``max_running``."""
        tenants = sorted(t for t, q in self._queues.items() if q)
        if not tenants:
            return None
        if self._rr_tenant in tenants:
            start = tenants.index(self._rr_tenant) + 1
        else:
            start = 0
        for offset in range(len(tenants)):
            tenant = tenants[(start + offset) % len(tenants)]
            if self._running_locked(tenant) >= self.quota_for(tenant).max_running:
                continue
            self._rr_tenant = tenant
            return self._queues[tenant].popleft()
        return None

    def _start_run(self, job: _Job) -> "_Run | None":
        """Open the job's client, engine and checkpoints and advance its
        ``steps()`` generator to the first batch; ``None`` if the job
        ended there already (failed, or stopped at a restored barrier)."""
        spec = job.spec
        run = _Run(job)
        try:
            run.client = self._fabric.client(
                spec.target, job.non_targets, telemetry=run.registry
            )
            engine = InSiPSEngine(
                run.client,
                spec.params,
                population_size=spec.population_size,
                candidate_length=spec.candidate_length,
                seed=spec.seed,
                telemetry=run.registry,
            )
            manager = CheckpointManager(
                job.checkpoint_dir,
                every=spec.checkpoint_every,
                fsync=self.fsync,
                telemetry=run.registry,
            )
            with self._lock:
                job.manager = manager
                if job.control.stop_requested:
                    manager.request_save()
            if find_latest(job.checkpoint_dir) is not None:
                engine.resume(job.checkpoint_dir)

            def on_generation(population, stats) -> None:
                # stats.generation is 0-based; report completed count.
                job.generations_done = int(stats.generation) + 1
                job.best_fitness = float(stats.best_fitness)
                self._write_status(job)

            run.steps = engine.steps(
                _ControlledTermination(
                    MaxGenerations(spec.generations), job.control
                ),
                on_generation=on_generation,
                checkpoint=manager,
                deadline=spec.deadline_s,
            )
            run.batch = next(run.steps)
        except StopIteration as stop:
            self._finish_job(run, stop.value, None)
            return None
        except Exception as exc:  # recorded on the job
            self._finish_job(run, None, exc)
            return None
        return run

    def _round(self, runs: list[_Run]) -> list[_Run]:
        """One generation of every running job: their cache misses go to
        the pool in one fused dispatch, in claim order, then each job gets
        its scores back and advances to its next batch.  A failed
        dispatch fails exactly the jobs with items in it.  Returns the
        jobs still running."""
        lookups = [run.client.lookup(*run.batch) for run in runs]
        fused = [i for i, lookup in enumerate(lookups) if lookup.arrays]
        fresh: dict[int, list[ScoreSet]] = {}
        failure: Exception | None = None
        started = time.perf_counter()
        try:
            scored = self._fabric.dispatch(
                [(runs[i].client, lookups[i].arrays) for i in fused]
            )
            fresh = dict(zip(fused, scored))
        except Exception as exc:  # fails the fused jobs, below
            failure = exc
        elapsed = time.perf_counter() - started
        still_running: list[_Run] = []
        for i, (run, lookup) in enumerate(zip(runs, lookups)):
            try:
                if failure is not None and lookup.arrays:
                    run.batch = run.steps.throw(failure)
                else:
                    run.registry.record_timing("ga.evaluate", elapsed)
                    run.batch = run.steps.send(
                        run.client.store(lookup, fresh.get(i, []))
                    )
            except StopIteration as stop:
                self._finish_job(run, stop.value, None)
            except Exception as exc:  # recorded on the job
                self._finish_job(run, None, exc)
            else:
                still_running.append(run)
        return still_running

    def _finish_job(
        self,
        run: "_Run",
        result: GAResult | None,
        error: BaseException | None,
    ) -> None:
        job = run.job
        with self._lock:
            job.manager = None
        if run.client is not None:
            try:
                run.client.close()
            except Exception:  # pragma: no cover - best effort
                pass
        try:
            export_jsonl(run.registry, job.dir / "telemetry.jsonl")
        except Exception:  # pragma: no cover - best effort
            pass
        elapsed = time.perf_counter() - run.started
        spec = job.spec
        stopped = job.control.requested
        payload: dict[str, object] | None = None
        if result is not None and error is None:
            finished = len(result.history) >= spec.generations or (
                not result.completed
            )
            if finished:
                state = JobState.DONE
                payload = self._result_payload(job, result)
                job.best_fitness = float(result.best_fitness)
            else:
                state = (
                    JobState.CANCELLED
                    if stopped == "cancel"
                    else JobState.EVICTED
                )
                job.reason = f"{stopped} at generation {len(result.history)}"
        elif stopped is not None:
            # The stop raced the run hard enough to surface as an error
            # (e.g. the fabric closed under it) — still a clean
            # cancel/evict, resumable from the last snapshot.
            state = (
                JobState.CANCELLED if stopped == "cancel" else JobState.EVICTED
            )
            job.reason = f"{stopped} ({type(error).__name__})" if error else stopped
        else:
            state = JobState.FAILED
            job.error = f"{type(error).__name__}: {error}"
        if payload is not None:
            atomic_write(
                job.dir / "result.json",
                json.dumps(payload, indent=1, sort_keys=True),
                fsync=self.fsync,
            )
        with self._lock:
            job.state = state
            job.finished_at = time.time()
            self._count_outcome_locked(state)
            self.telemetry.record_timing("service.job", elapsed)
            self.telemetry.event(
                "service.job_finished",
                job_id=job.job_id,
                tenant=job.tenant,
                state=state,
                attempts=job.attempts,
                elapsed_s=elapsed,
            )
            self._update_gauges_locked()
        self._write_status(job)

    def _result_payload(self, job: _Job, result: GAResult) -> dict[str, object]:
        best = result.best
        return {
            "format": RESULT_FORMAT,
            "version": SCHEMA_VERSION,
            "job_id": job.job_id,
            "tenant": job.tenant,
            "target": job.spec.target,
            "non_targets": list(job.non_targets),
            "sequence": best.sequence,
            "fitness": float(best.fitness),
            "target_score": float(best.target_score),
            "max_non_target": float(best.max_non_target),
            "avg_non_target": float(best.avg_non_target),
            "generations": int(result.generations),
            "evaluations": int(result.evaluations),
            "completed": bool(result.completed),
            "stop_reason": result.stop_reason,
            "seed": job.spec.seed,
            "history_digest": history_digest(result.history),
        }

    # -- telemetry / persistence helpers -------------------------------------

    def _count_outcome_locked(self, state: str) -> None:
        self.telemetry.count(f"service.{state.lower()}")

    def _update_gauges_locked(self) -> None:
        self.telemetry.set_gauge("service.jobs.queued", self._queued_locked())
        self.telemetry.set_gauge("service.jobs.running", self._running_locked())
        self.telemetry.set_gauge(
            "service.jobs.evicted",
            sum(
                1
                for job in self._jobs.values()
                if job.state == JobState.EVICTED
            ),
        )

    def _write_status(self, job: _Job) -> None:
        with self._lock:
            payload = job.status_payload()
        atomic_write(
            job.dir / "status.json",
            json.dumps(payload, indent=1, sort_keys=True),
            fsync=self.fsync,
        )

    # -- crash recovery ------------------------------------------------------

    def _recover_jobs(self) -> None:
        """Re-admit jobs a dead service left ``PENDING``/``RUNNING``.

        Their artifact directories already hold spec + snapshots; a
        recovered job resumes from its newest valid snapshot when the
        service loop claims it.  Runs once, at construction.  Terminal
        jobs are loaded as records so status/resume keep working across
        restarts.
        """
        recovered: list[_Job] = []
        for spec_path in sorted((self.root / "jobs").glob("*/spec.json")):
            directory = spec_path.parent
            job_id = directory.name
            try:
                spec = JobSpec.from_payload(_read_json(spec_path, "job spec"))
                status = read_status(self.root, job_id)
                submitted_at = _status_field(status, "submitted_at", (int, float))
                attempts = _status_field(status, "attempts", int)
                generations_done = _status_field(status, "generations_done", int)
                best_fitness = _status_field(status, "best_fitness", (int, float))
                finished_at = _status_field(status, "finished_at", (int, float))
            except (ValueError, OSError, json.JSONDecodeError, FileNotFoundError):
                continue
            non_targets = list(spec.non_targets or ())
            job = _Job(spec, job_id, non_targets, directory)
            if submitted_at:
                job.submitted_at = float(submitted_at)
            job.attempts = attempts or 0
            job.generations_done = generations_done or 0
            job.best_fitness = best_fitness
            job.error = status.get("error")
            job.reason = status.get("reason")
            state = status.get("state")
            number = re.fullmatch(r"job-(\d+)", job_id)
            if number:
                self._next_job_number = max(
                    self._next_job_number, int(number.group(1)) + 1
                )
            if state in (JobState.PENDING, JobState.RUNNING):
                job.state = JobState.PENDING
                job.reason = f"recovered from {state}"
                self._jobs[job_id] = job
                self._queues.setdefault(job.tenant, deque()).append(job)
                recovered.append(job)
                self.recovered += 1
                self.telemetry.count("service.recovered")
            elif state in JobState.TERMINAL:
                job.state = state
                job.finished_at = finished_at
                self._jobs[job_id] = job
        with self._lock:
            self._update_gauges_locked()
        for job in recovered:
            self._write_status(job)

    # -- the file control plane ----------------------------------------------

    def poll_control_plane(self) -> int:
        """Process queued submit requests and cancel markers once.

        Returns how many control actions were taken.  Rejected requests
        (quota, validation, an entry that cannot be read) are recorded
        under ``<root>/rejected/`` with the tenant and reason, then taken
        out of the queue — rejection is deterministic and inspectable,
        never silent, and one bad entry never blocks the ones after it.
        A cancel marker under a job that is neither PENDING nor RUNNING
        is refused the same way (recorded with the job id and its state)
        and removed, so it cannot cancel a later resume of that job.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        actions = 0
        queue = self.root / "queue"
        rejected_dir = self.root / "rejected"
        if queue.is_dir():
            for request in sorted(queue.glob("*.json")):
                actions += 1
                try:
                    self.submit(JobSpec.from_payload(_read_request(request)))
                except (QuotaError, ValueError, KeyError) as exc:
                    rejected_dir.mkdir(exist_ok=True)
                    atomic_write(
                        rejected_dir / request.name,
                        json.dumps(
                            {
                                "request": request.name,
                                "tenant": getattr(exc, "tenant", None),
                                "reason": getattr(exc, "reason", str(exc)),
                                "error": f"{type(exc).__name__}: {exc}",
                            },
                            indent=1,
                            sort_keys=True,
                        ),
                        fsync=self.fsync,
                    )
                finally:
                    try:
                        request.unlink()
                    except FileNotFoundError:  # pragma: no cover - racing deletion
                        pass
                    except OSError:
                        # Not a file (a directory, say): move it next to
                        # its rejection record, out of the next poll's way.
                        try:
                            request.rename(rejected_dir / f"{request.name}.entry")
                        except OSError:  # pragma: no cover - name taken
                            pass
        with self._lock:
            jobs = [(job, job.state) for job in self._jobs.values()]
        for job, state in jobs:
            marker = job.dir / "cancel.request"
            if not marker.exists():
                continue
            actions += 1
            if state in (JobState.PENDING, JobState.RUNNING):
                try:
                    self.cancel(job.job_id)
                except (ValueError, KeyError):
                    pass
            else:
                # A marker left under a stopped job would cancel it at the
                # first poll after a resume: refuse it now, on the record.
                rejected_dir.mkdir(exist_ok=True)
                record = f"cancel-{job.job_id}-{time.time_ns():020d}.json"
                atomic_write(
                    rejected_dir / record,
                    json.dumps(
                        {
                            "request": "cancel.request",
                            "job_id": job.job_id,
                            "state": state,
                            "reason": f"job is {state}; cannot cancel it",
                        },
                        indent=1,
                        sort_keys=True,
                    ),
                    fsync=self.fsync,
                )
            try:
                marker.unlink()
            except OSError:  # pragma: no cover - racing deletion
                pass
        return actions

    def serve_forever(
        self,
        *,
        poll_s: float = 0.2,
        max_seconds: float | None = None,
        idle_exit_s: float | None = None,
    ) -> None:
        """Run the control-plane loop until interrupted.

        ``max_seconds`` bounds the loop's wall clock; ``idle_exit_s``
        exits after that long with no pending/running jobs and an empty
        request queue (both are for smoke tests and CI — a production
        loop passes neither and runs until SIGINT).
        """
        check_positive(poll_s, "poll_s")
        start = time.monotonic()
        last_busy = time.monotonic()
        while True:
            self.poll_control_plane()
            with self._lock:
                busy = self._queued_locked() > 0 or self._running_locked() > 0
            if busy or any((self.root / "queue").glob("*.json")):
                last_busy = time.monotonic()
            if max_seconds is not None and time.monotonic() - start >= max_seconds:
                return
            if (
                idle_exit_s is not None
                and time.monotonic() - last_busy >= idle_exit_s
            ):
                return
            time.sleep(poll_s)

    # -- shutdown ------------------------------------------------------------

    def close(self, *, join_timeout_s: float = 120.0) -> None:
        """Evict running jobs (checkpoint + release, at their next
        barrier), stop the service loop and close the fabric;
        idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closing = True
            running = [
                job
                for job in self._jobs.values()
                if job.state == JobState.RUNNING
            ]
            for job in running:
                if job.control.requested is None:
                    job.control.requested = "evict"
                    job.reason = "evict on service close"
                    if job.manager is not None:
                        job.manager.request_save()
            self._cond.notify_all()
        self._loop.join(timeout=join_timeout_s)
        self._fabric.close()
        with self._lock:
            self._closed = True
            self._update_gauges_locked()

    def __enter__(self) -> "DesignService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
