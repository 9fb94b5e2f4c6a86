"""The InSiPS main loop (Figure 1 / Algorithm 1's GA responsibilities).

The engine owns exactly what the paper's master process owns: initial
population generation, fitness combination, operator application and the
termination decision.  PIPE scoring is delegated to a
:class:`~repro.ga.fitness.ScoreProvider`, which is either in-process
(serial reference) or the multiprocessing master/worker runtime.

The loop is written once, as a generator: :meth:`InSiPSEngine.steps`
yields each generation's unevaluated members and takes their scores
back, so whoever drives it decides how a batch is scored.
:meth:`InSiPSEngine.run` is the short driver that scores through the
engine's provider; :class:`~repro.service.DesignService` drives every
running job's generator from one loop and scores all of a round's
batches in one fused dispatch.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.ga.config import GAParams
from repro.ga.fitness import FitnessFunction, ScoreProvider, ScoreSet
from repro.ga.operators import (
    crossover_with_provenance,
    mutate_with_provenance,
    point_copy_with_provenance,
)
from repro.ga.population import Individual, Population
from repro.ga.selection import selection_probabilities, spin_wheel
from repro.ga.stats import GenerationStats, RunHistory
from repro.ga.termination import MaxGenerations, TerminationCriterion
from repro.sequences.random_gen import RandomSequenceGenerator
from repro.telemetry import NULL_REGISTRY, MetricsRegistry
from repro.util.rng import derive_rng

__all__ = ["GAResult", "InSiPSEngine"]

_OPERATIONS = ("copy", "mutate", "crossover")


@dataclass
class GAResult:
    """Outcome of one InSiPS run.

    ``completed`` is ``False`` when the wall-clock deadline stopped the
    campaign early; the result then carries the best-so-far individual
    and ``stop_reason`` (``"deadline"``) says why — details live in
    ``history.degradations``.
    """

    best: Individual
    history: RunHistory
    generations: int
    evaluations: int
    completed: bool = True
    stop_reason: str | None = None

    @property
    def best_fitness(self) -> float:
        return float(self.best.fitness)


class InSiPSEngine:
    """Runs the InSiPS genetic algorithm for one design problem.

    Parameters
    ----------
    provider:
        Score provider bound to a (target, non-targets) problem.
    params:
        GA operator probabilities.
    population_size:
        Number of sequences per generation (paper: 1000–1500).
    candidate_length:
        Length of generated candidate sequences.
    seed:
        Run seed; two runs with the same seed and problem are identical
        (the Sec. 4.1 "Seed 1/2/3" columns).
    telemetry:
        Metrics registry; defaults to the zero-overhead null registry.
        When enabled, the engine times each generation's evaluation and
        breeding phases (``ga.evaluate`` / ``ga.next_generation``), counts
        operator applications (``ga.op.*``), records the population
        fitness distribution (``ga.fitness``) and appends one
        ``ga.generation`` event per generation.  Telemetry never affects
        GA results.
    """

    def __init__(
        self,
        provider: ScoreProvider,
        params: GAParams,
        *,
        population_size: int,
        candidate_length: int,
        seed: int | np.random.Generator | None = None,
        initializer=None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        if population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {population_size}")
        if candidate_length < 2:
            raise ValueError(f"candidate_length must be >= 2, got {candidate_length}")
        self.provider = provider
        self.fitness = FitnessFunction(provider)
        self.params = params
        self.population_size = int(population_size)
        self.candidate_length = int(candidate_length)
        self._rng = derive_rng(seed, "insips-engine")
        self._init_rng = derive_rng(self._rng, "init-pop")
        self._initializer = initializer
        self.evaluations = 0
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        # Constructor-time configuration identity; snapshots embed it and
        # resume() refuses a snapshot whose fingerprint differs (adaptive
        # runs mutate self.params later, so it is captured here, once).
        self._config_fingerprint = self._fingerprint()
        self._restored: dict | None = None

    def _fingerprint(self) -> str:
        """Hash of the GA + problem configuration a snapshot belongs to."""
        ident = {
            "kind": type(self).__name__,
            "params": self.params.to_payload(),
            "population_size": self.population_size,
            "candidate_length": self.candidate_length,
            "target": getattr(self.provider, "target", None),
            "non_targets": list(getattr(self.provider, "non_targets", []) or []),
        }
        blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @property
    def config_fingerprint(self) -> str:
        return self._config_fingerprint

    # -- population construction ------------------------------------------------

    def initial_population(self) -> Population:
        """The starting population: random by default (the paper's
        bias-free recommendation), or whatever
        :class:`~repro.ga.seeding.PopulationInitializer` was configured."""
        if self._initializer is not None:
            pop = self._initializer.population(
                self.population_size, self.candidate_length, self._init_rng
            )
            if len(pop) != self.population_size:
                raise ValueError(
                    f"initializer produced {len(pop)} members, "
                    f"expected {self.population_size}"
                )
            return pop
        generator = RandomSequenceGenerator(
            self.candidate_length, self.candidate_length, seed=self._init_rng
        )
        members = [
            Individual(seq) for seq in generator.population(self.population_size)
        ]
        return Population(members, generation=0)

    def next_generation(self, current: Population) -> Population:
        """Build the next generation from an evaluated population.

        Each step draws an operation according to the configured
        probabilities, selects parent(s) fitness-proportionally, applies
        the operation, and appends the new sequence(s); crossover can
        overshoot the population size by one, in which case the surplus
        child is dropped (keeping generations exactly equal-sized).  The
        roulette wheel is built once: ``current``'s fitness is fixed while
        it breeds.
        """
        telemetry = self.telemetry
        nxt = Population(generation=current.generation + 1)
        probs = np.array(self.params.operation_probabilities)
        wheel = selection_probabilities(current.fitness_array())
        while len(nxt) < self.population_size:
            op = _OPERATIONS[int(self._rng.choice(3, p=probs))]
            if op == "copy":
                telemetry.count("ga.op.copy")
                (i,) = spin_wheel(wheel, self._rng, 1)
                parent = current[i]
                copied, prov = point_copy_with_provenance(parent.encoded)
                child = Individual(copied, provenance=prov)
                # A verbatim copy keeps its scores; no re-evaluation needed.
                child.fitness = parent.fitness
                child.target_score = parent.target_score
                child.max_non_target = parent.max_non_target
                child.avg_non_target = parent.avg_non_target
                nxt.append(child)
            elif op == "mutate":
                telemetry.count("ga.op.mutate")
                (i,) = spin_wheel(wheel, self._rng, 1)
                mutated, prov = mutate_with_provenance(
                    current[i].encoded, self.params.p_mutate_aa, self._rng
                )
                child = Individual(mutated, provenance=prov)
                self._bred(child, op, float(current[i].fitness))
                nxt.append(child)
            else:  # crossover
                telemetry.count("ga.op.crossover")
                i, j = spin_wheel(wheel, self._rng, 2)
                parent_fitness = max(
                    float(current[i].fitness), float(current[j].fitness)
                )
                for c, prov in crossover_with_provenance(
                    current[i].encoded,
                    current[j].encoded,
                    self.params.crossover_margin,
                    self._rng,
                ):
                    if len(nxt) >= self.population_size:
                        break
                    child = Individual(c, provenance=prov)
                    self._bred(child, op, parent_fitness)
                    nxt.append(child)
        return nxt

    def _bred(self, child: Individual, op: str, parent_fitness: float) -> None:
        """Hook: ``child`` was bred by ``op`` (``"mutate"`` or
        ``"crossover"``) from parents whose best fitness is
        ``parent_fitness``; copies are not reported."""

    # -- main loop ---------------------------------------------------------------

    def evaluate_population(self, population: Population) -> int:
        """Evaluate all unevaluated members; returns evaluation count."""
        pending = population.unevaluated_members()
        return self.apply_scores(
            population,
            pending,
            self.fitness.score(
                [m.encoded for m in pending], [m.provenance for m in pending]
            ),
        )

    def apply_scores(
        self,
        population: Population,
        pending: list[Individual],
        score_sets: list[ScoreSet],
    ) -> int:
        """Write one generation's scores onto its unevaluated members
        ``pending`` (aligned with ``score_sets``); returns their count."""
        self.fitness.apply(pending, score_sets)
        self.evaluations += len(pending)
        return len(pending)

    # -- checkpoint / resume -----------------------------------------------

    def checkpoint_state(
        self,
        population: Population,
        *,
        history: RunHistory,
        best: Individual | None,
        phase: str = "barrier",
        reason: str | None = None,
    ) -> dict:
        """The JSON-safe snapshot payload of this engine at ``population``.

        ``phase`` records where in the loop the state was captured:
        ``"barrier"`` (population evaluated, stats appended — the periodic
        snapshot point) or ``"pre_eval"`` (emergency: population bred, not
        yet fully evaluated, stats not appended).  RNG streams are saved
        as ``Generator.bit_generator.state`` so resume is bit-exact.
        """
        if phase not in ("barrier", "pre_eval"):
            raise ValueError(f"unknown checkpoint phase {phase!r}")
        state: dict = {
            "kind": type(self).__name__,
            "fingerprint": self._config_fingerprint,
            "phase": phase,
            "generation": int(population.generation),
            "population": population.to_payload(),
            "history": history.to_payload(),
            "best": best.to_payload() if best is not None else None,
            "evaluations": int(self.evaluations),
            "params": self.params.to_payload(),
            "rng": {
                "engine": self._rng.bit_generator.state,
                "init": self._init_rng.bit_generator.state,
            },
            "extra": self._extra_checkpoint_state(population),
        }
        if reason is not None:
            state["reason"] = str(reason)
        return state

    def _extra_checkpoint_state(self, population: Population) -> dict:
        """Subclass hook: additional state a snapshot must carry."""
        return {}

    def _restore_extra_state(self, extra: dict, population: Population) -> None:
        """Subclass hook: restore :meth:`_extra_checkpoint_state` output."""

    def _restore_rng(self, rng: np.random.Generator, state: dict) -> None:
        saved_kind = state.get("bit_generator")
        current_kind = rng.bit_generator.state.get("bit_generator")
        if saved_kind != current_kind:
            from repro.checkpoint import CheckpointError

            raise CheckpointError(
                f"snapshot RNG is {saved_kind!r}, engine uses {current_kind!r}"
            )
        rng.bit_generator.state = state

    def resume(self, source) -> int:
        """Restore engine state from a snapshot; returns its generation.

        ``source`` is a snapshot file or a checkpoint directory (the
        newest snapshot is used).  The engine must have been constructed
        with the same provider problem, params and population geometry —
        a fingerprint mismatch raises
        :class:`~repro.checkpoint.CheckpointError`.  The next
        :meth:`run` call continues the interrupted campaign bit-exactly.
        """
        from repro.checkpoint import CheckpointError, load_snapshot

        payload = load_snapshot(source, telemetry=self.telemetry)
        if payload.get("fingerprint") != self._config_fingerprint:
            raise CheckpointError(
                "snapshot fingerprint does not match this engine's "
                "configuration (different params, problem, geometry or "
                "engine kind)"
            )
        self._restore_rng(self._rng, payload["rng"]["engine"])
        self._restore_rng(self._init_rng, payload["rng"]["init"])
        self.evaluations = int(payload["evaluations"])
        self.params = GAParams.from_payload(payload["params"])
        population = Population.from_payload(payload["population"])
        self._restore_extra_state(payload.get("extra") or {}, population)
        best_payload = payload.get("best")
        self._restored = {
            "population": population,
            "history": RunHistory.from_payload(payload["history"]),
            "best": (
                Individual.from_payload(best_payload)
                if best_payload is not None
                else None
            ),
            "phase": payload.get("phase", "barrier"),
        }
        self.telemetry.count("checkpoint.restore")
        return int(payload["generation"])

    def _record_generation(self, population, stats, gen_start: float) -> None:
        """Record one generation's telemetry (metrics + one event)."""
        telemetry = self.telemetry
        fitness_hist = telemetry.histogram("ga.fitness")
        for member in population.members:
            if member.fitness is not None:
                fitness_hist.observe(float(member.fitness))
        cache_hit_rate = getattr(self.provider, "cache_hit_rate", None)
        telemetry.count("ga.generations")
        telemetry.event(
            "ga.generation",
            generation=stats.generation,
            best_fitness=stats.best_fitness,
            mean_fitness=stats.mean_fitness,
            best_target_score=stats.best_target_score,
            best_max_non_target=stats.best_max_non_target,
            evaluations=stats.evaluations,
            cache_hit_rate=cache_hit_rate,
            duration_s=time.perf_counter() - gen_start,
        )

    def _save_emergency(self, checkpoint, population, history, best, reason):
        if checkpoint is None:
            return
        try:
            checkpoint.save_emergency(
                self, population, history=history, best=best, reason=reason
            )
        except Exception:  # pragma: no cover - best effort
            pass

    def steps(
        self,
        termination: TerminationCriterion | int,
        *,
        on_generation=None,
        checkpoint=None,
        deadline=None,
    ) -> Generator[tuple[list[np.ndarray], list], list[ScoreSet], GAResult]:
        """The GA loop as a generator: one step per generation.

        Each step yields the generation's unevaluated members as
        ``(arrays, provenances)`` and takes their ``list[ScoreSet]``
        back through ``send``; the generator returns the
        :class:`GAResult` (``StopIteration.value``).  The caller decides
        how a batch is scored: :meth:`run` asks the provider, the design
        service fuses every running job's batch into one dispatch.
        Barrier checkpoints, resuming at a barrier, the deadline stop and
        ``on_generation`` happen in here, as :meth:`run` documents; the
        arguments mean what they mean there.

        A caller whose scoring failed throws the exception in
        (``throw``); the generator takes the emergency snapshot and
        re-raises it.
        """
        if isinstance(termination, int):
            termination = MaxGenerations(termination)
        deadline = _as_deadline(deadline)
        telemetry = self.telemetry
        restored = self._restored
        self._restored = None
        if restored is not None:
            population = restored["population"]
            history = restored["history"]
            best = restored["best"]
            at_barrier = restored["phase"] == "barrier"
        else:
            history = RunHistory()
            population = self.initial_population()
            best = None
            at_barrier = False
        while True:
            if not at_barrier:
                gen_start = time.perf_counter()
                pending = population.unevaluated_members()
                try:
                    score_sets = yield (
                        [m.encoded for m in pending],
                        [m.provenance for m in pending],
                    )
                    evals = self.apply_scores(population, pending, score_sets)
                except GeneratorExit:
                    raise
                except BaseException as exc:
                    reason = f"{type(exc).__name__}: {exc}"
                    self._save_emergency(
                        checkpoint, population, history, best, reason
                    )
                    raise
                stats = GenerationStats.from_population(
                    population, evaluations=evals
                )
                history.append(stats)
                gen_best = population.best()
                if best is None or gen_best.fitness > best.fitness:
                    best = gen_best
                if telemetry.enabled:
                    self._record_generation(population, stats, gen_start)
                if on_generation is not None:
                    on_generation(population, stats)
                if checkpoint is not None:
                    checkpoint.maybe_save(
                        self, population, history=history, best=best
                    )
            at_barrier = False
            if termination.should_stop(history):
                break
            if deadline is not None and deadline.expired():
                history.record_degradation(
                    "deadline",
                    generation=int(population.generation),
                    elapsed_s=float(deadline.elapsed()),
                    budget_s=deadline.budget_s,
                )
                telemetry.count("ga.supervised_stops")
                telemetry.event(
                    "ga.supervised_stop",
                    reason="deadline",
                    generation=int(population.generation),
                    elapsed_s=float(deadline.elapsed()),
                )
                if checkpoint is not None:
                    try:
                        checkpoint.save(
                            self, population, history=history, best=best
                        )
                    except Exception:  # pragma: no cover - best effort
                        pass
                assert best is not None
                return GAResult(
                    best=best,
                    history=history,
                    generations=len(history),
                    evaluations=self.evaluations,
                    completed=False,
                    stop_reason="deadline",
                )
            with telemetry.span("ga.next_generation"):
                population = self.next_generation(population)
        assert best is not None
        return GAResult(
            best=best,
            history=history,
            generations=len(history),
            evaluations=self.evaluations,
        )

    def run(
        self,
        termination: TerminationCriterion | int,
        *,
        on_generation=None,
        checkpoint=None,
        deadline=None,
    ) -> GAResult:
        """Execute the main GA loop until the termination criterion fires.

        ``termination`` may be an integer (max generations) for
        convenience.  ``on_generation`` is an optional callback
        ``(population, stats) -> None`` invoked after each evaluation,
        used by the experiment drivers to stream learning curves.
        ``checkpoint`` is an optional
        :class:`~repro.checkpoint.CheckpointManager`: due generations are
        snapshotted at the barrier (after evaluation and stats), and a
        dying evaluation (e.g. a
        :class:`~repro.parallel.mp_backend.WorkerFailureError` from a
        scoring bug, or a KeyboardInterrupt) triggers a best-effort emergency snapshot
        before the exception propagates.  Lost work is not retried here:
        the pool re-dispatches it, and a restart resumes from the newest
        valid snapshot.

        ``deadline`` — an optional
        :class:`~repro.resilience.policies.Deadline` (or plain seconds)
        bounding the campaign's wall clock.  Checked at each generation
        barrier; on expiry the run stops cleanly with the best-so-far
        result (``completed=False``, ``stop_reason="deadline"``), a final
        barrier snapshot (when checkpointing) and a degradation record,
        so ``--resume`` can continue it later.

        After :meth:`resume`, the restored state replaces the initial
        population and the loop continues exactly where the snapshot was
        taken — a barrier snapshot's generation is not re-evaluated, nor
        its stats re-appended or callbacks re-fired.

        ``run`` drives :meth:`steps`: it scores each yielded batch
        through the provider (the ``ga.evaluate`` span) and throws a
        failure into the generator.
        """
        steps = self.steps(
            termination,
            on_generation=on_generation,
            checkpoint=checkpoint,
            deadline=deadline,
        )
        try:
            arrays, provenances = next(steps)
            while True:
                try:
                    with self.telemetry.span("ga.evaluate"):
                        score_sets = self.fitness.score(arrays, provenances)
                except BaseException as exc:
                    steps.throw(exc)  # re-raises after the emergency snapshot
                else:
                    arrays, provenances = steps.send(score_sets)
        except StopIteration as stop:
            return stop.value


def _as_deadline(deadline):
    """``deadline`` as a :class:`~repro.resilience.policies.Deadline`;
    plain seconds start the clock now."""
    if deadline is not None and not hasattr(deadline, "expired"):
        from repro.resilience.policies import Deadline

        return Deadline.after(float(deadline))
    return deadline
