"""The :class:`InhibitorDesigner` facade."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ga.config import GAParams, WETLAB_PARAMS
from repro.ga.engine import GAResult, InSiPSEngine
from repro.ga.fitness import ScoreProvider
from repro.ga.population import Individual
from repro.ga.stats import RunHistory
from repro.ga.termination import PaperTermination, TerminationCriterion
from repro.sequences.protein import Protein
from repro.synthetic.world import SyntheticWorld
from repro.telemetry import MetricsRegistry
from repro.wetlab.binding import InhibitionProfile

__all__ = ["DesignResult", "InhibitorDesigner"]


@dataclass
class DesignResult:
    """Outcome of one inhibitor design run."""

    target: str
    non_targets: list[str]
    best: Individual
    history: RunHistory
    generations: int
    evaluations: int
    seed: int | None = None
    #: False when the wall-clock deadline stopped the campaign early;
    #: ``stop_reason`` says why and ``history.degradations`` carries the
    #: details.
    completed: bool = True
    stop_reason: str | None = None

    @property
    def fitness(self) -> float:
        return float(self.best.fitness)

    def inhibition_profile(self) -> InhibitionProfile:
        """The design's predicted interaction profile, as the paper reports
        it (target score, maximum and average off-target score)."""
        return InhibitionProfile(
            target=self.target,
            target_score=float(self.best.target_score),
            max_off_target_score=float(self.best.max_non_target),
            avg_off_target_score=float(self.best.avg_non_target),
        )

    def designed_protein(self) -> Protein:
        """The designed sequence as a named protein (``anti-<target>``)."""
        return Protein(
            f"anti-{self.target}",
            self.best.sequence,
            {
                "designed": True,
                "target": self.target,
                "fitness": self.fitness,
            },
        )

    def synthesis_order(self, *, seed: int = 0) -> dict[str, object]:
        """Everything a DNA-synthesis vendor needs (the paper's Sec. 4.2
        step: "the coding DNA ... was commercially synthesized").

        Returns the yeast-codon-sampled coding DNA, its GC content, the
        protein's physicochemical summary and any synthesisability red
        flags.
        """
        from repro.sequences.codon import gc_content, reverse_translate
        from repro.sequences.properties import (
            gravy,
            molecular_weight,
            net_charge,
            synthesis_flags,
        )

        protein = self.best.sequence
        dna = reverse_translate(protein, mode="sampled", seed=seed)
        return {
            "name": f"anti-{self.target}",
            "protein": protein,
            "coding_dna": dna,
            "gc_content": gc_content(dna),
            "molecular_weight_da": molecular_weight(protein),
            "net_charge": net_charge(protein),
            "gravy": gravy(protein),
            "flags": synthesis_flags(protein),
        }


@dataclass
class InhibitorDesigner:
    """Design inhibitory proteins against targets in a world.

    Parameters
    ----------
    world:
        The proteome + interactome the PIPE engine mines.
    params:
        GA operator probabilities (defaults to the paper's wet-lab set).
    population_size, candidate_length:
        GA scale; default to the world profile's values when built through
        :meth:`from_profile`, else to modest stand-alone defaults.
    non_target_limit:
        Cap on the same-component non-target list (None = all, as in the
        paper).
    backend, workers:
        Scoring backend selection, forwarded to
        :func:`repro.providers.make_score_provider` — ``"serial"``
        (default) or ``"process"``; ``workers`` sizes the process pool.
        A fabric client needs a :class:`~repro.fabric.ScoringFabric`, so
        it comes through ``provider_factory``.
    provider_factory:
        Optional callable ``(engine, target, non_targets) -> ScoreProvider``
        overriding ``backend`` entirely (escape hatch for custom
        providers, e.g. fault-injecting test runtimes).
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry`.  When given it
        is attached to the PIPE engine, the score provider and the GA
        engine, so one registry collects the kernel, cache and
        per-generation metrics of every design run.
    """

    world: SyntheticWorld
    params: GAParams = field(default_factory=lambda: WETLAB_PARAMS)
    population_size: int = 60
    candidate_length: int = 64
    non_target_limit: int | None = None
    backend: str = "serial"
    workers: int | None = None
    provider_factory: object | None = None
    telemetry: MetricsRegistry | None = None

    @classmethod
    def from_profile(cls, profile, *, seed: int | None = None, **overrides):
        """Build designer + world from a :class:`repro.synthetic.Profile`."""
        world = profile.build_world(seed=seed)
        kwargs = dict(
            population_size=profile.population_size,
            candidate_length=profile.candidate_length,
            non_target_limit=profile.non_target_limit,
        )
        kwargs.update(overrides)
        return cls(world, **kwargs)

    def non_targets_for(self, target: str) -> list[str]:
        return self.world.non_targets_for(target, limit=self.non_target_limit)

    def _provider(self, target: str, non_targets: list[str]) -> ScoreProvider:
        if self.provider_factory is not None:
            provider = self.provider_factory(self.world.engine, target, non_targets)
            if self.telemetry is not None:
                provider.set_telemetry(self.telemetry)
            return provider
        from repro.providers import make_score_provider

        return make_score_provider(
            self.world.engine,
            target,
            non_targets,
            backend=self.backend,
            workers=self.workers,
            telemetry=self.telemetry,
        )

    def design(
        self,
        target: str,
        *,
        seed: int | None = None,
        termination: TerminationCriterion | int | None = None,
        non_targets: list[str] | None = None,
        on_generation=None,
        checkpoint=None,
        resume_from=None,
        deadline=None,
    ) -> DesignResult:
        """Run InSiPS against ``target``.

        ``termination`` defaults to the paper's rule (min generations +
        stall window) scaled down hard for interactive use; pass an int for
        a fixed generation budget.

        ``checkpoint`` is an optional
        :class:`~repro.checkpoint.CheckpointManager` for crash-safe
        periodic snapshots; ``resume_from`` (a snapshot file or checkpoint
        directory) restores an interrupted campaign before running — the
        resumed run is bit-exact with an uninterrupted one, provided
        ``seed`` and the problem are unchanged.

        ``deadline`` (a :class:`~repro.resilience.policies.Deadline` or
        plain seconds) is forwarded to
        :meth:`~repro.ga.engine.InSiPSEngine.run`; a deadline stop returns
        the best-so-far design with ``completed=False``.
        """
        nts = non_targets if non_targets is not None else self.non_targets_for(target)
        if termination is None:
            termination = PaperTermination(min_generations=30, stall=10, hard_limit=120)
        if self.telemetry is not None:
            self.world.engine.set_telemetry(self.telemetry)
        # The provider is a context manager: workers (in the parallel
        # backend) are reaped even when the GA raises.
        with self._provider(target, nts) as provider:
            engine = InSiPSEngine(
                provider,
                self.params,
                population_size=self.population_size,
                candidate_length=self.candidate_length,
                seed=seed,
                telemetry=self.telemetry,
            )
            if resume_from is not None:
                engine.resume(resume_from)
            result: GAResult = engine.run(
                termination,
                on_generation=on_generation,
                checkpoint=checkpoint,
                deadline=deadline,
            )
        return DesignResult(
            target=target,
            non_targets=nts,
            best=result.best,
            history=result.history,
            generations=result.generations,
            evaluations=result.evaluations,
            seed=seed,
            completed=result.completed,
            stop_reason=result.stop_reason,
        )

    def design_many(
        self,
        target: str,
        seeds: list[int],
        *,
        termination: TerminationCriterion | int | None = None,
    ) -> DesignResult:
        """The paper's restart protocol: rerun with several random seeds
        and keep the best design (Sec. 4.2 reruns the top candidates three
        times)."""
        if not seeds:
            raise ValueError("seeds must be non-empty")
        results = [
            self.design(target, seed=s, termination=termination) for s in seeds
        ]
        return max(results, key=lambda r: r.fitness)
