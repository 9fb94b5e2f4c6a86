"""Per-generation statistics and run histories.

Each generation records the three PIPE statistics of the fittest
individual — score against the target, against the highest-scoring
non-target, and the average non-target score — exactly the three line
styles of the paper's Figure 7 learning curves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.ga.population import Population

__all__ = ["GenerationStats", "RunHistory"]


@dataclass(frozen=True)
class GenerationStats:
    """Summary of one evaluated generation."""

    generation: int
    best_fitness: float
    mean_fitness: float
    best_target_score: float
    best_max_non_target: float
    best_avg_non_target: float
    evaluations: int

    def to_payload(self) -> dict[str, object]:
        """JSON-safe snapshot (field-for-field; floats round-trip exactly)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict[str, object]) -> "GenerationStats":
        """Rebuild stats saved by :meth:`to_payload`."""
        return cls(**payload)

    @classmethod
    def from_population(
        cls, population: Population, *, evaluations: int = 0
    ) -> "GenerationStats":
        best = population.best()
        return cls(
            generation=population.generation,
            best_fitness=float(best.fitness),
            mean_fitness=population.mean_fitness(),
            best_target_score=float(best.target_score or 0.0),
            best_max_non_target=float(best.max_non_target or 0.0),
            best_avg_non_target=float(best.avg_non_target or 0.0),
            evaluations=evaluations,
        )


@dataclass
class RunHistory:
    """Chronological generation statistics for one InSiPS run.

    Besides the per-generation stats, the history carries the run's
    *degradation records*: structured notes the campaign supervisor
    appends when it had to stop early or soldier on through faults
    (deadline expiry, evaluation retries, exhausted retry budgets).
    They make a partial result self-describing — a consumer of a
    ``completed=False`` :class:`~repro.ga.engine.GAResult` can read why
    without scraping logs.
    """

    stats: list[GenerationStats] = field(default_factory=list)
    degradations: list[dict] = field(default_factory=list)

    def append(self, s: GenerationStats) -> None:
        if self.stats and s.generation <= self.stats[-1].generation:
            raise ValueError(
                f"generation {s.generation} not after {self.stats[-1].generation}"
            )
        self.stats.append(s)

    def record_degradation(self, kind: str, **details: object) -> dict:
        """Append one JSON-safe degradation record and return it.

        ``kind`` names the event (the engine records ``"deadline"``);
        ``details`` must be JSON-serialisable (they ride inside
        checkpoint snapshots).
        """
        record: dict = {"kind": str(kind), **details}
        self.degradations.append(record)
        return record

    def __len__(self) -> int:
        return len(self.stats)

    def __iter__(self):
        return iter(self.stats)

    def best_fitness_curve(self) -> np.ndarray:
        return np.array([s.best_fitness for s in self.stats], dtype=np.float64)

    def running_best(self) -> np.ndarray:
        """Monotone best-so-far fitness curve."""
        curve = self.best_fitness_curve()
        return np.maximum.accumulate(curve) if curve.size else curve

    def generations_since_improvement(self, min_improvement: float = 0.0) -> int:
        """Generations elapsed since the best-so-far fitness last rose."""
        curve = self.best_fitness_curve()
        if curve.size == 0:
            return 0
        best = curve[0]
        last_improved = 0
        for i in range(1, curve.size):
            if curve[i] > best + min_improvement:
                best = curve[i]
                last_improved = i
        return int(curve.size - 1 - last_improved)

    def learning_curves(self) -> dict[str, np.ndarray]:
        """The Figure 7 series keyed ``target`` / ``max_non_target`` /
        ``avg_non_target`` plus ``best_fitness``."""
        return {
            "generation": np.array([s.generation for s in self.stats]),
            "target": np.array([s.best_target_score for s in self.stats]),
            "max_non_target": np.array(
                [s.best_max_non_target for s in self.stats]
            ),
            "avg_non_target": np.array(
                [s.best_avg_non_target for s in self.stats]
            ),
            "best_fitness": self.best_fitness_curve(),
        }

    @property
    def final_best_fitness(self) -> float:
        if not self.stats:
            raise ValueError("empty history")
        return float(self.running_best()[-1])

    # -- checkpoint serialization -------------------------------------------

    def to_payload(self) -> dict[str, object]:
        """JSON-safe snapshot: chronological stats plus degradations."""
        return {
            "stats": [s.to_payload() for s in self.stats],
            "degradations": [dict(d) for d in self.degradations],
        }

    @classmethod
    def from_payload(cls, payload) -> "RunHistory":
        """Rebuild a history saved by :meth:`to_payload`.

        Accepts both the current dict format and the bare stats list
        written by pre-supervisor snapshots, so old checkpoints stay
        resumable.
        """
        if isinstance(payload, dict):
            records = payload.get("stats", [])
            degradations = [dict(d) for d in payload.get("degradations", [])]
        else:
            records, degradations = payload, []
        history = cls()
        for record in records:
            history.append(GenerationStats.from_payload(record))
        history.degradations = degradations
        return history
