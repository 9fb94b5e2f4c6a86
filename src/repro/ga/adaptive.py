"""Adaptive operator probabilities (an InSiPS extension).

Sec. 4.1 shows InSiPS is robust across fixed operator mixes but leaves the
mix static.  A natural extension — and the reason the paper can skip
tuning — is to adapt the mutate/crossover balance online from operator
*success rates* (the fraction of children that beat their parents).  The
copy probability stays fixed (the paper: "this operation doesn't add
anything new to the next population"), and the adaptive shares are bounded
away from zero so no operator is ever starved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.population import Individual, Population

__all__ = ["AdaptiveOperatorController", "AdaptiveInSiPSEngine"]


@dataclass
class AdaptiveOperatorController:
    """Tracks per-operator success and re-balances the probabilities.

    Success rates are exponential moving averages; after each generation
    the mutate/crossover shares are set proportional to
    ``FLOOR + rate`` and renormalised to ``1 - p_copy``.
    """

    #: EMA smoothing for the per-generation success rates.
    SMOOTHING = 0.3
    #: Additive floor keeping every operator alive.
    FLOOR = 0.1
    #: Minimum share of the adaptive mass per operator.
    MIN_SHARE = 0.15

    base: GAParams
    _rates: dict[str, float] = field(default_factory=dict, init=False)
    _params: GAParams | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self._rates = {"mutate": 0.5, "crossover": 0.5}
        self._params = self.base

    @property
    def params(self) -> GAParams:
        return self._params if self._params is not None else self.base

    def observe(self, outcomes: dict[str, tuple[int, int]]) -> GAParams:
        """Feed one generation of ``op -> (improved, total)`` counts and
        return the re-balanced parameters."""
        for op in ("mutate", "crossover"):
            improved, total = outcomes.get(op, (0, 0))
            if total > 0:
                rate = improved / total
                self._rates[op] = (
                    (1 - self.SMOOTHING) * self._rates[op] + self.SMOOTHING * rate
                )
        adaptive_mass = 1.0 - self.base.p_copy
        weights = {
            op: self.FLOOR + self._rates[op] for op in ("mutate", "crossover")
        }
        total_w = sum(weights.values())
        shares = {op: w / total_w for op, w in weights.items()}
        lo = self.MIN_SHARE
        shares = {op: min(max(s, lo), 1.0 - lo) for op, s in shares.items()}
        norm = sum(shares.values())
        p_mutate = adaptive_mass * shares["mutate"] / norm
        p_crossover = adaptive_mass * shares["crossover"] / norm
        self._params = replace(
            self.base, p_mutate=p_mutate, p_crossover=p_crossover
        )
        return self._params

    def success_rates(self) -> dict[str, float]:
        return dict(self._rates)


class AdaptiveInSiPSEngine(InSiPSEngine):
    """InSiPS with online operator-probability adaptation.

    Children are tagged with their origin operator and the parent's
    fitness (the base breeding loop's :meth:`_bred` hook); after each
    evaluation the controller sees which operators produced improvements
    and re-balances ``params`` for the next generation.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.controller = AdaptiveOperatorController(self.params)
        self.params = self.controller.params
        self.params_history: list[GAParams] = [self.params]

    def _bred(self, child: Individual, op: str, parent_fitness: float) -> None:
        child.__dict__["origin"] = (op, parent_fitness)

    def apply_scores(self, population, pending, score_sets) -> int:
        evals = super().apply_scores(population, pending, score_sets)
        outcomes: dict[str, list[bool]] = {"mutate": [], "crossover": []}
        for member in population:
            origin = member.__dict__.get("origin")
            if origin is None:
                continue
            op, parent_fitness = origin
            outcomes[op].append(float(member.fitness) > parent_fitness)
        counted = {
            op: (sum(flags), len(flags)) for op, flags in outcomes.items()
        }
        if any(total for _, total in counted.values()):
            self.params = self.controller.observe(counted)
            self.params_history.append(self.params)
        return evals

    # -- checkpoint / resume -----------------------------------------------

    def _extra_checkpoint_state(self, population: Population) -> dict:
        """Controller EMA rates, the operator-mix trajectory, and the
        population's origin tags, so a resumed run adapts identically to
        an uninterrupted one.  Origin tags matter for *pre-eval*
        (emergency) snapshots: the bred-but-unevaluated children still owe
        the controller one observation, which needs their origins."""
        return {
            "controller": {"rates": self.controller.success_rates()},
            "params_history": [p.to_payload() for p in self.params_history],
            "origins": [
                list(member.__dict__["origin"])
                if "origin" in member.__dict__
                else None
                for member in population
            ],
        }

    def _restore_extra_state(self, extra: dict, population: Population) -> None:
        controller_state = extra.get("controller") or {}
        rates = controller_state.get("rates") or {}
        for op in ("mutate", "crossover"):
            if op in rates:
                self.controller._rates[op] = float(rates[op])
        # resume() already restored self.params to the snapshot's current
        # mix; keep the controller's view consistent with it.
        self.controller._params = self.params
        self.params_history = [
            GAParams.from_payload(p) for p in extra.get("params_history", [])
        ]
        origins = extra.get("origins") or []
        for member, origin in zip(population, origins):
            if origin is not None:
                member.__dict__["origin"] = (str(origin[0]), float(origin[1]))
