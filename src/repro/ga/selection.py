"""Fitness-proportional (roulette-wheel) selection.

"Sequences are randomly selected with a probability proportional to their
fitness relative to the rest of the population" (Sec. 2.1).
"""

from __future__ import annotations

import numpy as np

from repro.ga.population import Population

__all__ = [
    "selection_probabilities",
    "spin_wheel",
    "roulette_select",
    "tournament_select",
]


def selection_probabilities(fitness: np.ndarray) -> np.ndarray:
    """Normalised selection probabilities for a fitness vector.

    Fitness values are clipped at zero (they are products of [0, 1] scores
    so this only guards against numerical noise).  A population whose total
    fitness is zero — typical of the very first random generations, when
    "most synthetic sequences are unsuitable" — falls back to uniform
    selection so the GA can still make progress.
    """
    f = np.clip(np.asarray(fitness, dtype=np.float64), 0.0, None)
    total = f.sum()
    if total <= 0.0 or not np.isfinite(total):
        return np.full(f.size, 1.0 / f.size) if f.size else f
    return f / total


def spin_wheel(
    wheel: np.ndarray, rng: np.random.Generator, count: int = 1
) -> list[int]:
    """``count`` member indices drawn with replacement from ``wheel``, a
    population's :func:`selection_probabilities`.

    A generation's fitness does not change while it breeds, so the GA
    engines build the wheel once per generation and spin it for every
    parent they draw; the draw itself is :func:`roulette_select`'s.
    """
    return [int(i) for i in rng.choice(wheel.size, size=count, p=wheel)]


def roulette_select(
    population: Population,
    rng: np.random.Generator,
    count: int = 1,
) -> list[int]:
    """Select ``count`` member indices with probability ∝ fitness.

    Sampling is with replacement: the same strong parent may be chosen for
    several operations in one generation, exactly as in the paper's
    threaded next-generation construction.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if len(population) == 0:
        raise ValueError("cannot select from an empty population")
    return spin_wheel(
        selection_probabilities(population.fitness_array()), rng, count
    )


def tournament_select(
    population: Population,
    rng: np.random.Generator,
    count: int = 1,
    *,
    tournament_size: int = 3,
) -> list[int]:
    """Tournament selection: the standard GA alternative to the paper's
    fitness-proportional scheme (kept for selection-pressure ablations).

    Each pick draws ``tournament_size`` members uniformly (with
    replacement) and returns the fittest; pressure is scale-invariant,
    unlike roulette, which flattens once the population's fitness values
    converge.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if tournament_size < 1:
        raise ValueError(f"tournament_size must be >= 1, got {tournament_size}")
    if len(population) == 0:
        raise ValueError("cannot select from an empty population")
    fitness = population.fitness_array()
    picks = []
    for _ in range(count):
        entrants = rng.integers(0, len(population), size=tournament_size)
        picks.append(int(entrants[int(np.argmax(fitness[entrants]))]))
    return picks
