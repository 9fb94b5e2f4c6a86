"""Small shared utilities: RNG streams, validation, atomic I/O."""

from repro.util.atomic import atomic_write, atomic_write_text
from repro.util.rng import RngStream, derive_rng, spawn_streams
from repro.util.validation import (
    check_fraction,
    check_positive,
    check_probability_simplex,
)

__all__ = [
    "RngStream",
    "atomic_write",
    "atomic_write_text",
    "derive_rng",
    "spawn_streams",
    "check_fraction",
    "check_positive",
    "check_probability_simplex",
]
