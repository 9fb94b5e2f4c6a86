"""Argument-validation helpers shared across configuration dataclasses."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "check_fraction",
    "check_int_range",
    "check_positive",
    "check_probability_simplex",
]


def check_int_range(
    value: object,
    name: str,
    *,
    lo: int | None = None,
    hi: int | None = None,
) -> int:
    """Validate that ``value`` is an integer within ``[lo, hi]``.

    Either bound may be ``None`` (unbounded on that side).  Floats are
    rejected rather than truncated — a CLI passing ``2.5`` workers is a
    mistake, not a request for 2.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    v = int(value)
    if lo is not None and v < lo:
        bound = f"<= {hi}" if hi is not None else ""
        raise ValueError(
            f"{name} must be >= {lo}{' and ' + bound if bound else ''}, got {v}"
        )
    if hi is not None and v > hi:
        raise ValueError(f"{name} must be <= {hi}, got {v}")
    return v


def check_fraction(value: float, name: str, *, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in [0, 1] (or (0, 1) when not inclusive)."""
    v = float(value)
    if inclusive:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return v


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative when not strict).

    NaN is rejected: it compares false against every bound, so a NaN
    deadline would pass a ``<= 0`` check and then never expire.
    """
    v = float(value)
    if not (v > 0.0 if strict else v >= 0.0):
        raise ValueError(f"{name} must be {'>' if strict else '>='} 0, got {value!r}")
    return v


def check_probability_simplex(
    values: Sequence[float], names: Sequence[str], *, atol: float = 1e-9
) -> None:
    """Validate that ``values`` are non-negative and sum to 1.

    The paper (Sec. 4.1) states the only restriction on the GA operator
    probabilities is that they sum to 1.0; this enforces exactly that.
    """
    arr = np.asarray(values, dtype=np.float64)
    if np.any(arr < 0.0):
        bad = names[int(np.argmin(arr))]
        raise ValueError(f"{bad} must be non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > atol:
        joined = ", ".join(names)
        raise ValueError(f"{joined} must sum to 1.0, got {total}")
