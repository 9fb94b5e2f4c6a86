"""Binding-site localisation from the PIPE result matrix.

The result matrix ``H[i, j]`` counts how often fragment pair ``(a_i, b_j)``
co-occurs in known interacting protein pairs (Sec. 2.2).  Beyond the scalar
score, the *location* of the evidence predicts where the two proteins
touch: a contiguous high-count region around ``(i, j)`` marks candidate
binding sites ``A[i : i+w+di]`` and ``B[j : j+w+dj]``.  (The paper's group
published exactly this idea as PIPE-Sites; here it doubles as an
interpretability tool for designed inhibitors — *which part of the design
does the binding.*)

The extraction is greedy: take the highest cell of the smoothed matrix,
flood-fill the surrounding region above a fraction of that peak, report it
as a site, zero it, repeat.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["BindingSite", "predict_binding_sites"]


@dataclass(frozen=True)
class BindingSite:
    """One predicted interaction site between query A and query B.

    Spans are half-open residue ranges over the respective sequences.
    """

    a_start: int
    a_end: int
    b_start: int
    b_end: int
    peak_evidence: float
    total_evidence: float

    def __post_init__(self) -> None:
        if not (0 <= self.a_start < self.a_end):
            raise ValueError("invalid A span")
        if not (0 <= self.b_start < self.b_end):
            raise ValueError("invalid B span")
        if self.peak_evidence < 0 or self.total_evidence < self.peak_evidence:
            raise ValueError("invalid evidence values")

    @property
    def a_span(self) -> tuple[int, int]:
        return (self.a_start, self.a_end)

    @property
    def b_span(self) -> tuple[int, int]:
        return (self.b_start, self.b_end)


def _flood_region(
    h: np.ndarray, peak: tuple[int, int], floor: float
) -> list[tuple[int, int]]:
    """Cells 4-connected to ``peak`` with value >= ``floor``."""
    n, m = h.shape
    seen = {peak}
    queue = deque([peak])
    cells = []
    while queue:
        i, j = queue.popleft()
        cells.append((i, j))
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < n and 0 <= nj < m and (ni, nj) not in seen:
                if h[ni, nj] >= floor:
                    seen.add((ni, nj))
                    queue.append((ni, nj))
    return cells


def predict_binding_sites(
    result_matrix: np.ndarray,
    window_size: int,
    *,
    max_sites: int = 3,
    region_fraction: float = 0.5,
    min_peak_fraction: float = 0.25,
    smooth_radius: int = 1,
) -> list[BindingSite]:
    """Extract up to ``max_sites`` evidence regions from a result matrix.

    Parameters
    ----------
    result_matrix:
        The ``n_windows(A) x n_windows(B)`` count matrix.
    window_size:
        Fragment length ``w`` (converts window indices to residue spans).
    region_fraction:
        A region extends while cells stay above this fraction of its peak.
    min_peak_fraction:
        Stop extracting once the next peak falls below this fraction of
        the global maximum (weak echoes are noise, not sites).
    smooth_radius:
        Box-mean pre-filter radius, matching the scoring pipeline.
    """
    h = np.asarray(result_matrix, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"result matrix must be 2-D, got shape {h.shape}")
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    if not 0.0 < region_fraction <= 1.0:
        raise ValueError("region_fraction must be in (0, 1]")
    if not 0.0 <= min_peak_fraction <= 1.0:
        raise ValueError("min_peak_fraction must be in [0, 1]")
    if max_sites < 1:
        raise ValueError("max_sites must be >= 1")
    if h.size == 0 or h.max() <= 0:
        return []
    # Imported here: scoring never needs ndimage on the compiled route.
    import scipy.ndimage as ndi

    smoothed = (
        ndi.uniform_filter(h, size=2 * smooth_radius + 1, mode="constant")
        if smooth_radius > 0
        else h.copy()
    )
    work = smoothed.copy()
    global_max = float(work.max())
    sites: list[BindingSite] = []
    while len(sites) < max_sites:
        peak_value = float(work.max())
        if peak_value < min_peak_fraction * global_max or peak_value <= 0:
            break
        peak = np.unravel_index(int(np.argmax(work)), work.shape)
        cells = _flood_region(work, (int(peak[0]), int(peak[1])), region_fraction * peak_value)
        rows = [c[0] for c in cells]
        cols = [c[1] for c in cells]
        total = float(sum(work[c] for c in cells))
        sites.append(
            BindingSite(
                a_start=min(rows),
                a_end=max(rows) + window_size,
                b_start=min(cols),
                b_end=max(cols) + window_size,
                peak_evidence=peak_value,
                total_evidence=total,
            )
        )
        for c in cells:
            work[c] = 0.0
    return sites
