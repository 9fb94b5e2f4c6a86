"""Shared fixtures.

World construction is the expensive part of the suite, so the tiny world
(and objects derived from it) are session-scoped; tests must treat them as
read-only.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.ga.fitness import SerialScoreProvider
from repro.ppi import pipe
from repro.ppi.kernels import BatchedNumpyKernel, NativeSweep, native_sweep
from repro.synthetic import get_profile

# CI selects this with HYPOTHESIS_PROFILE=ci so a failing property is the
# same example on every machine; local runs keep hypothesis's default
# (randomized) profile.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def tiny_profile():
    return get_profile("tiny")


@pytest.fixture(scope="session")
def tiny_world(tiny_profile):
    return tiny_profile.build_world()


@pytest.fixture(scope="session")
def tiny_engine(tiny_world):
    return tiny_world.engine


@pytest.fixture(scope="session")
def tiny_problem(tiny_world):
    """(target, non_targets) for the canonical tiny design problem."""
    target = "YBL051C"
    non_targets = tiny_world.non_targets_for(target, limit=8)
    return target, non_targets


@pytest.fixture()
def tiny_provider(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    return SerialScoreProvider(tiny_engine, target, non_targets)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


# -- the batched kernel's two tile bodies -----------------------------------


class NumpyTileKernel(BatchedNumpyKernel):
    """The batched kernel pinned to its numpy tile body, whatever this
    process loaded."""

    def _tile_hits(self, db, stacked, n_rows, threshold):
        return self._numpy_tile_hits(db, stacked, n_rows, threshold)


class NativeTileKernel(BatchedNumpyKernel):
    """The batched kernel pinned to one entry point of the compiled loop;
    it fails instead of falling back to numpy."""

    def __init__(self, body: str) -> None:
        super().__init__()
        self.body = body

    def _tile_hits(self, db, stacked, n_rows, threshold):
        native = native_sweep()
        total_cols = db.valid_columns.size
        assert native.accepts(db.score_rows, stacked, total_cols, db.window_size)
        flat = native.hits(
            db.score_rows, stacked, n_rows, db.window_size, threshold, total_cols,
            body=self.body,
        )
        return np.divmod(flat, total_cols)


#: Entry point of the compiled loop behind each compiled tile body.
_NATIVE_BODIES = {
    "native": "repro_sweep_hits",  # the widest body this CPU runs
    "native-vec16": "repro_sweep_hits_vec16",  # the portable 16-byte body
}


@pytest.fixture(scope="session")
def tile_kernel():
    """Factory of batched kernels pinned to one tile body: ``"numpy"``,
    ``"native"`` or ``"native-vec16"``.  Asking for a compiled body skips
    the calling test when this process has no compiled loop, saying why."""

    def make(body: str) -> BatchedNumpyKernel:
        if body == "numpy":
            return NumpyTileKernel()
        native = native_sweep()
        if not native.available:
            pytest.skip(f"compiled sweep not loaded: {native.reason}")
        return NativeTileKernel(_NATIVE_BODIES[body])

    return make


# -- the fused result block's two bodies ------------------------------------

#: Spans one ``score_similarities`` records per call (compiled) or per
#: fused group (numpy) on each route.
RESULT_BLOCK_SPANS = {
    "compiled": ("pipe.result_block",),
    "numpy": ("pipe.triple_product", "pipe.box_filter"),
}


@pytest.fixture()
def pipe_route(monkeypatch):
    """Pins :meth:`PipeEngine.score_similarities` to one body of its
    result blocks for the calling test: ``pipe_route("numpy")`` makes it
    see no compiled library (as a host without a compiler does),
    ``pipe_route("compiled")`` skips the test, saying why, when this
    process has none."""

    def pin(route: str) -> None:
        if route == "numpy":
            pinned = NativeSweep(reason="pinned to the numpy body")
            monkeypatch.setattr(pipe, "native_sweep", lambda: pinned)
        elif not native_sweep().available:
            pytest.skip(f"compiled result block not loaded: {native_sweep().reason}")

    return pin


@pytest.fixture()
def result_block_spans():
    """Spans the result blocks record on the route this process takes:
    the compiled one where the library is loaded, else the numpy body."""
    return RESULT_BLOCK_SPANS["compiled" if pipe.native_sweep().available else "numpy"]
