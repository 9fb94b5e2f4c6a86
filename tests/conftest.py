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
