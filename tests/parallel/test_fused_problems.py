"""Several design problems in one batch, on the pool alone.

A ``WorkSlice`` names the ``(target, non_targets)`` problem each of its
candidates is scored against, so a
:class:`~repro.parallel.mp_backend.WorkerPool` — driven here directly,
with no provider or fabric in front — serves batches whose items belong
to different problems, mixed within one slice: workers warm a problem on
first sight, and the degradation path scores each lost item against its
own problem.  (The test ids predate the pool/provider split, when
this was ``register_problem`` / ``score_fused`` on the provider.)
"""

import numpy as np
import pytest

from repro.ga.fitness import SerialScoreProvider
from repro.parallel import WorkerPool
from repro.parallel.messages import WorkSlice
from repro.parallel.worker import FaultPlan


@pytest.fixture()
def two_problems(tiny_world, tiny_problem):
    target, non_targets = tiny_problem
    other = [n for n in tiny_world.non_targets_for(target, limit=12) if n not in non_targets][0]
    other_nts = tiny_world.non_targets_for(other, limit=8)
    return (target, non_targets), (other, other_nts)


def _candidates(rng, n, length=20):
    return [rng.integers(0, 20, size=length).astype(np.uint8) for _ in range(n)]


def _serial(engine, problem, arrays):
    target, non_targets = problem
    return SerialScoreProvider(engine, target, list(non_targets)).scores(
        [a.copy() for a in arrays]
    )


def test_work_item_problem_validation():
    # Each candidate's problem is a required column of the wire slice,
    # not an option.
    with pytest.raises(TypeError, match="problems"):
        WorkSlice(0, (0,), (b"x",))
    with pytest.raises(ValueError, match="lengths must match"):
        WorkSlice(0, (0, 1), (b"x", b"y"), (("T", ("A",)),))
    problems = (("T", ("A",)), ("A", ("T",)))
    mixed = WorkSlice(0, (0, 1), (b"x", b"x"), problems)
    assert mixed.problems == problems


def test_register_problem_validates(tiny_engine, tiny_problem):
    # warm() is the one place a problem is validated.
    target, non_targets = tiny_problem
    with WorkerPool(tiny_engine, num_workers=1) as pool:
        with pytest.raises(ValueError, match="also appears"):
            pool.warm(target, [target, *non_targets])
        with pytest.raises(KeyError):
            pool.warm("NOT-A-PROTEIN", non_targets)
        with pytest.raises(KeyError):
            pool.warm(target, ["NOT-A-PROTEIN"])
        # The wire form: hashable, equal for equal problems — no ids.
        assert pool.warm(target, non_targets) == (target, tuple(non_targets))
        assert pool.warm(target, non_targets) == pool.warm(target, tuple(non_targets))
        assert pool.warm(non_targets[0], [target]) != pool.warm(target, non_targets)
        assert not pool._workers  # warming spawns nothing


def test_score_fused_mixed_problems_matches_serial(
    tiny_engine, two_problems, rng
):
    arrays = _candidates(rng, 6)
    with WorkerPool(tiny_engine, num_workers=2) as pool:
        a, b = (pool.warm(*problem) for problem in two_problems)
        # Interleave the two problems over the *same* candidate bytes —
        # scores must differ by problem, not by payload.
        fused = [arr for pair in zip(arrays, arrays) for arr in pair]
        got = pool.score(fused, [a, b] * len(arrays))
        stats = pool.stats()
        assert stats["dispatched"] == len(fused)  # nothing cached
        assert stats["slices"] < len(fused)  # problems mixed within slices
    assert got[0::2] == _serial(tiny_engine, a, arrays)
    assert got[1::2] == _serial(tiny_engine, b, arrays)
    assert got[0::2] != got[1::2]


def test_score_fused_validates(tiny_engine, tiny_problem, rng):
    arrays = _candidates(rng, 2)
    with WorkerPool(tiny_engine, num_workers=1) as pool:
        problem = pool.warm(*tiny_problem)
        with pytest.raises(ValueError, match="lengths must match"):
            pool.score(arrays, [problem])
        assert not pool._workers  # rejected before anything is spawned


def test_late_registered_problem_reaches_running_workers(
    tiny_engine, two_problems, rng
):
    # The second problem is first named only after the pool has started:
    # the workers warm it from the slices themselves, mid-stream.
    first, second = two_problems
    arrays = _candidates(rng, 3)
    with WorkerPool(tiny_engine, num_workers=1) as pool:
        problem = pool.warm(*first)
        pool.score(arrays, [problem] * len(arrays))  # pool is now running
        assert pool._workers
        late = pool.warm(*second)
        got = pool.score(arrays, [late] * len(arrays))
    assert got == _serial(tiny_engine, late, arrays)


@pytest.mark.faults
def test_fused_items_degrade_with_their_problem(
    tiny_engine, two_problems, monkeypatch, rng
):
    # Permanent pool loss: every lost item must be re-scored serially in
    # the master against *its own* problem.
    arrays = _candidates(rng, 4)
    monkeypatch.setattr(WorkerPool, "MAX_RETRIES", 1)
    with WorkerPool(
        tiny_engine, num_workers=1, faults=FaultPlan(crash_on_item=0)
    ) as pool:
        a, b = (pool.warm(*problem) for problem in two_problems)
        fused = [arr for pair in zip(arrays, arrays) for arr in pair]
        got = pool.score(fused, [a, b] * len(arrays))
        assert pool.degraded_items > 0
    assert got[0::2] == _serial(tiny_engine, a, arrays)
    assert got[1::2] == _serial(tiny_engine, b, arrays)
