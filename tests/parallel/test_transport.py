"""The point-to-point transport: one duplex pipe per worker, the master
waiting on pipes and process sentinels.

What the transport must guarantee, whoever dies and whenever: a killed
master leaves no worker and no proteome segment behind; a worker killed
from outside mid-batch costs exactly the candidates of its
unacknowledged slices and can never wedge its siblings; replies a worker
completed before dying are recorded, not re-scored; frames larger than
the pipe's buffer in both directions never deadlock master and worker;
and a pool that has spawned, lost a worker, closed and restarted hands
back every file descriptor, thread, child process and segment it took.
None of these asserts a wall-clock figure: a batch that reached
``timeout`` would degrade, and ``degraded_items`` is pinned to 0
instead.
"""

import glob
import multiprocessing
import os
import pickle
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

import repro.parallel.mp_backend as mp_backend
from repro.ga.fitness import SerialScoreProvider
from repro.parallel.messages import EndSignal
from repro.parallel.mp_backend import WorkerFailureError, WorkerPool
from repro.parallel.worker import FaultPlan

pytestmark = pytest.mark.faults


def _unanswered_items(stats):
    """Candidates handed to a worker that it never answered: with no stale
    reply, exactly those of slices lost with a dead worker."""
    return sum(
        int(w["dispatched"] - w["items"]) for w in stats["workers"].values()
    )


def _seqs(rng, n, size=20):
    return [rng.integers(0, 20, size=size).astype(np.uint8) for _ in range(n)]


def _segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro-proteome-*"))


def _running(pid: int) -> bool:
    """False once ``pid`` has exited, reaped or not (an orphan's zombie
    waits for whoever adopted it)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except (FileNotFoundError, ProcessLookupError):
        return False


def _subprocess_env() -> dict[str, str]:
    """This environment, with the package on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    return env


_ORPHAN_SCRIPT = """
import time
import numpy as np
from repro.parallel import WorkerPool
from repro.synthetic import get_profile

world = get_profile("tiny").build_world()
pool = WorkerPool(world.engine, num_workers=3)
problem = pool.warm("YBL051C", world.non_targets_for("YBL051C", limit=4))
rng = np.random.default_rng(0)
arrays = [rng.integers(0, 20, size=20).astype(np.uint8) for _ in range(6)]
pool.score(arrays, [problem] * 6)
print(*(proc.pid for proc in pool._workers.values()), flush=True)
time.sleep(120.0)
"""


def test_killed_master_leaves_no_worker_and_no_segment():
    """SIGKILL the master alone: every worker sees its pipe close and
    leaves, and with the last of them gone the resource tracker unlinks
    the proteome segment the master could not."""
    before = _segments()
    master = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    workers: list[int] = []
    try:
        workers = [int(pid) for pid in master.stdout.readline().split()]
        assert len(workers) == 3 and all(_running(pid) for pid in workers)
        assert _segments() - before
        master.kill()
        master.wait(timeout=30.0)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and (
            any(_running(pid) for pid in workers) or _segments() - before
        ):
            time.sleep(0.02)
        assert [pid for pid in workers if _running(pid)] == []
        assert _segments() == before
    finally:
        master.kill()
        master.stdout.close()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        for path in _segments() - before:
            os.unlink(path)


def test_outside_sigkill_mid_batch_costs_a_window_and_never_wedges(
    tiny_engine, tiny_problem, rng
):
    """Twenty rounds on one pool, a helper thread SIGKILLing a random
    live worker from outside while the batch runs.  Nothing is shared
    between workers, so a death at any instant — mid-``send`` included —
    is one sentinel and one requeue of the candidates the worker held
    unanswered: every batch is bit-exact, none stalls into degradation,
    no reply goes stale."""
    target, non_targets = tiny_problem
    seqs = _seqs(rng, 12)
    expected = SerialScoreProvider(tiny_engine, target, non_targets).scores(
        [s.copy() for s in seqs]
    )
    chooser = random.Random(22)
    # More workers than cores; slow items keep a batch running while the
    # kill lands.
    with WorkerPool(
        tiny_engine, num_workers=3, faults=FaultPlan(delay=0.004)
    ) as pool:
        problem = pool.warm(target, non_targets)
        assert pool.score(seqs, [problem] * len(seqs)) == expected
        for _ in range(20):
            victim = chooser.choice(
                [proc.pid for proc in pool._workers.values() if proc.is_alive()]
            )
            delay = chooser.uniform(0.0, 0.03)

            def kill(victim=victim, delay=delay):
                time.sleep(delay)
                try:
                    os.kill(victim, signal.SIGKILL)
                except ProcessLookupError:
                    # The last round's kill landed after its batch and was
                    # still in flight when this victim was picked; the
                    # pool has reaped it since.
                    pass

            killer = threading.Thread(target=kill)
            killer.start()
            try:
                assert pool.score(seqs, [problem] * len(seqs)) == expected
            finally:
                killer.join(timeout=10.0)
            assert not killer.is_alive()
        assert pool.worker_deaths >= 10  # a kill may land between batches
        assert pool.degraded_items == 0 and pool.degraded_batches == 0
        assert pool.stale_dropped == 0
        assert pool.retries == _unanswered_items(pool.stats())
        assert pool.dispatched == 21 * len(seqs) + pool.retries


def test_replies_completed_before_a_death_are_recorded(
    tiny_engine, tiny_problem, rng
):
    """A worker answers its first slice, then dies holding its second:
    the answer is read off the dead worker's pipe and recorded before
    its slices are requeued, so only what it still held is scored again."""
    target, non_targets = tiny_problem
    seqs = _seqs(rng, 24)
    expected = SerialScoreProvider(tiny_engine, target, non_targets).scores(
        [s.copy() for s in seqs]
    )
    with WorkerPool(
        tiny_engine,
        num_workers=1,
        faults=FaultPlan(crash_on_item=1, only_worker=0),
    ) as pool:
        problem = pool.warm(target, non_targets)
        assert pool.score(seqs, [problem] * len(seqs)) == expected
        stats = pool.stats()
    assert stats["fault_tolerance"]["worker_deaths"] == 1
    # Its one answer — the first slice, ceil(24 / 2) = 12 — counted; the
    # second (max(SLICE_FLOOR, ceil(12 / 2)) = 8) died with it.
    assert stats["workers"][0]["items"] == 12.0
    assert pool.retries == _unanswered_items(stats) > 0
    assert pool.dispatched == len(seqs) + pool.retries
    assert pool.stale_dropped == 0 and pool.degraded_items == 0


def test_a_send_to_a_dead_worker_is_left_to_its_sentinel(
    tiny_engine, tiny_problem, rng
):
    """A worker can die between the master's last wait and its next
    ``send``: the send fails quietly and the sentinel, not the sender,
    requeues what the scheduler says the worker held."""
    target, non_targets = tiny_problem
    seqs = _seqs(rng, 4)
    with WorkerPool(tiny_engine, num_workers=1) as pool:
        problem = pool.warm(target, non_targets)
        expected = pool.score(seqs, [problem] * len(seqs))
        ((wid, pid),) = ((w, proc.pid) for w, proc in pool._workers.items())
        os.kill(pid, signal.SIGKILL)
        while _running(pid):
            time.sleep(0.01)
        pool._send(wid, pickle.dumps(EndSignal()))  # its end is closed: EPIPE, ignored
        assert pool._wait(dict(pool._workers), 5.0) == ([], [wid])
        assert pool.score(seqs, [problem] * len(seqs)) == expected
        assert pool.worker_deaths == 1 and pool.respawns == 1


def test_a_truncated_frame_is_a_death_never_data(tiny_engine, tiny_problem, rng):
    """A SIGKILL mid-``send`` leaves a length header and half a payload
    in the pipe: reading it fails, which marks the worker gone."""
    target, non_targets = tiny_problem
    seqs = _seqs(rng, 2)
    with WorkerPool(tiny_engine, num_workers=1) as pool:
        problem = pool.warm(target, non_targets)
        pool.score(seqs, [problem] * len(seqs))
        (wid,) = pool._workers
        real = pool._conns[wid]
        cut, far_end = multiprocessing.Pipe(duplex=True)
        os.write(far_end.fileno(), struct.pack("!i", 4096) + b"half a reply")
        far_end.close()
        pool._conns[wid] = cut
        try:
            # The process itself is alive and idle: only the frame speaks.
            assert pool._wait(dict(pool._workers), 5.0) == ([], [wid])
        finally:
            pool._conns[wid] = real
            cut.close()


_REAL_WORKER_ENTRY = mp_backend._worker_entry


def _small_send_buffer_entry(worker_id, handle, config, faults, conn, master_ends):
    """The real worker, on a pipe that holds a few kilobytes at most."""
    sock = socket.socket(fileno=os.dup(conn.fileno()))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)  # kernel minimum
    sock.close()
    _REAL_WORKER_ENTRY(worker_id, handle, config, faults, conn, master_ends)


def _kernel_minimum_sndbuf() -> int:
    """What ``SO_SNDBUF`` reads after asking the kernel for 1 byte."""
    left, right = socket.socketpair(socket.AF_UNIX)
    with left, right:
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
        return left.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)


def test_close_reads_a_blocked_worker_through_to_its_end_signal(
    tiny_world, tiny_engine, rng, monkeypatch
):
    """A batch aborted by a failure orphans the prefetched slice's reply.
    Too large for the pipe, it blocks the worker in ``send`` with the
    EndSignal queued behind it; ``close()`` must keep reading for the
    worker to get there — a clean exit, not a force-kill."""
    monkeypatch.setattr(mp_backend, "_worker_entry", _small_send_buffer_entry)
    target = "YBL051C"
    # Every non-target of the target: a reply is ~300 bytes a candidate,
    # so the prefetched slice's (a quarter of the batch) outgrows the
    # kernel-minimum buffer.
    non_targets = tiny_world.non_targets_for(target)
    monkeypatch.setattr(WorkerPool, "CLOSE_GRACE_S", 30.0)
    pool = WorkerPool(tiny_engine, num_workers=1, faults=FaultPlan(fail_on_item=0))
    replies: list[int] = []
    real_wait = pool._wait

    def wait(procs, timeout):
        got, gone = real_wait(procs, timeout)
        replies.extend(len(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)) for msg in got)
        return got, gone

    pool._wait = wait
    problem = pool.warm(target, non_targets)
    seqs = _seqs(rng, 96)
    try:
        with pytest.raises(WorkerFailureError):
            pool.score(seqs, [problem] * len(seqs))
    finally:
        pool.close()
    assert pool.force_killed == 0
    assert max(replies) > _kernel_minimum_sndbuf()


_BIG_FRAMES_SCRIPT = """
import os
import pickle
import socket
import sys

import numpy as np

import repro.parallel.mp_backend as mp_backend
from repro.ga.fitness import SerialScoreProvider
from repro.parallel import FaultPlan, WorkerFailureError, WorkerPool
from repro.parallel.messages import WorkSlice
from repro.synthetic import get_profile

profile, minimum_buffer, orphan = sys.argv[1], sys.argv[2] == "1", sys.argv[5] == "1"
length, count = int(sys.argv[3]), int(sys.argv[4])


class MinimumBufferPipes:
    '''The pool's multiprocessing context, handing out pipes whose two
    ends send through the kernel's minimum socket buffer.'''

    def __init__(self, ctx):
        self._ctx = ctx

    def Pipe(self, duplex=True):
        ends = self._ctx.Pipe(duplex)
        for end in ends:
            with socket.socket(fileno=os.dup(end.fileno())) as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
        return ends

    def __getattr__(self, name):
        return getattr(self._ctx, name)


# Every frame the scheduler builds (untrimmed slices included), every
# slice sent with its pipe's share, and the size of every reply read.
built, sent, replies = [], [], []


class RecordingScheduler(mp_backend.OnDemandScheduler):
    def __init__(self, sequence_ids, frame):
        def recorded(sids):
            data = frame(sids)
            built.append(len(data))
            return data

        super().__init__(sequence_ids, recorded)


mp_backend.OnDemandScheduler = RecordingScheduler
world = get_profile(profile).build_world()
target = "YBL051C"
# Every non-target of the target: a reply carries ~300 bytes a candidate
# on tiny and ~590 on small, more than a short candidate's slice does.
non_targets = world.non_targets_for(target)
rng = np.random.default_rng(7)


def candidates(n, size):
    return [rng.integers(0, 20, size=size).astype(np.uint8) for _ in range(n)]


serial = SerialScoreProvider(world.engine, target, non_targets)
WorkerPool.TIMEOUT_S = 20.0
pool = WorkerPool(
    world.engine,
    num_workers=1,
    faults=FaultPlan(fail_on_item=0) if orphan else None,
)
if minimum_buffer:
    pool._ctx = MinimumBufferPipes(pool._ctx)
real_send, real_wait = pool._send, pool._wait


def send(wid, frame):
    message = pickle.loads(frame)
    if isinstance(message, WorkSlice):
        sent.append((len(frame), len(message.sequence_ids), pool._budgets[wid]))
    real_send(wid, frame)


def wait(procs, timeout):
    got, gone = real_wait(procs, timeout)
    replies.extend(len(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)) for msg in got)
    return got, gone


pool._send, pool._wait = send, wait


def score(batch):
    assert pool.score(batch, [problem] * len(batch)) == serial.scores(batch)


with pool:
    problem = pool.warm(target, non_targets)
    if orphan:
        # The first slice, one candidate longer than the pipe's share,
        # fails; the prefetched second, short candidates whose reply
        # outgrows the pipe, is orphaned and its worker blocks sending
        # it.  Then candidates longer than the share go out one at a
        # time, to that same worker.
        try:
            pool.score(
                [*candidates(1, length), *candidates(64, 20)], [problem] * 65
            )
        except WorkerFailureError:
            pass
        else:
            raise AssertionError("the injected failure did not fire")
    score(candidates(count, length))
    assert pool.degraded_items == 0
(share,) = {budget for _, _, budget in sent}
# Both ways, frames outgrew the worker pipe's share: a slice as the
# guided rule sized it, and a reply.
assert max(built) > share, (max(built), share)
assert max(replies) > share, (max(replies), share)
# Yet the master sent only what fits the share, or one candidate alone.
assert all(size <= share or k == 1 for size, k, _ in sent), (sent, share)
print("ok", flush=True)
"""


@pytest.mark.parametrize(
    "profile, minimum_buffer, length, count, orphan",
    [
        ("tiny", True, 200, 128, False),
        ("small", False, 400, 560, False),
        ("tiny", True, 5000, 2, True),
    ],
    ids=["tiny-minimum-buffer", "small-default-buffer", "tiny-orphaned-reply"],
)
def test_frames_larger_than_the_pipe_both_ways_never_deadlock(
    profile, minimum_buffer, length, count, orphan
):
    """Slices and replies both far larger than what the pipe buffers: the
    master sends a worker only what fits its share of the buffer, so
    neither side ever waits on the other.  The stall ``timeout`` cannot
    catch this deadlock — the master never gets back to its wait — so
    the pool runs in a subprocess under a wall deadline, and a
    regression fails here instead of hanging the suite.  The script
    asserts that a slice as the guided rule sizes it and a reply each
    outgrew the share, and that every slice sent fit it.

    Slices carry candidates only, so a reply (one score set per
    candidate, against every non-target) outgrows a slice of short
    candidates.  On ``tiny`` at the kernel-minimum buffer, untrimmed
    slices of 200-residue candidates and their replies both exceed what
    the pipe holds; on ``small`` at the default buffer, slices of
    400-residue candidates sized by the guided rule alone exceed the
    share — what the frame budget trims.  The orphaned reply of an
    aborted batch still occupies its worker's window: the next batch's
    oversized candidates wait until it is read."""
    master = subprocess.Popen(
        [sys.executable, "-c", _BIG_FRAMES_SCRIPT, profile,
         "1" if minimum_buffer else "0", str(length), str(count),
         "1" if orphan else "0"],
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = master.communicate(timeout=120.0)
    except subprocess.TimeoutExpired:
        # Its workers leave once the master's ends of their pipes close.
        master.kill()
        master.communicate()
        pytest.fail("master and worker deadlocked on frames larger than the pipe")
    assert master.returncode == 0 and out.strip() == "ok"


def test_pool_hands_back_every_fd_thread_child_and_segment(
    tiny_engine, tiny_problem, rng
):
    """Spawn three, lose one, close, restart, close: the master ends with
    the descriptors and threads it started with."""
    target, non_targets = tiny_problem
    seqs = _seqs(rng, 8)
    expected = SerialScoreProvider(tiny_engine, target, non_targets).scores(
        [s.copy() for s in seqs]
    )
    # The tracker's pipe is the process's, not the pool's: open it first.
    resource_tracker.ensure_running()
    segments = _segments()
    children = set(multiprocessing.active_children())
    fds = len(os.listdir("/proc/self/fd"))
    threads = threading.active_count()

    pool = WorkerPool(tiny_engine, num_workers=3)
    problem = pool.warm(target, non_targets)

    def score():
        assert pool.score(seqs, [problem] * len(seqs)) == expected

    score()
    assert len(pool._workers) == 3
    victim = next(iter(pool._workers.values())).pid
    os.kill(victim, signal.SIGKILL)
    score()  # noticed between batches or in the batch, whichever it is
    assert pool.worker_deaths == 1 and pool.respawns == 1
    assert len(pool._workers) == 3
    pool.close()
    score()  # a closed pool starts again
    pool.close()

    assert pool.force_killed == 0
    assert threading.active_count() == threads
    assert len(os.listdir("/proc/self/fd")) == fds
    assert set(multiprocessing.active_children()) == children
    assert _segments() == segments


@pytest.mark.parametrize(
    "start_method",
    multiprocessing.get_all_start_methods(),
    ids=lambda method: f"{method}-shm",
)
def test_every_start_method_scores_slices_bit_exact(
    start_method, tiny_engine, tiny_problem, monkeypatch, rng
):
    """Fork, spawn and forkserver workers, each mapping the shared
    proteome: slices of several candidates, scores equal to serial, and
    no proteome segment left behind."""
    target, non_targets = tiny_problem
    seqs = _seqs(rng, 12)
    expected = SerialScoreProvider(tiny_engine, target, non_targets).scores(
        [s.copy() for s in seqs]
    )
    segments = _segments()
    monkeypatch.setattr(WorkerPool, "START_METHOD", start_method)
    with WorkerPool(tiny_engine, num_workers=2) as pool:
        problem = pool.warm(target, non_targets)
        assert pool.score(seqs, [problem] * len(seqs)) == expected
        stats = pool.stats()
    assert stats["dispatched"] == len(seqs)
    assert stats["slices"] < len(seqs)
    assert stats["fault_tolerance"]["degraded_items"] == 0
    assert stats["shm"] is not None
    assert _segments() == segments


@pytest.mark.parametrize(
    "start_method",
    multiprocessing.get_all_start_methods(),
    ids=lambda method: f"{method}-shm",
)
def test_a_problem_named_after_start_scores_bit_exact(
    start_method, tiny_engine, tiny_problem, monkeypatch, rng
):
    """The segment carries the evidence of the problems warmed before
    the pool started; one first named later is built worker-side on
    first sight — under every start method, bit-exact with serial, in a
    batch that mixes it with the warmed one."""
    target, non_targets = tiny_problem
    late_target, late_non_targets = non_targets[0], [target, *non_targets[1:]]
    seqs = _seqs(rng, 20)
    expected = SerialScoreProvider(tiny_engine, target, non_targets).scores(
        [s.copy() for s in seqs[:10]]
    ) + SerialScoreProvider(tiny_engine, late_target, late_non_targets).scores(
        [s.copy() for s in seqs[10:]]
    )
    monkeypatch.setattr(WorkerPool, "START_METHOD", start_method)
    with WorkerPool(tiny_engine, num_workers=2) as pool:
        warmed = pool.warm(target, non_targets)
        pool.score(seqs[:2], [warmed] * 2)  # starts the pool
        late = pool.warm(late_target, late_non_targets)
        assert pool._shm_view.handle.evidence == ((target, *non_targets),)
        assert pool.score(seqs, [warmed] * 10 + [late] * 10) == expected
        assert pool.stats()["fault_tolerance"]["degraded_items"] == 0
