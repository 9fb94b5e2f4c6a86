"""Process-level measurements and small statistics shared by the harness.

CPU and memory are read for the driver *and* its worker processes: the
pool/fabric/service workloads do their scoring in children, so a
driver-only reading would miss nearly all of the work.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import statistics

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _live_child_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def _proc_cpu_seconds(pid: int) -> float:
    """user+sys CPU of a live process from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            # The command name (field 2) may contain spaces; fields are
            # counted from after its closing parenthesis.
            fields = fh.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0  # exited between listing and reading; now in RUSAGE_CHILDREN
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def cpu_seconds() -> float:
    """user+sys CPU consumed so far by this process, its reaped children
    and its live children.

    A child's time moves from the live term to ``RUSAGE_CHILDREN`` when it
    is reaped, so differences of this value are consistent whether a pool
    lives across the window (service) or inside each unit (campaign_pool).
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(_proc_cpu_seconds(pid) for pid in _live_child_pids())
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime + live


def children_hwm_mb() -> float:
    """Summed peak resident set (``VmHWM``) of the live children, MiB."""
    total_kb = 0
    for pid in _live_child_pids():
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def _child_pids() -> list[int]:
    """Every direct child of this process, however it was started."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                ppid = int(fh.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # ended while we were looking
        if ppid == me:
            pids.append(int(entry))
    return pids


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Runs on every path out of the benchmark.  Providers and services reap
    their own workers when closed; what is left is (a) workers of a provider
    an exception kept from closing and (b) the ``resource_tracker`` process
    multiprocessing starts for the shared-memory segment, which otherwise
    ends only *after* this process has, when its pipe reads EOF.
    """
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(grace_s)
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the pipe and waits for the tracker to end
    # Whatever survived being asked (the tracker ignores SIGTERM).
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def driver_maxrss_mb() -> float:
    """Peak resident set of this process so far, MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def p75(values: list[float]) -> float:
    return quartiles(values)[2]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the contract's
    run-to-run spread)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
