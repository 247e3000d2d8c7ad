"""Run independent per-item work over forked processes, one per usable CPU.

`fan_out(work, items)` gives the result of `work(items)` in one process:
work reports a list of problems for a contiguous share of the items, and
the reports come back in item order. What work makes besides its
reports must outlive a child: files it writes, or rows of a shared
mapping.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# fewest items per process: with fewer, starting and reaping a process
# takes a larger share of the work. On one CPU of a 2-vCPU VM, a fork and
# reap of a process with the CLI imported (36 MB resident) took 1.5 ms
# (median of 20), and the cheapest caller's item, one file to validate,
# 0.29 ms: a 32-item share is about 9.3 ms of work, 6 times the fork.
_MIN_ITEMS_PER_WORKER = 32


def fan_out(work: Callable[[Sequence[T]], list], items: Sequence[T]) -> list:
    """work's reports over every item, in item order.

    The items are split into one contiguous share per worker (see
    _workers). The caller runs the first share itself, and each other
    share runs in a forked child that exits with status 0 only when work
    reported nothing. The caller then re-runs, in order, every share
    whose child failed, reported something or could not be forked, so
    the reports, and any exception and its message, are those of
    work(items). No child outlives this call.
    """
    workers = _workers(len(items))
    bounds = [len(items) * w // workers for w in range(workers + 1)]
    shares = [items[start:stop] for start, stop in zip(bounds, bounds[1:])]
    children: dict[int, int] = {}  # pid -> share number
    done = set()
    try:
        for number in range(1, workers):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller runs the share
                continue
            if pid == 0:
                status = 1
                try:
                    if not work(shares[number]):
                        status = 0
                finally:
                    os._exit(status)
            children[pid] = number
        reports = work(shares[0])
        for pid in list(children):
            _, status = os.waitpid(pid, 0)
            number = children.pop(pid)
            if status == 0:
                done.add(number)
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for number in range(1, workers):
        if number not in done:
            reports += work(shares[number])
    return reports


def _workers(n: int) -> int:
    """How many processes share n items: one per CPU this process may run
    on, each with at least _MIN_ITEMS_PER_WORKER items. A fork copies no
    thread but the caller's, so a process running other threads works
    alone."""
    if threading.active_count() != 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return 1
    return max(1, min(cpus, n // _MIN_ITEMS_PER_WORKER))
