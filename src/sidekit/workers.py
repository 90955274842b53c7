"""The cores a command may use, and row blocks spread over threads.

SIDEKIT_THREADS caps the workers of every command that runs work in
parallel: the processes `rank-ab` trains its arms in, and the threads
that run the row blocks of the k-means nearest-centroid pass (`train`
and `encode` of the kmeans, rq and pq quantizers) and of the exact
top-k (`eval-recall`). A thread's BLAS calls run on OpenBLAS's own
threads, so a pass takes one thread per `blas_threads()` workers. Either
way the results equal a serial run's.
"""

from __future__ import annotations

import os
import threading


class WorkerError(ValueError):
    pass


def _usable_cores():
    """The cores this process's affinity mask allows where the platform
    reports it, else the cores the platform reports."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count():
    """The workers a command may run at once: SIDEKIT_THREADS if set (an
    integer; below 1 means 1), else min(8, usable cores)."""
    env = os.environ.get("SIDEKIT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise WorkerError(
                f"SIDEKIT_THREADS must be an integer, got '{env}'") from None
    return min(8, _usable_cores())


def blas_threads():
    """The threads OpenBLAS runs one call on, read as it reads them at
    start-up: OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else the usable
    cores. A value that is not a positive integer is passed over."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            return value
    return _usable_cores()


def thread_count():
    """The threads `run_blocks` spreads its blocks over: one per
    `blas_threads()` of the `worker_count()` workers, at least one."""
    return max(1, worker_count() // blas_threads())


def run_blocks(fn, blocks):
    """Call fn(lo, hi) for each (lo, hi) of `blocks` on `thread_count()`
    threads at most, the calling one among them. Each thread takes the
    next block in order that no thread has taken yet, so a thread whose
    core is busy with other work takes fewer blocks instead of holding
    the pass up. `fn` must write only its own block's outputs.

    After a call raises, no block is taken. Every block before the
    failing one was taken before it and runs to its end, so the error of
    the first failing block in order is raised, with its type and
    message, as a serial run would raise it. Every thread has ended when
    this returns or raises.
    """
    threads = max(1, min(thread_count(), len(blocks)))
    lock = threading.Lock()
    taken = [0]    # blocks handed out so far
    failed = []    # (block index, error)

    def work():
        while True:
            with lock:
                i = taken[0]
                if i == len(blocks) or failed:
                    return
                taken[0] = i + 1
            try:
                fn(*blocks[i])
            except BaseException as exc:  # raised by the caller, below
                with lock:
                    failed.append((i, exc))
                return

    started = [threading.Thread(target=work) for _ in range(1, threads)]
    for thread in started:
        thread.start()
    try:
        work()
    finally:
        for thread in started:
            thread.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
