"""The worker count, the BLAS thread count as OpenBLAS reads it, and row
blocks run on threads."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from sidekit import workers


@pytest.fixture
def no_thread_settings(monkeypatch):
    for name in ("SIDEKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)


def test_worker_count_counts_the_cores_of_the_affinity_mask(
        monkeypatch, no_thread_settings):
    assert workers.worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(12)))
    assert workers.worker_count() == 8
    monkeypatch.setenv("SIDEKIT_THREADS", "3")
    assert workers.worker_count() == 3
    monkeypatch.setenv("SIDEKIT_THREADS", "0")
    assert workers.worker_count() == 1
    # where the platform has no affinity mask, the cores it reports
    monkeypatch.delenv("SIDEKIT_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert workers.worker_count() == 2


@pytest.mark.parametrize("threads", ["abc", "1.5"])
def test_worker_count_names_a_sidekit_threads_that_is_no_integer(
        monkeypatch, threads):
    monkeypatch.setenv("SIDEKIT_THREADS", threads)
    with pytest.raises(workers.WorkerError) as exc:
        workers.thread_count()
    assert str(exc.value) == (
        f"SIDEKIT_THREADS must be an integer, got '{threads}'")


@pytest.mark.parametrize("openblas, omp, want", [
    (None, None, 12), ("3", None, 3), ("3", "5", 3), (None, "5", 5),
    # a value OpenBLAS would not take is passed over
    ("0", "5", 5), ("x", None, 12), (None, "-2", 12)])
def test_blas_threads_reads_the_variables_as_openblas_does(
        monkeypatch, no_thread_settings, openblas, omp, want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(12)))
    for name, value in [("OPENBLAS_NUM_THREADS", openblas),
                        ("OMP_NUM_THREADS", omp)]:
        if value is not None:
            monkeypatch.setenv(name, value)
    assert workers.blas_threads() == want


@pytest.mark.parametrize("sidekit, blas, want", [
    ("1", "1", 1), ("2", "1", 2), ("3", "1", 3), ("2", "2", 1),
    ("4", "2", 2), ("1", "2", 1), (None, None, 1)])
def test_one_thread_per_blas_threads_workers(
        monkeypatch, no_thread_settings, sidekit, blas, want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if sidekit is not None:
        monkeypatch.setenv("SIDEKIT_THREADS", sidekit)
    if blas is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    assert workers.thread_count() == want


@pytest.fixture(params=[1, 2, 3, 5])
def threads(request, monkeypatch):
    monkeypatch.setenv("SIDEKIT_THREADS", str(request.param))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return request.param


BLOCKS = [(0, 3), (3, 7), (7, 10), (10, 12)]


def test_every_block_runs_once_on_at_most_the_thread_count(threads):
    calls, lock = [], threading.Lock()

    def record(lo, hi):
        with lock:
            calls.append((lo, hi, threading.get_ident()))

    before = threading.active_count()
    workers.run_blocks(record, BLOCKS)
    assert sorted(c[:2] for c in calls) == BLOCKS
    assert len({c[2] for c in calls}) <= min(threads, len(BLOCKS))
    assert threading.active_count() == before


def test_no_blocks_calls_nothing(threads):
    workers.run_blocks(lambda lo, hi: pytest.fail("called"), [])


def test_the_first_failing_block_in_order_raises(threads):
    """A serial run meets block 1's error first; so does a threaded one,
    whichever threads took block 1 and block 3."""
    def fail(lo, hi):
        if lo in (3, 10):
            raise KeyError(f"rows {lo}-{hi}")

    before = threading.active_count()
    with pytest.raises(KeyError, match="rows 3-7"):
        workers.run_blocks(fail, BLOCKS)
    assert threading.active_count() == before


def test_an_earlier_block_that_fails_later_still_wins(threads):
    """On more than one thread, block 1 fails after block 2 has failed on
    another thread; a serial run meets block 1's error first."""
    def fail(lo, hi):
        if lo == 3:
            time.sleep(0.05)
        if lo > 0:
            raise KeyError(f"rows {lo}-{hi}")

    with pytest.raises(KeyError, match="rows 3-7"):
        workers.run_blocks(fail, BLOCKS)


def test_no_block_is_taken_after_a_block_fails(threads):
    """Each thread holds at most one slow block when block 1 fails at
    once; none of the other blocks start."""
    calls, lock = [], threading.Lock()

    def fail(lo, hi):
        with lock:
            calls.append(lo)
        if lo == 1:
            raise KeyError("row 1")
        time.sleep(0.1)

    with pytest.raises(KeyError, match="row 1"):
        workers.run_blocks(fail, [(lo, lo + 1) for lo in range(12)])
    assert len(calls) <= threads + 1


def test_every_thread_has_ended_when_the_first_block_raises(threads):
    def fail(lo, hi):
        if lo == 0:
            raise KeyError("rows 0-3")
        time.sleep(0.05)

    before = threading.active_count()
    with pytest.raises(KeyError, match="rows 0-3"):
        workers.run_blocks(fail, BLOCKS)
    assert threading.active_count() == before


def test_blocks_on_more_threads_than_cores_write_every_row_once(
        monkeypatch):
    """Blocks write disjoint slices of one array; with the interpreter
    switching threads every microsecond, a lost or repeated block would
    leave a row at 0 or 2."""
    monkeypatch.setenv("SIDEKIT_THREADS", "5")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    rows = np.zeros(3000, dtype=np.int64)

    def add_one(lo, hi):
        for row in range(lo, hi):
            rows[row] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers.run_blocks(add_one, [(lo, lo + 15)
                                     for lo in range(0, 3000, 15)])
    finally:
        sys.setswitchinterval(interval)
    assert (rows == 1).all()
