"""Batch prewarm: fan a job list across the pool, merge into caches.

Determinism contract: every job carries its seeds explicitly, so a
worker process reproduces exactly the computation the serial path would
have run; figure results after a parallel prewarm are bit-identical to
serial execution.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .. import obs, store
from .jobs import execute_job, install, is_cached
from .pool import default_processes, make_pool


def _fetch_memoized(jobs: List, memo) -> List:
    """Install disk-memoized results; returns the jobs still to compute."""
    registry = obs.active()
    remaining = []
    for job in jobs:
        payload = memo.fetch(job)
        if payload is None:
            remaining.append(job)
        else:
            install(job, payload)
            if registry is not None:
                registry.counter("eval.jobs.memoized").inc()
    return remaining


def _partition_by_lock(todo: List, memo) -> Tuple[List[Tuple], List]:
    """Try to claim each job's compute lock without blocking.

    Returns ``(claimed, contended)``: jobs whose lock we now hold (we
    compute them) and jobs another process is already computing (we wait
    for its result instead of duplicating the work).
    """
    claimed: List[Tuple] = []
    contended: List = []
    for job in todo:
        lock = memo.lock(job)
        if lock.acquire(block=False):
            claimed.append((job, lock))
        else:
            contended.append(job)
    return claimed, contended


def _execute_and_install(todo: List, processes: int, memo) -> None:
    """Run ``todo`` (serially or via the pool), installing and memoizing."""
    registry = obs.active()
    serial = processes <= 1 or len(todo) == 1
    if registry is not None:
        registry.counter("eval.jobs.executed").inc(len(todo))
        registry.event(
            "prewarm.start",
            total=len(todo),
            processes=1 if serial else min(processes, len(todo)),
        )
    if serial:
        results = map(execute_job, todo)
    else:
        pool = make_pool(min(processes, len(todo)))
        results = pool.map(execute_job, todo)
    try:
        completed = 0
        for job, payload in results:
            install(job, payload)
            if memo is not None:
                memo.store(job, payload)
            completed += 1
            if registry is not None:
                registry.event(
                    "worker.heartbeat",
                    completed=completed,
                    total=len(todo),
                    job=type(job).__name__,
                )
    finally:
        if not serial:
            pool.shutdown()
    if registry is not None:
        registry.event("prewarm.finish", total=len(todo))


def prewarm(jobs: Sequence, processes: Optional[int] = None) -> int:
    """Execute ``jobs`` and merge the results into the runner caches.

    With ``processes`` <= 1 the jobs run serially in this process (still
    warming the caches, so the figure call afterwards is identical
    either way). Returns the number of jobs actually executed — jobs
    whose results are already in the in-process caches, memoized on
    disk (:func:`repro.store.active_memo`), or computed concurrently by
    another process holding the per-key lock are skipped.
    """
    jobs = list(dict.fromkeys(jobs))
    todo = [job for job in jobs if not is_cached(job)]
    registry = obs.active()
    if registry is not None:
        registry.counter("eval.jobs.cached").inc(len(jobs) - len(todo))
    memo = store.active_memo()
    if todo and memo is not None:
        todo = _fetch_memoized(todo, memo)
    if not todo:
        return 0
    processes = default_processes() if processes is None else processes

    if memo is None:
        _execute_and_install(todo, processes, None)
        return len(todo)

    # Per-key lock protocol: claim what we can, compute only that, and
    # wait-then-fetch what a concurrent run is already computing.
    claimed, contended = _partition_by_lock(todo, memo)
    executed = 0
    try:
        if claimed:
            _execute_and_install([job for job, _ in claimed], processes, memo)
            executed += len(claimed)
    finally:
        for _, lock in claimed:
            lock.release()
    for job in contended:
        memo.lock(job).wait_released()
        payload = memo.fetch(job)
        if payload is not None:
            install(job, payload)
            continue
        # The other holder died or failed: compute it ourselves, under
        # the lock so yet another waiter doesn't duplicate the work.
        with memo.lock(job):
            payload = memo.fetch(job)
            if payload is None:
                _execute_and_install([job], 1, memo)
                executed += 1
            else:
                install(job, payload)
    return executed
