"""Runtime concurrency sanitizer: the lock-order checker."""

from __future__ import annotations

import threading

import pytest

from repro.lint.sanitize import (
    LockOrderChecker,
    disable_lock_order_check,
    enable_lock_order_check,
)
from repro.store.locks import FileLock


@pytest.fixture
def checker():
    checker = enable_lock_order_check()
    try:
        yield checker
    finally:
        disable_lock_order_check()


def test_consistent_order_has_no_violations():
    checker = LockOrderChecker()
    for _ in range(3):
        checker.acquired("A")
        checker.acquired("B")
        checker.released("B")
        checker.released("A")
    assert checker.violations == []
    assert checker.acquisitions == 6
    assert checker.edge_count() == 1  # A -> B, recorded once


def test_inverted_order_is_a_cycle_violation():
    checker = LockOrderChecker()
    checker.acquired("A")
    checker.acquired("B")
    checker.released("B")
    checker.released("A")
    checker.acquired("B")
    checker.acquired("A")  # closes B -> A against the earlier A -> B
    assert len(checker.violations) == 1
    assert "cycle" in checker.violations[0]
    assert "A" in checker.violations[0] and "B" in checker.violations[0]


def test_transitive_cycle_is_detected():
    checker = LockOrderChecker()
    checker.acquired("A"); checker.acquired("B")
    checker.released("B"); checker.released("A")
    checker.acquired("B"); checker.acquired("C")
    checker.released("C"); checker.released("B")
    checker.acquired("C"); checker.acquired("A")  # A -> B -> C -> A
    assert len(checker.violations) == 1


def test_reentrant_acquisition_is_flagged():
    checker = LockOrderChecker()
    checker.acquired("A")
    checker.acquired("A")
    assert len(checker.violations) == 1
    assert "re-entrant" in checker.violations[0]


def test_try_acquisitions_cannot_deadlock():
    checker = LockOrderChecker()
    checker.acquired("A", blocking=False)
    checker.acquired("A", blocking=False)  # two keys, one hierarchy node
    checker.acquired("B")  # blocking under a try-lock still nests
    assert checker.violations == []
    assert checker.edge_count() == 1
    checker.released("B")
    checker.released("A")
    checker.released("A")
    checker.acquired("B")
    checker.acquired("A")  # closes B -> A against the earlier A -> B
    assert len(checker.violations) == 1


def test_held_stacks_are_per_thread():
    checker = LockOrderChecker()
    barrier = threading.Barrier(2)

    def hold(name):
        checker.acquired(name)
        barrier.wait()
        checker.released(name)

    threads = [threading.Thread(target=hold, args=(name,))
               for name in ("A", "B")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Both locks were held simultaneously, but by different threads:
    # no nesting edge and no violation.
    assert checker.violations == []
    assert checker.edge_count() == 0


def test_filelock_joins_the_acquisition_graph(tmp_path, checker):
    lock = FileLock(tmp_path / "key.lock", timeout=5.0)
    # FileLock is the outermost level: taking it under an in-process
    # lock after the legal order was observed closes a cycle.
    with lock:
        checker.acquired("engine.state")
        checker.released("engine.state")
    checker.acquired("engine.state")
    lock.acquire()
    lock.release()
    checker.released("engine.state")
    assert len(checker.violations) == 1
    assert "repro.store.locks.FileLock" in checker.violations[0]


def test_filelock_observer_detaches_on_disable(tmp_path):
    checker = enable_lock_order_check()
    disable_lock_order_check()
    with FileLock(tmp_path / "key.lock", timeout=5.0):
        pass
    assert checker.acquisitions == 0


def test_prewarm_fig6_is_lock_order_clean(tmp_path):
    """The live target of the lock-order sanitizer: a parallel prewarm
    over a store takes one ``FileLock`` per job (plus the memo and obs
    leaf locks) and must close no acquisition cycle — without changing
    the figure it warms."""
    from repro import store
    from repro.eval import comparison, experiments
    from repro.eval.parallel import jobs_for, prewarm

    requests = 600
    comparison.clear_cache()
    unsanitized = experiments.figure_6(requests)

    comparison.clear_cache()
    checker = enable_lock_order_check()
    store.configure(tmp_path / "cache")
    try:
        executed = prewarm(jobs_for("fig6", requests), processes=2)
        sanitized = experiments.figure_6(requests)
    finally:
        store.deactivate()
        disable_lock_order_check()
        comparison.clear_cache()

    assert executed > 0
    assert checker.violations == []
    assert checker.acquisitions >= 1
    assert sanitized == unsanitized
