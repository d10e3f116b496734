"""The prewarm per-key lock protocol on its contended branch.

When another holder owns a job's compute lock, ``prewarm`` waits for
the lock to be released and then either installs the payload that
holder stored, or — if the holder released without storing — computes
the job itself, exactly once, under the lock.
"""

from __future__ import annotations

import importlib
import threading

import pytest

from repro import store
from repro.engine import SizeJob, is_cached, prewarm
from repro.eval import experiments
from repro.store.locks import FileLock

# The package re-exports the ``prewarm`` function under the module's name.
prewarm_module = importlib.import_module("repro.engine.prewarm")

JOB = SizeJob("mcf", 1000)
PAYLOAD = {"trace": 123, "dynamic": 45}


@pytest.fixture
def memo(tmp_path):
    experiments._SPEC_SIZE_CACHE.clear()
    memo = store.configure(tmp_path / "cache")
    try:
        yield memo
    finally:
        store.deactivate()
        experiments._SPEC_SIZE_CACHE.clear()


@pytest.fixture
def executed(monkeypatch):
    """Count executor calls; the executor returns ``PAYLOAD`` instantly."""
    calls = []

    def fake_execute(job):
        calls.append(job)
        return job, dict(PAYLOAD)

    monkeypatch.setattr(prewarm_module, "execute_job", fake_execute)
    return calls


@pytest.fixture
def holder(memo, monkeypatch):
    """Hold ``JOB``'s lock; ``holder(action)`` runs ``action`` and releases
    it from another thread once ``prewarm`` is waiting on the lock."""
    waiting = threading.Event()
    wait_released = FileLock.wait_released

    def observed_wait(self, timeout=None):
        waiting.set()
        return wait_released(self, timeout)

    monkeypatch.setattr(FileLock, "wait_released", observed_wait)
    lock = memo.lock(JOB)
    assert lock.acquire(block=False)
    threads = []

    def start(action):
        def finish():
            try:
                assert waiting.wait(timeout=30.0)
                action()
            finally:
                lock.release()

        thread = threading.Thread(target=finish)
        thread.start()
        threads.append(thread)

    yield start
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    lock.release()
    assert waiting.is_set()


def test_contended_key_installs_the_holders_payload(memo, executed, holder):
    holder(lambda: memo.store(JOB, PAYLOAD))
    assert prewarm([JOB], processes=1) == 0
    assert executed == []
    assert is_cached(JOB)
    assert experiments._SPEC_SIZE_CACHE[("mcf", 1000)] == PAYLOAD


def test_contended_key_released_without_payload_computes_once(
    memo, executed, holder
):
    holder(lambda: None)
    assert prewarm([JOB], processes=1) == 1
    assert executed == [JOB]
    assert is_cached(JOB)
    assert memo.fetch(JOB) == PAYLOAD
    assert not memo.lock(JOB).path.exists()
