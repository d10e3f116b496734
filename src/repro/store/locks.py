"""Per-key lockfile protocol for the experiment store.

Multiple writers can race on the same cache key: ``--jobs N`` worker
fan-out in one process, and entirely separate CLI invocations sharing
one ``--cache-dir``. The memo layer takes a :class:`FileLock` around
each compute-and-store so the work is done once — late arrivals wait,
then read the stored result instead of recomputing it.

The lock is a classic ``O_CREAT | O_EXCL`` lockfile (portable, works on
any filesystem, no fcntl needed). Liveness: the holder writes its PID
into the file; a waiter that finds the lock older than ``stale_after``
seconds *or* held by a dead PID breaks it, so a ``kill -9``'d run never
wedges the cache. Correctness under a broken lock degrades gracefully —
two computes of a deterministic job store byte-equal payloads, and blob
writes are atomic, so the worst case is wasted work, never a torn read.

Lock-ordering contract (checked at runtime by the lock-order sanitizer
in :mod:`repro.lint.sanitize`): the per-key :class:`FileLock` is the
*outermost* level of the repo's lock hierarchy. It may be held across
compute-and-store (that is its job), and the in-process leaf locks (the
memo tally lock, the ``repro.obs`` registry locks) may be taken
underneath it — but no code may acquire a :class:`FileLock` while
holding any in-process lock, and a leaf lock nests nothing. Every
``FileLock`` reports to the sanitizer as one hierarchy node
(``repro.store.locks.FileLock``), so an inversion against an in-process
lock is reported regardless of which cache key is involved.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Optional, Union

from ..obs.clock import wall_time

#: The single hierarchy node every FileLock reports as (see module doc).
_OBSERVER_NODE = "repro.store.locks.FileLock"

_observer: Optional[Any] = None


def set_lock_observer(observer: Optional[Any]) -> None:
    """Install (or clear) the acquisition observer for every FileLock.

    The observer — in practice the lock-order sanitizer
    (:class:`repro.lint.sanitize.LockOrderChecker`) — receives
    ``acquired(name, blocking)`` / ``released(name)`` callbacks with the
    fixed hierarchy node name. Observation-only: it must not block or raise.
    The default (``None``) path costs one global read per acquire.
    """
    global _observer
    _observer = observer


class LockTimeout(TimeoutError):
    """Waited longer than ``timeout`` seconds for a lock."""


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    except OSError:  # pragma: no cover - platform oddity: assume alive
        return True
    return True


class FileLock:
    """An exclusive advisory lock backed by an ``O_EXCL`` lockfile."""

    def __init__(
        self,
        path: Union[str, Path],
        timeout: float = 120.0,
        poll_interval: float = 0.05,
        stale_after: float = 3600.0,
    ):
        self.path = Path(path)
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.stale_after = stale_after
        self._held = False

    # -- internals ----------------------------------------------------------

    def _try_create(self) -> bool:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        finally:
            os.close(fd)
        self._held = True
        return True

    def _holder_pid(self) -> Optional[int]:
        try:
            text = self.path.read_text().strip()
        except (OSError, UnicodeDecodeError):
            return None
        try:
            return int(text)
        except ValueError:
            return None

    def _is_stale(self) -> bool:
        try:
            age = wall_time() - self.path.stat().st_mtime
        except FileNotFoundError:
            return False
        if age > self.stale_after:
            return True
        pid = self._holder_pid()
        return pid is not None and pid != os.getpid() and not _pid_alive(pid)

    def _break_stale(self) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    # -- public API ----------------------------------------------------------

    def acquire(self, block: bool = True) -> bool:
        """Take the lock; returns whether it was acquired.

        Non-blocking (``block=False``) returns ``False`` immediately if
        the lock is live in another holder's hands. Blocking mode polls
        until acquisition or :class:`LockTimeout`.
        """
        if self._held:
            raise RuntimeError(f"lock already held: {self.path}")
        deadline = time.monotonic() + self.timeout
        while True:
            if self._try_create():
                observer = _observer
                if observer is not None:
                    observer.acquired(_OBSERVER_NODE, block)
                return True
            if self._is_stale():
                self._break_stale()
                continue
            if not block:
                return False
            if time.monotonic() >= deadline:
                raise LockTimeout(f"timed out waiting for lock: {self.path}")
            time.sleep(self.poll_interval)

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        observer = _observer
        if observer is not None:
            observer.released(_OBSERVER_NODE)
        try:
            self.path.unlink()
        except FileNotFoundError:  # pragma: no cover - broken as stale
            pass

    def wait_released(self, timeout: Optional[float] = None) -> bool:
        """Block until the lock is free (without taking it)."""
        deadline = time.monotonic() + (self.timeout if timeout is None else timeout)
        while self.path.exists():
            if self._is_stale():
                self._break_stale()
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(self.poll_interval)
        return True

    @property
    def held(self) -> bool:
        return self._held

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()
