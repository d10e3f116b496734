"""Runtime sanitizers: invariant checks the AST linter cannot prove.

Three tools live here:

* :class:`TraceInvariantChecker` — validates every request flowing into
  a simulation driver (monotonic timestamps, non-negative aligned
  addresses, legal read/write operations, positive sizes). The sim
  drivers consult :func:`active` so one :func:`enable` call (or the
  ``--sanitize`` flag of ``python -m repro.eval``) turns checking on for
  every driver in the process; a driver-level ``sanitize=`` argument
  overrides per call.
* :class:`LockOrderChecker` — records the lock-acquisition graph
  actually observed (per-thread held stacks feeding held→acquired
  edges) and flags a cycle the moment the closing edge is inserted —
  *before* the schedule that would deadlock on it ever runs. Enabled
  via :func:`enable_lock_order_check`, which hooks the store's
  ``FileLock`` into the graph; when off, ``FileLock`` has no observer
  and the disabled path costs nothing.
* :func:`check_determinism` — the double-run harness behind
  ``python -m repro.lint --check-determinism``: runs one experiment
  twice in-process and diffs the canonical JSON of the results. Any
  leaked global state (an unseeded RNG, order-dependent accumulation)
  shows up as a byte diff.

Sanitizing never changes results: every checker only *observes* (the
request stream, the acquisition order), so a clean run produces
bit-identical statistics with checking on or off.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .. import obs
from ..core.request import MemoryRequest, Operation
from ..store import locks as _store_locks


class InvariantViolation(RuntimeError):
    """A request stream broke a simulation invariant."""


class TraceInvariantChecker:
    """Validates a time-ordered request stream as it flows past.

    Parameters:
        alignment: required address alignment in bytes (1 = any address).
        max_address: exclusive upper bound on ``request.end_address``
            (``None`` = unbounded).
        require_monotonic: require non-decreasing timestamps — the
            contract every driver's merge logic assumes.
        label: stream name used in violation messages.
    """

    __slots__ = ("alignment", "max_address", "require_monotonic", "label",
                 "checked", "_last_timestamp")

    def __init__(
        self,
        alignment: int = 1,
        max_address: Optional[int] = None,
        require_monotonic: bool = True,
        label: str = "trace",
    ) -> None:
        if alignment <= 0:
            raise ValueError(f"alignment must be positive, got {alignment}")
        self.alignment = alignment
        self.max_address = max_address
        self.require_monotonic = require_monotonic
        self.label = label
        self.checked = 0
        self._last_timestamp: Optional[int] = None

    def _fail(self, index: int, message: str) -> None:
        raise InvariantViolation(f"{self.label}[{index}]: {message}")

    def check(self, request: MemoryRequest) -> MemoryRequest:
        """Validate one request; returns it unchanged, raises on violation."""
        index = self.checked
        timestamp = request.timestamp
        if timestamp < 0:
            self._fail(index, f"negative timestamp {timestamp}")
        if (
            self.require_monotonic
            and self._last_timestamp is not None
            and timestamp < self._last_timestamp
        ):
            self._fail(
                index,
                f"timestamp {timestamp} goes backwards "
                f"(previous request at {self._last_timestamp})",
            )
        if request.address < 0:
            self._fail(index, f"negative address {request.address}")
        if self.alignment > 1 and request.address % self.alignment:
            self._fail(
                index,
                f"address 0x{request.address:x} not {self.alignment}-byte aligned",
            )
        if self.max_address is not None and request.end_address > self.max_address:
            self._fail(
                index,
                f"request [0x{request.address:x}, 0x{request.end_address:x}) "
                f"exceeds address space 0x{self.max_address:x}",
            )
        if request.size <= 0:
            self._fail(index, f"non-positive size {request.size}")
        operation = request.operation
        if operation is not Operation.READ and operation is not Operation.WRITE:
            self._fail(index, f"illegal operation {operation!r} (not READ/WRITE)")
        self._last_timestamp = timestamp
        self.checked += 1
        return request

    def watch(self, requests: Iterable[MemoryRequest]) -> Iterator[MemoryRequest]:
        """Yield ``requests`` unchanged, validating each one."""
        for request in requests:
            yield self.check(request)


# -- process-wide sanitize mode ---------------------------------------------

_ACTIVE_CONFIG: Optional[dict] = None


def enable(
    alignment: int = 1,
    max_address: Optional[int] = None,
    require_monotonic: bool = True,
) -> None:
    """Turn on sanitize mode for every sim driver in this process."""
    global _ACTIVE_CONFIG
    _ACTIVE_CONFIG = {
        "alignment": alignment,
        "max_address": max_address,
        "require_monotonic": require_monotonic,
    }


def disable() -> None:
    """Turn sanitize mode back off."""
    global _ACTIVE_CONFIG
    _ACTIVE_CONFIG = None


def active() -> bool:
    """Whether process-wide sanitize mode is on."""
    return _ACTIVE_CONFIG is not None


def make_checker(label: str) -> Optional[TraceInvariantChecker]:
    """A checker per the process-wide config, or ``None`` when off."""
    if _ACTIVE_CONFIG is None:
        return None
    return TraceInvariantChecker(label=label, **_ACTIVE_CONFIG)


# -- lock-order sanitizer ----------------------------------------------------


class LockOrderChecker:
    """Cycle detection over the observed lock-acquisition graph.

    Each thread keeps a stack of the named locks it currently holds;
    acquiring ``B`` while holding ``A`` inserts the edge ``A → B``. A
    violation is recorded when the *closing* edge of a cycle appears —
    some earlier schedule acquired the locks in the opposite order — or
    when a thread re-acquires a non-reentrant lock it already holds.
    This catches latent deadlocks from any interleaving that exercises
    both orders, without needing the deadlocking schedule itself.

    A non-blocking try-acquisition cannot wait, so it cannot deadlock:
    it joins the held stack (later blocking acquisitions nest under it)
    but is itself checked for neither re-entrance nor ordering. This is
    what lets the prewarm claim every free per-key ``FileLock`` at once.

    Observation-only: violations are recorded (and mirrored to
    ``repro.obs`` when a registry is active), never raised, so a
    sanitized run completes and reports at shutdown.
    """

    __slots__ = ("violations", "acquisitions", "_edges", "_local", "_lock")

    def __init__(self) -> None:
        self.violations: List[str] = []
        self.acquisitions = 0
        self._edges: Dict[str, Set[str]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _reaches(self, start: str, goal: str) -> bool:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def _record(self, message: str) -> None:
        self.violations.append(message)
        registry = obs.active()
        if registry is not None:
            registry.counter("sanitize.lock_order.violations").inc()
            registry.event("sanitize.lock_order.violation", detail=message)

    def _check_order(self, name: str, stack: List[str]) -> None:
        """Flag re-entrance or a cycle-closing edge (caller holds ``_lock``)."""
        if name in stack:
            self._record(
                f"re-entrant acquisition of {name} "
                f"(already held by this thread; held stack: {stack})"
            )
            return
        for held in stack:
            targets = self._edges.setdefault(held, set())
            if name in targets:
                continue
            if self._reaches(name, held):
                self._record(
                    f"lock order cycle: acquiring {name} while "
                    f"holding {held}, but an earlier schedule "
                    f"acquired {held} while holding {name}"
                )
            targets.add(name)

    def acquired(self, name: str, blocking: bool = True) -> None:
        """Record that the calling thread now holds ``name``."""
        stack = self._stack()
        with self._lock:
            self.acquisitions += 1
            if blocking:
                self._check_order(name, stack)
            registry = obs.active()
            if registry is not None:
                registry.counter("sanitize.lock_order.acquisitions").inc()
        stack.append(name)

    def released(self, name: str) -> None:
        """Record that the calling thread released ``name``."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    def edge_count(self) -> int:
        with self._lock:
            return sum(len(targets) for targets in self._edges.values())

    def report(self) -> dict:
        with self._lock:
            return {
                "acquisitions": self.acquisitions,
                "edges": sum(len(t) for t in self._edges.values()),
                "violations": list(self.violations),
            }


def enable_lock_order_check() -> LockOrderChecker:
    """Install a process-wide lock-order checker (and return it).

    Hooks the store's :class:`~repro.store.locks.FileLock` so
    cross-process compute locks join the acquisition graph as the
    single ``repro.store.locks.FileLock`` hierarchy level.
    """
    checker = LockOrderChecker()
    _store_locks.set_lock_observer(checker)
    return checker


def disable_lock_order_check() -> None:
    """Tear the lock-order checker back down."""
    _store_locks.set_lock_observer(None)


# -- determinism double-run harness -----------------------------------------


def canonical_json(result: object) -> str:
    """Canonical serialized form used for determinism diffs."""
    from ..eval.__main__ import _json_sanitize

    return json.dumps(_json_sanitize(result), indent=2, sort_keys=True)


def check_determinism(
    experiment: str = "fig3", num_requests: int = 1000
) -> Tuple[bool, str, str]:
    """Run ``experiment`` twice and compare canonical JSON.

    Returns ``(identical, first_payload, second_payload)``. Runs happen
    in one process with identical seeds, so any divergence means hidden
    global state (unseeded RNG, mutation of shared caches, hash-order
    leakage into results).
    """
    from ..eval.__main__ import EXPERIMENTS

    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from "
            f"{', '.join(sorted(EXPERIMENTS))}"
        )
    runner, _ = EXPERIMENTS[experiment]
    first = canonical_json(runner(num_requests))
    second = canonical_json(runner(num_requests))
    return first == second, first, second


def first_divergence(first: str, second: str) -> str:
    """Human-readable description of where two payloads first differ."""
    first_lines = first.splitlines()
    second_lines = second.splitlines()
    for number, (a, b) in enumerate(zip(first_lines, second_lines), start=1):
        if a != b:
            return f"line {number}: {a.strip()!r} != {b.strip()!r}"
    if len(first_lines) != len(second_lines):
        return (
            f"payload lengths differ: {len(first_lines)} vs "
            f"{len(second_lines)} lines"
        )
    return "payloads identical"
