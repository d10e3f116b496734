"""Simulation drivers: trace / profile -> crossbar -> memory system.

Mirrors the paper's validation platform (Sec. IV-A): a traffic generator
feeding main memory through a crossbar. Three entry points:

* :func:`simulate_trace` — replay a trace or any time-ordered request
  iterable (the *baseline* runs, and Option A synthesis);
* :func:`simulate_profile` — coupled Option B: the backpressure delay
  each request sees shifts the timestamps of every later one;
* :func:`simulate_synthetic` — Option A: profile -> streamed synthetic
  requests -> replay, without materializing the trace.

Two equivalent replay engines sit behind every entry point, mirroring
:mod:`repro.sim.cache_driver`: the scalar crossbar + memory event loop
and the batched :class:`~repro.dram.batched.BatchedReplay` (columnar
blocks through a span transcription of that loop; Option B carries the
feedback offset through it). Both produce field-identical
:class:`~repro.dram.stats.MemorySystemStats`; the resolved backend (see
:mod:`repro.core.columnar`) picks the engine. Sanitize mode,
ChargeCache, refresh and page policies other than ``open`` /
``open_adaptive`` always take the scalar path
(:func:`repro.dram.batched.batched_replay_supported` is the gate).

Replay wall time is attributed to ``replay.crossbar`` (injection) and
``replay.dram`` (final drain) phase timers when observability is on;
the attribution is wall-clock only and never changes statistics.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterable, Optional, Union

from .. import obs
from ..core.columnar import ColumnarTrace, resolve_backend
from ..core.profile import Profile
from ..core.request import MemoryRequest
from ..core.synthesis import FeedbackSynthesizer, synthesize_stream
from ..core.trace import Trace
from ..dram.batched import BatchedReplay, batched_replay_supported
from ..dram.config import MemoryConfig
from ..dram.memory_system import MemorySystem
from ..dram.stats import MemorySystemStats
from ..interconnect.crossbar import Crossbar, CrossbarConfig
from ..lint import sanitize as _sanitize

#: Requests per column block when batching a lazy request stream.
_BATCH_CHUNK = 8192


def _checker(sanitize: Optional[bool], label: str):
    """Resolve the per-call flag against the process-wide sanitize mode.

    ``None`` follows :func:`repro.lint.sanitize.active`; ``True`` forces
    a checker on; ``False`` forces it off. The checker only observes the
    stream, so results are bit-identical with or without it.
    """
    if sanitize is False:
        return None
    if sanitize is None and not _sanitize.active():
        return None
    checker = _sanitize.make_checker(label)
    return checker if checker is not None else _sanitize.TraceInvariantChecker(label=label)


def _sanitizing(sanitize: Optional[bool]) -> bool:
    return sanitize is True or (sanitize is None and _sanitize.active())


def _use_batched(
    backend: Optional[str],
    sanitize: Optional[bool],
    config: Optional[MemoryConfig],
    crossbar_config: Optional[CrossbarConfig],
) -> bool:
    return (
        resolve_backend(backend) == "columnar"
        and not _sanitizing(sanitize)
        and batched_replay_supported(config, crossbar_config)
    )


def _feed_lazy(engine: BatchedReplay, requests: Iterable[MemoryRequest]) -> None:
    """Feed a lazy request stream to the batch engine, chunk by chunk.

    A chunk whose values do not fit the column store (columns are
    bounded, request objects are not) is sent request by request.
    """
    iterator = iter(requests)
    while True:
        chunk = list(islice(iterator, _BATCH_CHUNK))
        if not chunk:
            return
        try:
            block = ColumnarTrace.from_trace(chunk)
        except (ValueError, OverflowError):
            engine.send_each(chunk)
        else:
            engine.feed(block)


def _replay_batched(
    source: Union[ColumnarTrace, Iterable[MemoryRequest]],
    config: Optional[MemoryConfig],
    crossbar_config: Optional[CrossbarConfig],
    feedback: bool = False,
) -> MemorySystemStats:
    engine = BatchedReplay(config, crossbar_config, feedback=feedback)
    with obs.phase("replay.crossbar"):
        if isinstance(source, ColumnarTrace):
            engine.feed(source)
        else:
            _feed_lazy(engine, source)
    with obs.phase("replay.dram"):
        return engine.finish()


def simulate_trace(
    trace: Union[ColumnarTrace, Iterable[MemoryRequest]],
    config: Optional[MemoryConfig] = None,
    crossbar_config: Optional[CrossbarConfig] = None,
    sanitize: Optional[bool] = None,
    backend: Optional[str] = None,
) -> MemorySystemStats:
    """Replay a time-ordered request stream through crossbar + memory.

    Accepts a :class:`~repro.core.trace.Trace`, a
    :class:`~repro.core.columnar.ColumnarTrace`, or any iterable of
    time-ordered requests — including a lazy generator, so synthetic
    streams can be replayed without materializing the full trace.

    ``sanitize=True`` (or process-wide
    :func:`repro.lint.sanitize.enable`) validates every request against
    the trace invariants — monotonic timestamps, legal addresses and
    operations — raising
    :class:`~repro.lint.sanitize.InvariantViolation` on the first break.

    ``backend`` overrides the process-wide selection; the scalar and
    batched engines return identical statistics.
    """
    if _use_batched(backend, sanitize, config, crossbar_config):
        return _replay_batched(trace, config, crossbar_config)
    if isinstance(trace, ColumnarTrace):
        trace = trace.iter_requests()
    checker = _checker(sanitize, "simulate_trace")
    if checker is not None:
        trace = checker.watch(trace)
    memory = MemorySystem(config)
    crossbar = Crossbar(memory, crossbar_config)
    with obs.phase("replay.crossbar"):
        crossbar.send_many(trace)
    with obs.phase("replay.dram"):
        memory.drain()
    return memory.stats


def simulate_blocks(
    blocks: Iterable[ColumnarTrace],
    config: Optional[MemoryConfig] = None,
    crossbar_config: Optional[CrossbarConfig] = None,
    sanitize: Optional[bool] = None,
    backend: Optional[str] = None,
) -> MemorySystemStats:
    """Replay a stream of column blocks through crossbar + memory.

    The out-of-core twin of :func:`simulate_trace`: blocks (e.g. from
    :func:`repro.stream.iter_blocks`) are consumed one block at a time,
    so peak memory is O(block) regardless of trace length. On the
    columnar backend the blocks route straight into the batch engine
    without ever materializing per-request objects; the scalar fallback
    expands them lazily. Statistics equal :func:`simulate_trace` over
    the concatenated blocks.
    """
    if _use_batched(backend, sanitize, config, crossbar_config):
        engine = BatchedReplay(config, crossbar_config)
        with obs.phase("replay.crossbar"):
            for block in blocks:
                engine.feed(block)
        with obs.phase("replay.dram"):
            return engine.finish()
    return simulate_trace(
        (request for block in blocks for request in block.iter_requests()),
        config,
        crossbar_config,
        sanitize=sanitize,
        backend="scalar",
    )


def simulate_profile(
    profile: Profile,
    config: Optional[MemoryConfig] = None,
    crossbar_config: Optional[CrossbarConfig] = None,
    seed: Union[int, random.Random, None] = 0,
    strict: bool = True,
    sanitize: Optional[bool] = None,
    backend: Optional[str] = None,
) -> MemorySystemStats:
    """Coupled synthesis (Option B): backpressure feeds back into timing.

    Each request is shifted by the summed crossbar delays of all earlier
    requests. Feedback never changes which requests are drawn, so the
    batched engine replays :func:`~repro.core.synthesis.synthesize_stream`
    in column chunks and carries that running offset itself; the scalar
    backend pulls from a :class:`FeedbackSynthesizer` one request at a
    time. ``backend`` overrides the process-wide selection; both engines
    return identical statistics.
    """
    if _use_batched(backend, sanitize, config, crossbar_config):
        return _replay_batched(
            synthesize_stream(profile, seed=seed, strict=strict),
            config,
            crossbar_config,
            feedback=True,
        )
    memory = MemorySystem(config)
    crossbar = Crossbar(memory, crossbar_config)
    synthesizer = FeedbackSynthesizer(profile, seed=seed, strict=strict)
    checker = _checker(sanitize, "simulate_profile")
    with obs.phase("replay.crossbar"):
        while True:
            request = synthesizer.next_request()
            if request is None:
                break
            if checker is not None:
                checker.check(request)
            delay = crossbar.send(request)
            if delay > 0:
                synthesizer.report_backpressure(delay)
    with obs.phase("replay.dram"):
        memory.drain()
    return memory.stats


def simulate_synthetic(
    profile: Profile,
    config: Optional[MemoryConfig] = None,
    crossbar_config: Optional[CrossbarConfig] = None,
    seed: Union[int, random.Random, None] = 0,
    strict: bool = True,
    sanitize: Optional[bool] = None,
    backend: Optional[str] = None,
) -> MemorySystemStats:
    """Option A: synthesize and replay, streaming request by request.

    Equivalent to replaying :func:`~repro.core.synthesis.synthesize`'s
    trace, but the synthetic requests are fed straight from the
    priority-queue merge into the simulator without buffering the whole
    stream in memory first (the batched engine consumes it in column
    chunks).
    """
    return simulate_trace(
        synthesize_stream(profile, seed=seed, strict=strict),
        config,
        crossbar_config,
        sanitize=sanitize,
        backend=backend,
    )
