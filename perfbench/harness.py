"""Measurement loop, span recorder and metric assembly.

A run is one closed loop from one client: one process, one thread. Set-up
(interpreter start, library import, input generation) is timed apart
from the passes; each pass then sends every input of the workload
through its pipeline once, and passes repeat until the run's time is
spent. The run's time counts from process start, set-up included, and
a pass starts only if a pass of median length still fits in it.
End-to-end figures are medians over passes.

A shared host's speed drifts by a quarter or more over tens of seconds,
so a fixed reference loop (:func:`reference_work`) is timed just before
each input of a pass and each set-up step, and the time measured after
it is scaled by how much slower or faster than nominal the reference
ran (:func:`calibrated`). The raw figures go to the detail line.

With tracing on, every other pass records spans and the passes between
them run untraced, so one process yields the per-layer figures, the
tracing overhead, and a check that traced and untraced passes simulate
the same statistics.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import pipelines
from repro.eval.metrics import GEOMEAN_FLOOR

#: Fewest passes a run makes, however long each takes.
MIN_PASSES = 3

#: Times a run repeats each set-up step; ``setup_s`` is built from medians.
SETUP_REPEATS = 5

#: About the seconds :func:`reference_work` took on the host the benchmark
#: was tuned on (2 shared vCPUs, Python 3.11, 4-6 ms). It only sets the
#: scale of the calibrated figures: it multiplies every time alike.
REFERENCE_NOMINAL_S = 0.005

_REFERENCE_RNG = random.Random(7)
_REFERENCE_KEYS = [_REFERENCE_RNG.getrandbits(24) for _ in range(8000)]


def reference_work() -> int:
    """Fixed interpreter work, dict- and allocation-heavy like the program."""
    counts: Dict[int, int] = {}
    for key in _REFERENCE_KEYS:
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts.items()))


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def calibrated(seconds: float, reference: float) -> float:
    """``seconds`` as they would read on a host where the reference takes nominal time."""
    return seconds * REFERENCE_NOMINAL_S / reference


#: Span names that wrap a call into one of the program's layers. The
#: ``unit`` span around each input's calls is the benchmark's own glue.
LAYER_SPANS = (
    "workloads",
    "profiler",
    "stm",
    "hrd.fit",
    "hrd.synth",
    "serialization",
    "synthesis",
    "dram",
    "feedback",
    "cache",
)


class _Span:
    __slots__ = ("spans", "name", "trace_id", "index")

    def __init__(self, spans: "Spans", name: str, trace_id: Optional[str]):
        self.spans, self.name, self.trace_id = spans, name, trace_id

    def __enter__(self):
        spans = self.spans
        parent = spans.stack[-1] if spans.stack else None
        self.index = len(spans.records)
        spans.records.append([self.name, time.perf_counter(), 0.0, parent, self.trace_id])
        spans.stack.append(self.index)

    def __exit__(self, *exc):
        self.spans.records[self.index][2] = time.perf_counter()
        self.spans.stack.pop()
        return False


class Spans:
    """Spans kept in memory: ``[name, start, end, parent index, trace id]``."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self.stack: List[int] = []

    def span(self, name: str, trace_id: Optional[str] = None) -> _Span:
        return _Span(self, name, trace_id)

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, less the time its child spans cover."""
        covered = [0.0] * len(self.records)
        for _, start, end, parent, _ in self.records:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.records):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
        return totals


class NoSpans:
    """The tracer used with tracing off: every span is one shared no-op."""

    class _Null:
        __slots__ = ()

        def __enter__(self):
            return None

        def __exit__(self, *exc):
            return False

    _NULL = _Null()

    def span(self, name: str, trace_id: Optional[str] = None):
        return self._NULL


NO_SPANS = NoSpans()


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def time_import(src: Path) -> float:
    """Wall seconds for a fresh interpreter to import the pipeline's modules."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import " + ", ".join(
        pipelines.IMPORTED_MODULES
    )
    # No timeout: with one, subprocess polls the child in sleeps of up to
    # 50 ms, which would round every import time up to that step.
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


@dataclass
class Run:
    """What one benchmark run measured and checked."""

    workload: str
    seed: int
    requests: int
    import_s: List[float] = field(default_factory=list)  # raw, as are the next three
    import_references: List[float] = field(default_factory=list)
    generate_s: List[float] = field(default_factory=list)
    generate_references: List[float] = field(default_factory=list)
    generate_spans: List[Spans] = field(default_factory=list)
    generated_requests: int = 0
    pass_walls: List[float] = field(default_factory=list)
    pass_traced: List[bool] = field(default_factory=list)
    pass_rates: List[float] = field(default_factory=list)  # calibrated
    pass_raw_rates: List[float] = field(default_factory=list)
    pass_references: List[float] = field(default_factory=list)  # median per pass
    pass_spans: List[Spans] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    unit_digests: List[str] = field(default_factory=list)
    synth_error_pct: float = 0.0
    synth_error_pct_unfloored: float = 0.0
    engine: dict = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    peak_rss_mib: float = 0.0

    @property
    def stats_digest(self) -> str:
        return pipelines.stats_digest(self.unit_digests)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _layer_counts(results: List[pipelines.UnitResult]) -> Dict[str, float]:
    """Work each layer did in one pass, from what the pass returned."""
    counts = dict.fromkeys(
        (
            "profiler.leaves",
            "serialization.profile_bytes",
            "serialization.profiled_requests",
            "synthesis.requests",
            "dram.requests",
            "dram.batched_requests",
            "dram.bursts",
            "dram.row_hits",
            "dram.backpressure_cycles",
            "feedback.requests",
            "feedback.backpressure_cycles",
            "cache.accesses",
            "cache.l1_misses",
            "cache.l2_accesses",
            "cache.l2_misses",
        ),
        0,
    )
    for result in results:
        counts["profiler.leaves"] += result.profile_leaves
        if result.profile_bytes:
            counts["serialization.profile_bytes"] += result.profile_bytes
            counts["serialization.profiled_requests"] += result.profiled_requests
        counts["synthesis.requests"] += sum(
            length for layer, _, length in result.synthesized if layer == "synthesis"
        )
        for replay in result.replays:
            stats = replay.stats
            if replay.layer == "dram":
                counts["dram.requests"] += replay.requests
                counts["dram.batched_requests"] += replay.requests if replay.batched else 0
                counts["dram.bursts"] += stats.read_bursts + stats.write_bursts
                counts["dram.row_hits"] += stats.read_row_hits + stats.write_row_hits
                counts["dram.backpressure_cycles"] += stats.backpressure_delay
            elif replay.layer == "feedback":
                counts["feedback.requests"] += replay.requests
                counts["feedback.backpressure_cycles"] += stats.backpressure_delay
            else:
                counts["cache.accesses"] += stats.l1.accesses
                counts["cache.l1_misses"] += stats.l1.misses
                counts["cache.l2_accesses"] += stats.l2.accesses
                counts["cache.l2_misses"] += stats.l2.misses
    return counts


def _check_pass(run: Run, results: list) -> None:
    """Count failed units: errors, broken conservation, changed statistics."""
    first = not run.unit_digests
    for index, result in enumerate(results):
        run.attempted += 1
        if isinstance(result, str):
            run.failed += 1
            run.problems.append(result)
            if first:
                run.unit_digests.append("")
            continue
        problems = pipelines.check_unit(result)
        digest = pipelines.unit_digest(result)
        if first:
            run.unit_digests.append(digest)
        elif digest != run.unit_digests[index]:
            problems.append(f"{result.name}: statistics differ from the first pass")
        if problems:
            run.failed += 1
            run.problems.extend(problems)


def execute(
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool,
    requests: Optional[int] = None,
    src: Optional[Path] = None,
    setup_repeats: int = SETUP_REPEATS,
    started: Optional[float] = None,
) -> Run:
    """Set up, then run passes until ``seconds`` are spent; check every output.

    ``src`` is the source tree whose import time is measured; ``None``
    skips the child-interpreter import timing (used by the tests).
    ``started`` is the ``time.perf_counter()`` reading the run's time
    counts from, by default the call of this function.
    """
    deadline = (time.perf_counter() if started is None else started) + seconds
    workload = pipelines.WORKLOADS[workload_name]
    requests = requests if requests is not None else pipelines.DEFAULT_REQUESTS
    run = Run(workload_name, seed, requests)

    if src is not None:
        for _ in range(setup_repeats):
            run.import_references.append(time_reference())
            run.import_s.append(time_import(src))
    traces = None
    for _ in range(setup_repeats):
        traces = None  # free the previous repetition's traces first
        spans = Spans() if traced else NO_SPANS
        run.generate_references.append(time_reference())
        start = time.perf_counter()
        traces = pipelines.generate_inputs(workload, seed, requests, spans)
        run.generate_s.append(time.perf_counter() - start)
        if traced:
            run.generate_spans.append(spans)
    run.generated_requests = sum(len(trace) for trace in traces)

    lengths: List[float] = []  # whole pass, checks included
    index = 0
    while index < MIN_PASSES or time.perf_counter() + median(lengths) < deadline:
        begun = time.perf_counter()
        pass_traced = traced and index % 2 == 0
        spans = Spans() if pass_traced else NO_SPANS
        results: list = []
        wall = 0.0
        references = []
        for name, trace in zip(workload.inputs, traces):
            references.append(time_reference())
            start = time.perf_counter()
            with spans.span("unit", name):
                try:
                    results.append(workload.unit(name, trace, seed, spans))
                except Exception:  # counted as a failed operation
                    results.append(f"{name}: {traceback.format_exc()}")
            wall += time.perf_counter() - start

        replayed = sum(
            replay.requests
            for result in results
            if not isinstance(result, str)
            for replay in result.replays
        )
        run.pass_walls.append(wall)
        run.pass_traced.append(pass_traced)
        reference = median(references)
        run.pass_raw_rates.append(replayed / wall)
        run.pass_rates.append(replayed / calibrated(wall, reference))
        run.pass_references.append(reference)
        if pass_traced:
            run.pass_spans.append(spans)
        if index == 0:
            done = [result for result in results if not isinstance(result, str)]
            run.synth_error_pct = pipelines.synth_error_pct(done) if done else 0.0
            run.synth_error_pct_unfloored = (
                pipelines.synth_error_pct(done, floor=GEOMEAN_FLOOR) if done else 0.0
            )
            run.engine = pipelines.engine_disclosure(done)
            run.counts = _layer_counts(done)
        _check_pass(run, results)
        results = None
        index += 1
        lengths.append(time.perf_counter() - begun)

    run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run


def end_to_end_metrics(run: Run) -> Dict[str, float]:
    return {
        "requests_per_s": median(run.pass_rates),
        "setup_s": median(map(calibrated, run.import_s, run.import_references))
        + median(map(calibrated, run.generate_s, run.generate_references)),
        "peak_rss_mib": run.peak_rss_mib,
        "synth_error_pct": run.synth_error_pct,
    }


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer_metrics(run: Run) -> Dict[str, float]:
    """Per-pass figures of each layer, medians over the traced passes."""
    per_pass = [spans.self_times() for spans in run.pass_spans]
    busy = {name: median([t.get(name, 0.0) for t in per_pass]) for name in LAYER_SPANS}
    busy["workloads"] = median(
        [spans.self_times().get("workloads", 0.0) for spans in run.generate_spans]
    )
    layer_total = [
        sum(t for name, t in times.items() if name in LAYER_SPANS) for times in per_pass
    ]
    traced_walls = [w for w, t in zip(run.pass_walls, run.pass_traced) if t]
    untraced_walls = [w for w, t in zip(run.pass_walls, run.pass_traced) if not t]
    c = run.counts
    return {
        "workloads.busy_s": busy["workloads"],
        "workloads.requests": run.generated_requests,
        "profiler.busy_s": busy["profiler"],
        "profiler.leaves": c["profiler.leaves"],
        "stm.busy_s": busy["stm"],
        "hrd.fit_s": busy["hrd.fit"],
        "hrd.synth_s": busy["hrd.synth"],
        "serialization.busy_s": busy["serialization"],
        "serialization.profile_bytes": c["serialization.profile_bytes"],
        "serialization.bytes_per_request": _per(
            c["serialization.profile_bytes"], c["serialization.profiled_requests"]
        ),
        "synthesis.busy_s": busy["synthesis"],
        "synthesis.requests": c["synthesis.requests"],
        "synthesis.us_per_request": _per(busy["synthesis"], c["synthesis.requests"], 1e6),
        "dram.busy_s": busy["dram"],
        "dram.bursts": c["dram.bursts"],
        "dram.us_per_burst": _per(busy["dram"], c["dram.bursts"], 1e6),
        "dram.row_hit_rate": _per(c["dram.row_hits"], c["dram.bursts"]),
        "dram.backpressure_cycles": c["dram.backpressure_cycles"],
        "dram.batched_fraction": _per(c["dram.batched_requests"], c["dram.requests"]),
        "feedback.busy_s": busy["feedback"],
        "feedback.requests": c["feedback.requests"],
        "feedback.us_per_request": _per(busy["feedback"], c["feedback.requests"], 1e6),
        "feedback.backpressure_cycles": c["feedback.backpressure_cycles"],
        "cache.busy_s": busy["cache"],
        "cache.accesses": c["cache.accesses"],
        "cache.us_per_access": _per(busy["cache"], c["cache.accesses"], 1e6),
        "cache.l1_miss_rate": _per(c["cache.l1_misses"], c["cache.accesses"]),
        "cache.l2_miss_rate": _per(c["cache.l2_misses"], c["cache.l2_accesses"]),
        "trace.unattributed_s": median(
            [wall - layers for wall, layers in zip(traced_walls, layer_total)]
        ),
        "trace.overhead_pct": _per(
            median(traced_walls) - median(untraced_walls), median(untraced_walls), 100.0
        ),
    }


def write_spans(run: Run, path: Path) -> None:
    """Write every recorded span, grouped by set-up repetition and pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ("name", "start", "end", "parent", "trace_id")
    groups = [("setup", i, spans) for i, spans in enumerate(run.generate_spans)]
    groups += [("pass", i, spans) for i, spans in enumerate(run.pass_spans)]
    document = {
        "workload": run.workload,
        "seed": run.seed,
        "requests_per_input": run.requests,
        "fields": fields,
        "groups": [
            {"kind": kind, "index": index, "spans": spans.records}
            for kind, index, spans in groups
        ],
    }
    path.write_text(json.dumps(document, separators=(",", ":")) + "\n")
