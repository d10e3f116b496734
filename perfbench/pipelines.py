"""The benchmark's three workloads, driven through each layer's public API.

A workload is a list of input traces plus a *unit*: the pipeline one
input goes through in one pass. Units call the layers directly
(generation, profile build, profile exchange, synthesis, DRAM or cache
replay) rather than going through ``repro.eval``'s in-process caches, so
every pass computes everything. Each call sits inside a span named after
its layer, from the tracer the caller passes in.

A unit returns a :class:`UnitResult`; the output checks, the statistics
digest and the synthesis error are computed from it after the timed
pass, so none of them is charged to the program.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.baselines.hrd import HRDModel
from repro.baselines.stm import stm_leaf_factory
from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import paper_l2_config
from repro.core.columnar import numpy_or_none, resolve_backend, selected_backend
from repro.core.hierarchy import two_level_rs, two_level_ts
from repro.core.profiler import build_profile
from repro.core.request import Operation
from repro.core.serialization import profile_from_dict, profile_to_dict
from repro.core.synthesis import synthesize
from repro.dram.batched import batched_replay_supported
from repro.dram.config import MemoryConfig
from repro.eval.metrics import geomean_percent_error
from repro.sim import driver
from repro.sim.cache_driver import run_cache_trace
from repro.sim.driver import simulate_profile, simulate_trace
from repro.workloads.registry import TABLE_II_WORKLOADS, make_generator
from repro.workloads.spec import SPEC_BENCHMARKS

#: Modules a fresh interpreter imports before it can run any workload;
#: ``setup_s`` times importing them in a child interpreter.
IMPORTED_MODULES = (
    "repro.baselines.hrd",
    "repro.baselines.stm",
    "repro.core.profiler",
    "repro.core.serialization",
    "repro.core.synthesis",
    "repro.sim.cache_driver",
    "repro.sim.driver",
    "repro.workloads.registry",
)

#: Percent error at or below which a statistic counts as reproduced. The
#: inputs are a few thousand requests each, so a count such as L1
#: write-backs is a handful of events and its error lands on exactly 0%
#: or on several percent by chance. With the repository's 0.01% floor the
#: geomean moves 37-41% (quartile spread) from one seed to the next on
#: spec-cache; with this floor it moves 7-8%. A change that keeps every
#: statistic's error within 1% does not move the metric; the detail
#: line's unfloored geomean and ``stats_digest`` see it.
ERROR_FLOOR_PCT = 1.0

#: Bytes per DRAM burst of the default memory configuration every replay uses.
BURST_SIZE = MemoryConfig().burst_size

#: The two L1 configurations of Fig. 14, each in front of the paper's L2.
CACHE_CONFIGS = (CacheConfig(16 * 1024, 2), CacheConfig(32 * 1024, 4))


@dataclass
class Replay:
    """One run of a request series through a simulated memory system.

    ``fed`` is the replayed trace, or the request total of the profile
    an Option B replay synthesized from. ``supported`` is what
    ``batched_replay_supported`` said just before a DRAM replay, and
    ``batched`` whether ``repro.sim.driver``'s own dispatch predicate
    chose the batched engine for it; both are None where the program
    makes no such choice (Option B) or does not expose it (cache).
    """

    series: str
    layer: str  # "dram", "feedback" or "cache"
    fed: object
    stats: object
    unit_bytes: int = 0  # burst or cache-block size the requests are split into
    supported: Optional[bool] = None
    batched: Optional[bool] = None

    @property
    def requests(self) -> int:
        return self.fed if isinstance(self.fed, int) else len(self.fed)


@dataclass
class UnitResult:
    """Everything one input's pipeline produced in one pass."""

    name: str
    replays: List[Replay] = field(default_factory=list)
    # (layer, profile request total, synthesized trace length)
    synthesized: List[Tuple[str, int, int]] = field(default_factory=list)
    profile_leaves: int = 0
    profile_bytes: int = 0
    profiled_requests: int = 0
    # (measured, reference) pairs the synthesis error is taken over
    error_pairs: List[Tuple[float, float]] = field(default_factory=list)


def request_total(profile) -> int:
    return sum(leaf.count for leaf in profile)


def encode_profile(profile) -> bytes:
    """The gzip bytes :func:`repro.core.serialization.save_profile` writes."""
    payload = json.dumps(profile_to_dict(profile), separators=(",", ":")).encode("ascii")
    return gzip.compress(payload, mtime=0)


def decode_profile(blob: bytes):
    return profile_from_dict(json.loads(gzip.decompress(blob).decode("ascii")))


def _replay_dram(result: UnitResult, series: str, trace, spans):
    supported = batched_replay_supported()
    # The predicate simulate_trace(trace) dispatches on, with its defaults.
    batched = driver._use_batched(None, None, None, None)
    with spans.span("dram", result.name):
        stats = simulate_trace(trace)
    result.replays.append(
        Replay(series, "dram", trace, stats, BURST_SIZE, supported, batched)
    )
    return stats


def dram_figure_stats(stats) -> Tuple[float, ...]:
    """Read/write bursts, row-hit rates, access latency and queue lengths."""
    summary = stats.summary()
    reads, writes = summary["read_bursts"], summary["write_bursts"]
    return (
        reads,
        writes,
        summary["read_row_hits"] / reads if reads else 0.0,
        summary["write_row_hits"] / writes if writes else 0.0,
        summary["avg_access_latency"],
        summary["avg_read_queue_length"],
        summary["avg_write_queue_length"],
    )


def _dram_errors(result: UnitResult, measured, reference) -> None:
    result.error_pairs.extend(zip(dram_figure_stats(measured), dram_figure_stats(reference)))


def soc_dram_unit(name: str, trace, seed: int, spans) -> UnitResult:
    """Sec. IV, Option A: baseline, 2L-TS McC (via profile exchange) and STM."""
    result = UnitResult(name, profiled_requests=len(trace))
    hierarchy = two_level_ts()
    baseline = _replay_dram(result, "baseline", trace, spans)

    with spans.span("profiler", name):
        mcc_profile = build_profile(trace, hierarchy, name=name)
    with spans.span("serialization", name):
        blob = encode_profile(mcc_profile)
        exchanged = decode_profile(blob)
    with spans.span("synthesis", name):
        mcc_trace = synthesize(exchanged, seed=seed + 1)
    mcc = _replay_dram(result, "mcc", mcc_trace, spans)

    with spans.span("stm", name):
        stm_profile = build_profile(
            trace, hierarchy, leaf_factory=stm_leaf_factory, name=name
        )
    with spans.span("synthesis", name):
        stm_trace = synthesize(stm_profile, seed=seed + 1)
    _replay_dram(result, "stm", stm_trace, spans)

    result.profile_leaves = len(mcc_profile)
    result.profile_bytes = len(blob)
    result.synthesized += [
        ("synthesis", request_total(exchanged), len(mcc_trace)),
        ("synthesis", request_total(stm_profile), len(stm_trace)),
    ]
    _dram_errors(result, mcc, baseline)
    return result


def soc_dram_coupled_unit(name: str, trace, seed: int, spans) -> UnitResult:
    """Sec. IV, Option B: backpressure feeds back into synthetic timestamps."""
    result = UnitResult(name, profiled_requests=len(trace))
    baseline = _replay_dram(result, "baseline", trace, spans)
    with spans.span("profiler", name):
        profile = build_profile(trace, two_level_ts(), name=name)
    supported = batched_replay_supported()
    with spans.span("feedback", name):
        coupled = simulate_profile(profile, seed=seed + 1)
    total = request_total(profile)
    result.replays.append(
        Replay("mcc-coupled", "feedback", total, coupled, supported=supported)
    )
    result.profile_leaves = len(profile)
    _dram_errors(result, coupled, baseline)
    return result


def spec_interval(num_requests: int) -> int:
    """Requests per 2L-RS temporal phase: the paper's 100,000, scaled down."""
    return min(100_000, max(num_requests // 5, 1_000))


def spec_cache_unit(name: str, trace, seed: int, spans) -> UnitResult:
    """Sec. V: 2L-RS dynamic and 4KB-fixed McC plus HRD, through L1+L2."""
    result = UnitResult(name, profiled_requests=len(trace))
    interval = spec_interval(len(trace))
    series = {"baseline": trace}
    for label, spatial in (("dynamic", "dynamic"), ("fixed4k", "fixed")):
        with spans.span("profiler", name):
            profile = build_profile(trace, two_level_rs(interval, spatial), name=name)
        with spans.span("synthesis", name):
            series[label] = synthesize(profile, seed=seed + 1)
        result.profile_leaves += len(profile)
        result.synthesized.append(("synthesis", request_total(profile), len(series[label])))
    with spans.span("hrd.fit", name):
        model = HRDModel.fit(trace)
    with spans.span("hrd.synth", name):
        series["hrd"] = model.synthesize(seed=seed + 1)
    result.synthesized.append(("hrd", len(trace), len(series["hrd"])))

    l2_config = paper_l2_config()
    for l1_config in CACHE_CONFIGS:
        runs = {}
        for label, replayed in series.items():
            with spans.span("cache", name):
                runs[label] = run_cache_trace(replayed, l1_config, l2_config)
            result.replays.append(
                Replay(label, "cache", replayed, runs[label], l1_config.block_size)
            )
        baseline, dynamic = runs["baseline"], runs["dynamic"]
        result.error_pairs += [
            (dynamic.l1_miss_rate, baseline.l1_miss_rate),
            (dynamic.l2_miss_rate, baseline.l2_miss_rate),
            (dynamic.l1.write_backs, baseline.l1.write_backs),
        ]
    return result


#: Requests per input trace. Passes take 2.5-4.5 s on the host this was
#: tuned on, so a 40-second run holds eight to fourteen of them.
DEFAULT_REQUESTS = 2_000


@dataclass(frozen=True)
class Workload:
    inputs: Sequence[str]
    unit: Callable[[str, object, int, object], UnitResult]


WORKLOADS: Dict[str, Workload] = {
    "soc-dram": Workload(TABLE_II_WORKLOADS, soc_dram_unit),
    "spec-cache": Workload(SPEC_BENCHMARKS, spec_cache_unit),
    "soc-dram-coupled": Workload(TABLE_II_WORKLOADS, soc_dram_coupled_unit),
}


def generate_inputs(workload: Workload, seed: int, requests: int, spans) -> list:
    """The workload's input traces, made from the seed alone."""
    traces = []
    for name in workload.inputs:
        with spans.span("workloads", name):
            traces.append(make_generator(name, seed=seed).generate(requests))
    return traces


# -- output checks ------------------------------------------------------------------


def _spanned_units(trace, unit_bytes: int) -> Tuple[int, int]:
    """(read, write) aligned ``unit_bytes`` units the trace's requests cover."""
    reads = writes = 0
    for request in trace:
        units = (request.address + request.size - 1) // unit_bytes - (
            request.address // unit_bytes
        ) + 1
        if request.operation is Operation.WRITE:
            writes += units
        else:
            reads += units
    return reads, writes


def check_unit(result: UnitResult) -> List[str]:
    """Conservation checks; returns one message per violation."""
    problems = []
    for replay in result.replays:
        stats, where = replay.stats, f"{result.name}/{replay.series}/{replay.layer}"
        if replay.layer in ("dram", "feedback"):
            if stats.latency_count != replay.requests:
                problems.append(
                    f"{where}: fed {replay.requests} requests, memory completed"
                    f" {stats.latency_count}"
                )
            if replay.layer == "dram":
                expected = _spanned_units(replay.fed, replay.unit_bytes)
                got = (stats.read_bursts, stats.write_bursts)
                if got != expected:
                    problems.append(
                        f"{where}: expected (read, write) bursts {expected}, got {got}"
                    )
        else:
            expected = sum(_spanned_units(replay.fed, replay.unit_bytes))
            if stats.l1.accesses != expected:
                problems.append(
                    f"{where}: expected {expected} L1 accesses, got {stats.l1.accesses}"
                )
            fills = stats.l1.misses + stats.l1.write_backs
            if stats.l2.accesses != fills:
                problems.append(
                    f"{where}: L2 saw {stats.l2.accesses} accesses for {fills} L1 misses"
                    " and write-backs"
                )
    for layer, total, length in result.synthesized:
        if total != length:
            problems.append(
                f"{result.name}/{layer}: profile holds {total} requests, synthesized {length}"
            )
    return problems


# -- statistics digest and synthesis error ---------------------------------------------


def _canonical(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (dict, Counter)):
        return sorted([_canonical(k), _canonical(v)] for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def unit_digest(result: UnitResult) -> str:
    """sha256 over canonical JSON of every simulated statistic of one unit."""
    stats = [
        [replay.series, replay.layer, _canonical(replay.stats)] for replay in result.replays
    ]
    payload = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def stats_digest(unit_digests: Sequence[str]) -> str:
    return hashlib.sha256("".join(unit_digests).encode("ascii")).hexdigest()


def synth_error_pct(results: Sequence[UnitResult], floor: float = ERROR_FLOOR_PCT) -> float:
    """Geomean % error of the McC series against the baseline replay."""
    return geomean_percent_error(
        (pair for result in results for pair in result.error_pairs), floor=floor
    )


_ENGINE_NAMES = {True: "batched", False: "scalar", None: "undisclosed"}


def engine_disclosure(results: Sequence[UnitResult]) -> dict:
    """Which engine each replay layer ran on, as the program reports it.

    Per layer, ``engine`` counts replays by the driver's dispatch
    decision ("batched", "scalar", or "undisclosed" where the program
    exposes none) and ``batched_replay_supported`` counts what that
    function returned before each DRAM replay.
    """
    numpy = numpy_or_none()
    layers: Dict[str, Dict[str, Counter]] = {}
    for result in results:
        for replay in result.replays:
            layer = layers.setdefault(replay.layer, {"engine": Counter()})
            layer["engine"][_ENGINE_NAMES[replay.batched]] += 1
            if replay.supported is not None:
                layer.setdefault("batched_replay_supported", Counter())[
                    str(replay.supported).lower()
                ] += 1
    return {
        "backend_selected": selected_backend(),
        "backend_resolved": resolve_backend(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "obs_registry_attached": obs.active() is not None,
        "replays": {
            name: {key: dict(sorted(c.items())) for key, c in sorted(layer.items())}
            for name, layer in sorted(layers.items())
        },
    }
