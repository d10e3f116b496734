"""Batched memory-system replay must be bit-identical to the scalar loop.

The contract under test (see ``repro/dram/batched.py``): for every
workload and configuration where the fast path engages, the batched
engine produces a :class:`~repro.dram.stats.MemorySystemStats` equal
*field for field* — including every per-channel
:class:`~repro.dram.stats.ControllerStats` — to the scalar
crossbar + FR-FCFS event loop, in open-loop replay and in Option B
feedback replay alike; where the fast path cannot engage, it falls
back to scalar code and equality is trivial but still asserted.
"""

import dataclasses
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import synthesis
from repro.core.columnar import ColumnarTrace
from repro.core.hierarchy import two_level_ts
from repro.core.profile import Profile
from repro.core.profiler import build_profile
from repro.core.request import MemoryRequest, Operation
from repro.dram.batched import BatchedReplay, batched_replay_supported
from repro.dram.config import ChargeCacheConfig, DRAMTiming, MemoryConfig
from repro.interconnect.crossbar import Crossbar, CrossbarConfig
from repro.sim import driver
from repro.sim.driver import (
    simulate_blocks,
    simulate_profile,
    simulate_synthetic,
    simulate_trace,
)
from repro.workloads import TABLE_II_WORKLOADS, make_generator

REQUESTS = 2_500


def _assert_stats_equal(scalar, batched, label):
    """Field-for-field equality with a per-field diagnostic on failure."""
    for field in dataclasses.fields(scalar):
        if field.name == "channels":
            continue
        assert getattr(batched, field.name) == getattr(scalar, field.name), (
            f"{label}: top-level {field.name} differs"
        )
    assert len(batched.channels) == len(scalar.channels)
    for index, (expected, actual) in enumerate(zip(scalar.channels, batched.channels)):
        for field in dataclasses.fields(expected):
            assert getattr(actual, field.name) == getattr(expected, field.name), (
                f"{label}: channel {index} {field.name} differs"
            )
    assert batched == scalar, f"{label}: stats differ"


def _trace(name, num_requests=REQUESTS, seed=7):
    return make_generator(name, seed=seed).generate(num_requests)


def _no_scalar_send(crossbar, request):
    raise AssertionError("the engine fell back to a scalar send")


class TestWorkloadSweep:
    """Every Table II workload, default config: batched == scalar."""

    @pytest.mark.parametrize("name", TABLE_II_WORKLOADS)
    def test_bit_identical(self, name):
        trace = _trace(name)
        scalar = simulate_trace(trace, backend="scalar")
        batched = simulate_trace(
            ColumnarTrace.from_trace(trace), backend="columnar"
        )
        _assert_stats_equal(scalar, batched, name)


#: Configurations chosen to stress every regime: the default (mixed
#: idle/contended), tiny queues (constant queue-full backpressure
#: relief), watermark extremes, channel-count extremes, the plain
#: ``open`` page policy and slow timing. Refresh and ChargeCache configs
#: gate the fast path off entirely and are covered separately below.
CONFIG_VARIANTS = {
    "default": MemoryConfig(),
    "tiny-queues": MemoryConfig(read_queue_size=3, write_queue_size=4),
    "tight-watermarks": MemoryConfig(
        write_queue_size=8, write_high_threshold=0.5, write_low_threshold=0.25
    ),
    "one-channel": MemoryConfig(num_channels=1),
    "eight-channels": MemoryConfig(num_channels=8),
    "open-policy": MemoryConfig(page_policy="open"),
    "slow-timing": MemoryConfig(
        timing=DRAMTiming(t_rp=40, t_rcd=30, t_cl=25, t_burst=8)
    ),
}

#: Contended and uncontended workloads.
SWEEP_WORKLOADS = ("hevc1", "opencl1", "crypto1", "fbc-tiled1")


class TestConfigSweep:
    @pytest.mark.parametrize("label", sorted(CONFIG_VARIANTS))
    @pytest.mark.parametrize("name", SWEEP_WORKLOADS)
    def test_bit_identical(self, name, label):
        config = CONFIG_VARIANTS[label]
        trace = _trace(name)
        scalar = simulate_trace(trace, config, backend="scalar")
        batched = simulate_trace(
            ColumnarTrace.from_trace(trace), config, backend="columnar"
        )
        _assert_stats_equal(scalar, batched, f"{name}/{label}")

    def test_crossbar_variant(self):
        crossbar = CrossbarConfig(latency=20, min_gap=4)
        trace = _trace("trex1")
        scalar = simulate_trace(trace, crossbar_config=crossbar, backend="scalar")
        batched = simulate_trace(
            ColumnarTrace.from_trace(trace), crossbar_config=crossbar,
            backend="columnar",
        )
        _assert_stats_equal(scalar, batched, "trex1/crossbar")


class TestGatedConfigs:
    """Configs the fast path must refuse — results still identical."""

    @pytest.mark.parametrize(
        "label,config",
        [
            ("refresh", MemoryConfig(timing=DRAMTiming(t_refi=7_800, t_rfc=160))),
            ("chargecache", MemoryConfig(charge_cache=ChargeCacheConfig())),
        ],
    )
    def test_gate_and_equality(self, label, config):
        assert not batched_replay_supported(config)
        trace = _trace("hevc2")
        scalar = simulate_trace(trace, config, backend="scalar")
        batched = simulate_trace(
            ColumnarTrace.from_trace(trace), config, backend="columnar"
        )
        _assert_stats_equal(scalar, batched, label)

    def test_default_config_supported(self):
        from repro.core.columnar import numpy_or_none

        if numpy_or_none() is None:
            pytest.skip("fast path requires numpy")
        assert batched_replay_supported(MemoryConfig())
        assert batched_replay_supported(None)

    def test_event_sink_gates_off(self, tmp_path):
        obs.enable(obs.JsonlEventSink(str(tmp_path / "events.jsonl")))
        try:
            assert not batched_replay_supported(MemoryConfig())
        finally:
            obs.disable()

    def test_no_numpy_gates_off(self, monkeypatch):
        monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
        assert not batched_replay_supported(MemoryConfig())
        # Forcing columnar without numpy must still match scalar.
        trace = _trace("cpu-d", 800)
        scalar = simulate_trace(trace, backend="scalar")
        fallback = simulate_trace(trace, backend="columnar")
        _assert_stats_equal(scalar, fallback, "no-numpy")

    def test_completion_hook_served_by_engine(self, monkeypatch):
        trace = _trace("trex2", 1_200)
        seen_scalar = []
        seen_batched = []

        def scalar_run():
            from repro.dram.memory_system import MemorySystem
            from repro.interconnect.crossbar import Crossbar

            memory = MemorySystem()
            memory.on_request_complete = lambda rid, lat: seen_scalar.append((rid, lat))
            crossbar = Crossbar(memory)
            for request in trace:
                crossbar.send(request)
            memory.drain()
            return memory.stats

        scalar = scalar_run()
        # Forbid scalar sends: the engine must serve the hook itself.
        monkeypatch.setattr(Crossbar, "send", _no_scalar_send)
        engine = BatchedReplay()
        engine.memory.on_request_complete = (
            lambda rid, lat: seen_batched.append((rid, lat))
        )
        engine.feed(ColumnarTrace.from_trace(trace))
        batched = engine.finish()
        _assert_stats_equal(scalar, batched, "completion-hook")
        assert seen_batched == seen_scalar


class TestEntryPoints:
    def test_blocks_route_into_engine(self):
        trace = _trace("manhattan")
        columns = ColumnarTrace.from_trace(trace)
        scalar = simulate_trace(trace, backend="scalar")
        batched = simulate_blocks(
            columns.iter_blocks(block_requests=700), backend="columnar"
        )
        fallback = simulate_blocks(
            columns.iter_blocks(block_requests=700), backend="scalar"
        )
        _assert_stats_equal(scalar, batched, "blocks/columnar")
        _assert_stats_equal(scalar, fallback, "blocks/scalar")

    def test_lazy_stream_feed(self):
        trace = _trace("opencl2")
        scalar = simulate_trace(trace, backend="scalar")
        batched = simulate_trace(iter(list(trace)), backend="columnar")
        _assert_stats_equal(scalar, batched, "lazy-stream")

    def test_synthetic_replay(self):
        profile = build_profile(_trace("hevc3", 2_000), two_level_ts())
        scalar = simulate_synthetic(profile, seed=11, backend="scalar")
        batched = simulate_synthetic(profile, seed=11, backend="columnar")
        _assert_stats_equal(scalar, batched, "synthetic")

    def test_incremental_feeds_match_one_shot(self):
        trace = _trace("hevc1")
        columns = ColumnarTrace.from_trace(trace)
        one_shot = simulate_trace(columns, backend="columnar")
        engine = BatchedReplay()
        blocks = list(columns.iter_blocks(block_requests=300))
        for block in blocks:
            engine.feed(block)
        _assert_stats_equal(one_shot, engine.finish(), "incremental")

    def test_empty_block_is_noop(self):
        engine = BatchedReplay()
        engine.feed(ColumnarTrace.from_trace([]))
        stats = engine.finish()
        assert stats.latency_count == 0


#: Option B configs: the default, a starved single channel, write
#: drain on a tiny write queue, the plain ``open`` policy and a crossbar
#: whose serialization gap dominates its latency.
FEEDBACK_CONFIGS = {
    "default": (None, None),
    "one-channel-rq4": (MemoryConfig(num_channels=1, read_queue_size=4), None),
    "wq4-drain": (
        MemoryConfig(
            write_queue_size=4, write_high_threshold=0.75, write_low_threshold=0.25
        ),
        None,
    ),
    "open-policy": (MemoryConfig(page_policy="open"), None),
    "gap3": (None, CrossbarConfig(latency=0, min_gap=3)),
}

FEEDBACK_REQUESTS = 1_500


def _profile(name, num_requests=FEEDBACK_REQUESTS):
    return build_profile(_trace(name, num_requests), two_level_ts())


def _feedback_pair(profile, config=None, crossbar_config=None, seed=1, **kwargs):
    scalar = simulate_profile(
        profile, config, crossbar_config, seed=seed, backend="scalar", **kwargs
    )
    batched = simulate_profile(
        profile, config, crossbar_config, seed=seed, backend="columnar", **kwargs
    )
    return scalar, batched


def _replay_stream(requests, backend, config=None):
    """``simulate_profile`` over a fixed request stream instead of a
    profile's synthesis, so both engines see exactly ``requests``."""
    stream = lambda profile, **_: iter(requests)  # noqa: E731
    with mock.patch.object(synthesis, "synthesize_stream", stream), mock.patch.object(
        driver, "synthesize_stream", stream
    ):
        return simulate_profile(Profile([]), config, backend=backend)


@st.composite
def small_traces(draw):
    """Short bursty traces: equal timestamps, burst-crossing sizes."""
    count = draw(st.integers(1, 40))
    clock = draw(st.integers(0, 50))
    requests = []
    for _ in range(count):
        clock += draw(st.sampled_from([0, 0, 1, 3, 40, 400]))
        requests.append(
            MemoryRequest(
                clock,
                draw(st.integers(0, 1 << 16)) * 16,
                draw(st.sampled_from([Operation.READ, Operation.WRITE])),
                draw(st.sampled_from([16, 64, 65, 100, 128, 200])),
            )
        )
    return requests


class TestFeedbackReplay:
    """Option B: the engine carries the feedback offset bit-identically."""

    @pytest.mark.parametrize("name", TABLE_II_WORKLOADS)
    def test_workload_sweep(self, name):
        scalar, batched = _feedback_pair(_profile(name))
        _assert_stats_equal(scalar, batched, f"feedback/{name}")

    @pytest.mark.parametrize("seed", (1, 2020))
    @pytest.mark.parametrize("label", sorted(FEEDBACK_CONFIGS))
    @pytest.mark.parametrize("name", SWEEP_WORKLOADS)
    def test_config_sweep(self, name, label, seed):
        config, crossbar = FEEDBACK_CONFIGS[label]
        scalar, batched = _feedback_pair(_profile(name), config, crossbar, seed=seed)
        _assert_stats_equal(scalar, batched, f"feedback/{name}/{label}/{seed}")

    def test_empty_profile(self):
        scalar, batched = _feedback_pair(Profile([]))
        _assert_stats_equal(scalar, batched, "feedback/empty")
        assert batched.latency_count == 0

    def test_timestamps_straddling_the_ceiling(self, monkeypatch):
        """Chunks above 2^61 take scalar sends; the offset crosses both ways."""
        base = (1 << 61) - 3_000
        requests = [
            MemoryRequest(base + 7 * index, (index * 4_160) % (1 << 20),
                          Operation(index % 3 == 0), 64 + 32 * (index % 3))
            for index in range(900)
        ]
        assert requests[0].timestamp < 1 << 61 < requests[-1].timestamp
        monkeypatch.setattr(driver, "_BATCH_CHUNK", 97)
        scalar = _replay_stream(requests, "scalar")
        batched = _replay_stream(requests, "columnar")
        _assert_stats_equal(scalar, batched, "feedback/ceiling")
        assert scalar.backpressure_delay

    def test_unstorable_chunks_apply_the_offset(self, monkeypatch):
        """Chunks the column store refuses are sent with the offset too."""
        requests = [
            MemoryRequest(5 * index, 64 * index, Operation.READ, 64)
            for index in range(600)
        ]
        requests[450] = MemoryRequest(2_250, 1 << 70, Operation.WRITE, 64)
        monkeypatch.setattr(driver, "_BATCH_CHUNK", 128)
        scalar = _replay_stream(requests, "scalar")
        batched = _replay_stream(requests, "columnar")
        _assert_stats_equal(scalar, batched, "feedback/unstorable")

    @pytest.mark.parametrize(
        "label,config",
        [
            ("refresh", MemoryConfig(timing=DRAMTiming(t_refi=7_800, t_rfc=160))),
            ("chargecache", MemoryConfig(charge_cache=ChargeCacheConfig())),
        ],
    )
    def test_gated_configs(self, label, config):
        assert not batched_replay_supported(config)
        scalar, batched = _feedback_pair(_profile("hevc2", 800), config)
        _assert_stats_equal(scalar, batched, f"feedback/{label}")

    def test_event_sink(self, tmp_path):
        profile = _profile("trex1", 600)
        obs.enable(obs.JsonlEventSink(str(tmp_path / "events.jsonl")))
        try:
            scalar, batched = _feedback_pair(profile)
        finally:
            obs.disable()
        _assert_stats_equal(scalar, batched, "feedback/event-sink")

    def test_sanitize(self):
        scalar, batched = _feedback_pair(_profile("cpu-d", 600), sanitize=True)
        _assert_stats_equal(scalar, batched, "feedback/sanitize")

    def test_no_numpy(self, monkeypatch):
        profile = _profile("cpu-g", 600)
        monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
        scalar, batched = _feedback_pair(profile)
        _assert_stats_equal(scalar, batched, "feedback/no-numpy")

    def test_registry_values_match_scalar(self):
        profile = _profile("opencl1")
        snapshots = {}
        for backend in ("scalar", "columnar"):
            obs.enable()
            try:
                simulate_profile(profile, seed=1, backend=backend)
                snapshots[backend] = obs.active().snapshot()
            finally:
                obs.disable()
            snapshots[backend].pop("phases_seconds")
        assert snapshots["columnar"] == snapshots["scalar"]
        counters = snapshots["scalar"]["counters"]
        assert counters["synthesis.backpressure_events"] > 0
        assert counters["synthesis.backpressure_delay_cycles"] > 0
        assert snapshots["scalar"]["gauges"]["synthesis.accumulated_delay_cycles"] > 0

    @given(small_traces(), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_on_generated_traces(self, requests, chunk):
        config = MemoryConfig(num_channels=2, read_queue_size=4, write_queue_size=8)
        with mock.patch.object(driver, "_BATCH_CHUNK", chunk):
            scalar = _replay_stream(requests, "scalar", config)
            batched = _replay_stream(requests, "columnar", config)
        _assert_stats_equal(scalar, batched, "feedback/generated")


class TestObservability:
    def test_registry_values_match_scalar(self):
        """Counters and histograms, not just stats, must be identical."""
        trace = _trace("hevc1")
        columns = ColumnarTrace.from_trace(trace)
        snapshots = {}
        for backend, source in (("scalar", trace), ("columnar", columns)):
            obs.enable()
            try:
                simulate_trace(source, backend=backend)
                snapshots[backend] = obs.active().snapshot()
            finally:
                obs.disable()
            # Wall time legitimately differs; everything else must not.
            snapshots[backend].pop("phases_seconds")
        assert snapshots["columnar"] == snapshots["scalar"]

    def test_phase_timers_recorded(self):
        obs.enable()
        try:
            simulate_trace(
                ColumnarTrace.from_trace(_trace("cpu-g", 600)), backend="columnar"
            )
            phases = obs.active().phases
        finally:
            obs.disable()
        assert "replay.crossbar" in phases
        assert "replay.dram" in phases


class TestFigureJson:
    def test_fig6_quick_byte_identical(self, tmp_path, monkeypatch):
        """The CLI figure JSON must not depend on the backend at all."""
        from repro.eval.__main__ import main
        from repro.eval.comparison import clear_cache

        outputs = {}
        for backend in ("scalar", "columnar"):
            clear_cache()
            path = tmp_path / f"fig6-{backend}.json"
            assert main([
                "quick", "fig6", "--requests", "1200",
                "--backend", backend, "--json-out", str(path),
            ]) == 0
            outputs[backend] = path.read_bytes()
        monkeypatch.delenv("MOCKTAILS_BACKEND", raising=False)
        assert outputs["columnar"] == outputs["scalar"]
        json.loads(outputs["scalar"])  # sanity: well-formed experiment JSON
