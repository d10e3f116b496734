"""Tests of the benchmark itself, at a scale of a few hundred requests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import pipelines  # noqa: E402
import run as command  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
WORKLOADS = sorted(pipelines.WORKLOADS)
TINY = 150


def _names(section):
    return [metric["name"] for metric in SPEC[section]]


def test_benchmark_json_within_caps():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(len(part) <= 200 for part in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60

    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}

    names = [w["name"] for w in SPEC["workloads"]] + _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_benchmark_json_names_the_implemented_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == WORKLOADS


_RUNS = {}


def tiny_run(workload: str, seed: int, traced: bool) -> harness.Run:
    key = (workload, seed, traced)
    if key not in _RUNS:
        _RUNS[key] = harness.execute(
            workload, seed, 0.001, traced, requests=TINY, setup_repeats=1
        )
    return _RUNS[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_completes_with_every_metric(workload):
    run = tiny_run(workload, 1, False)
    inputs = len(pipelines.WORKLOADS[workload].inputs)
    assert run.correct, run.problems
    assert (run.attempted, run.failed) == (harness.MIN_PASSES * inputs, 0)
    metrics = harness.end_to_end_metrics(run)
    assert list(metrics) == _names("end_to_end")
    assert all(value > 0 for value in metrics.values())

    traced = tiny_run(workload, 1, True)
    assert traced.correct, traced.problems
    layers = harness.per_layer_metrics(traced)
    assert list(layers) == _names("per_layer")
    assert layers["trace.unattributed_s"] < 0.5 * max(
        wall for wall, on in zip(traced.pass_walls, traced.pass_traced) if on
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_stats_digest(workload):
    first = tiny_run(workload, 1, False)
    again = harness.execute(workload, 1, 0.001, False, requests=TINY, setup_repeats=1)
    assert again.stats_digest == first.stats_digest
    assert again.synth_error_pct == first.synth_error_pct
    assert tiny_run(workload, 2, False).stats_digest != first.stats_digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_results_equal_untraced(workload):
    plain, traced = tiny_run(workload, 1, False), tiny_run(workload, 1, True)
    assert traced.stats_digest == plain.stats_digest
    assert traced.synth_error_pct == plain.synth_error_pct
    assert traced.counts == plain.counts


def test_calibration_scales_times_by_the_reference():
    nominal = harness.REFERENCE_NOMINAL_S
    assert harness.calibrated(2.0, nominal) == 2.0
    assert harness.calibrated(2.0, 2 * nominal) == 1.0  # a host twice as slow
    run = tiny_run("spec-cache", 1, False)
    assert len(run.pass_references) == len(run.pass_rates) == len(run.pass_raw_rates)
    assert len(run.generate_references) == len(run.generate_s)
    for rate, raw, reference in zip(run.pass_rates, run.pass_raw_rates, run.pass_references):
        assert rate == pytest.approx(raw * reference / nominal)


def test_checks_count_broken_conservation():
    workload = pipelines.WORKLOADS["soc-dram"]
    traces = pipelines.generate_inputs(workload, 3, TINY, harness.NO_SPANS)
    result = workload.unit("hevc1", traces[-1], 3, harness.NO_SPANS)
    assert pipelines.check_unit(result) == []
    result.replays[1].stats.latency_count -= 1
    result.replays[2].stats.channels[0].read_bursts += 1
    result.synthesized[0] = ("synthesis", 10, 9)
    assert len(pipelines.check_unit(result)) == 3


def test_engine_disclosure_follows_the_driver(monkeypatch):
    monkeypatch.setenv("MOCKTAILS_BACKEND", "scalar")
    scalar = harness.execute("soc-dram-coupled", 1, 0.001, True, requests=TINY, setup_repeats=1)
    assert scalar.engine["backend_resolved"] == "scalar"
    assert scalar.engine["replays"]["dram"]["engine"] == {"scalar": 18}
    assert scalar.engine["replays"]["feedback"]["engine"] == {"undisclosed": 18}
    assert harness.per_layer_metrics(scalar)["dram.batched_fraction"] == 0.0
    assert scalar.stats_digest == tiny_run("soc-dram-coupled", 1, True).stats_digest


def test_spans_self_times_subtract_children():
    spans = harness.Spans()
    spans.records = [
        ["pass", 0.0, 10.0, None, None],
        ["unit", 1.0, 9.0, 0, "a"],
        ["dram", 2.0, 5.0, 1, "a"],
        ["dram", 5.0, 6.0, 1, "a"],
    ]
    assert spans.self_times() == {"pass": 2.0, "unit": 4.0, "dram": 4.0}


def test_command_prints_one_result_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipelines, "DEFAULT_REQUESTS", TINY)
    monkeypatch.setattr(command, "SPANS_DIR", tmp_path)
    argv = ["--workload", "spec-cache", "--seed", "4", "--seconds", "0.001", "--trace", "1"]
    assert command.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == _names("per_layer")
    spans = json.loads((tmp_path / "spans-spec-cache-seed4.json").read_text())
    assert spans["requests_per_input"] == TINY
    assert spans["groups"] and all(group["spans"] for group in spans["groups"])


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soc-dram", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
