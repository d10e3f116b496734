"""``scripts/bench_diff.py``: the required-fields table gates snapshots."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SNAPSHOT = REPO / "BENCH_perf.json"

_spec = importlib.util.spec_from_file_location(
    "bench_diff", REPO / "scripts" / "bench_diff.py"
)
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)


def _committed():
    return json.loads(SNAPSHOT.read_text())


def _diff(tmp_path, data):
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(data))
    return bench_diff.main(["bench_diff.py", str(SNAPSHOT), str(path)])


def _without(data, field):
    data = copy.deepcopy(data)
    section, _, key = field.rpartition(".")
    del (data[section] if section else data)[key]
    return data


def test_committed_snapshot_passes(tmp_path):
    assert _diff(tmp_path, _committed()) == 0


def test_schema9_snapshot_with_storm_fields_passes(tmp_path):
    data = _committed()
    data["schema"] = 9
    data["storm_clients"] = 1000
    data["timings_seconds"]["service_storm_cold"] = 1.0
    assert _diff(tmp_path, data) == 0


@pytest.mark.parametrize("field", sorted(bench_diff.REQUIRED_FIELDS))
def test_missing_required_field_exits_2(tmp_path, capsys, field):
    with pytest.raises(SystemExit) as exit_info:
        _diff(tmp_path, _without(_committed(), field))
    assert exit_info.value.code == 2
    assert field in capsys.readouterr().err


def test_field_newer_than_the_snapshot_is_not_required(tmp_path):
    data = _without(_committed(), "timings_seconds.dram_replay_scalar")
    data["schema"] = 8
    assert _diff(tmp_path, data) == 0
