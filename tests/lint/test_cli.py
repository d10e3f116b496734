"""CLI tests: exit codes, text/JSON output, and a JSON golden file."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
DEMO = "tests/lint/fixtures/cli_demo.py"
GOLDEN = FIXTURES / "cli_golden.json"


def run_lint(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_json_output_matches_golden():
    result = run_lint(DEMO, "--format", "json")
    assert result.returncode == 1, result.stderr
    assert json.loads(result.stdout) == json.loads(GOLDEN.read_text())


def test_cache_tally_lands_on_stderr(tmp_path):
    cold = run_lint(DEMO, "--cache-dir", str(tmp_path / "lint-cache"))
    assert "cache: 0 hits, 1 misses" in cold.stderr
    warm = run_lint(DEMO, "--cache-dir", str(tmp_path / "lint-cache"))
    assert "cache: 1 hits, 0 misses" in warm.stderr
    assert warm.stdout == cold.stdout
    nocache = run_lint(DEMO, "--no-cache")
    assert "cache:" not in nocache.stderr


def test_text_output_reports_counts_and_locations():
    result = run_lint(DEMO)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert lines[-1] == "2 findings"
    assert any(
        line.startswith(f"{DEMO}:6:9: det-wall-clock:") for line in lines
    )
    assert any(f"{DEMO}:8:" in line and "det-float-compare" in line
               for line in lines)


def test_clean_file_exits_zero():
    result = run_lint("tests/lint/fixtures/api_good.py")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean: no findings" in result.stdout


def test_select_narrows_and_changes_exit_code():
    result = run_lint(DEMO, "--select", "io-atomic-write")
    assert result.returncode == 0
    result = run_lint(DEMO, "--select", "det-wall-clock", "--format", "json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "det-wall-clock"


def test_unknown_rule_is_a_usage_error():
    result = run_lint(DEMO, "--select", "no-such-rule")
    assert result.returncode == 2
    assert "no-such-rule" in result.stderr


def test_missing_path_is_a_usage_error():
    result = run_lint("does/not/exist.py")
    assert result.returncode == 2


def test_list_rules_names_every_rule():
    from repro.lint import all_rules

    result = run_lint("--list-rules")
    assert result.returncode == 0
    for rule_id in all_rules():
        assert rule_id in result.stdout


def test_check_determinism_subcommand_passes():
    result = run_lint("--check-determinism", "--requests", "200")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "determinism check passed" in result.stdout
