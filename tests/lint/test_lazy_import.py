"""The simulators import the sanitizer without loading the lint engine."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_sim_drivers_do_not_import_the_engine():
    result = run_python(
        "import sys\n"
        "import repro.sim.driver, repro.sim.cache_driver\n"
        "assert 'repro.lint.sanitize' in sys.modules\n"
        "print('repro.lint.engine' in sys.modules)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_package_reexports_load_the_engine_on_demand():
    result = run_python(
        "import sys\n"
        "import repro.lint\n"
        "assert 'repro.lint.engine' not in sys.modules\n"
        "from repro.lint import lint_paths\n"
        "from repro.lint.engine import lint_paths as engine_lint_paths\n"
        "assert lint_paths is engine_lint_paths\n"
        "try:\n"
        "    repro.lint.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
