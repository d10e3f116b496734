"""Meta-test: the repo's own source tree passes its own linter.

This is the enforcement point for the invariants documented in
DESIGN.md — if a change introduces an unseeded RNG, a wall-clock read
outside ``repro.obs``, a non-atomic write, or strips ``__slots__``
from a hot-path class, this test fails with the exact file:line.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_repo_source_is_lint_clean():
    findings = lint_paths([SRC])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"repo source has lint findings:\n{rendered}"


def test_engine_and_store_are_concurrency_clean():
    """Zero ``conc-*`` findings — and zero suppressions — repo-wide.

    The acceptance bar for the concurrency analyzer: every violation it
    found in the engine and store layers was *fixed*, not suppressed,
    so the whole tree (scripts included) holds at zero.
    """
    scripts = Path(__file__).resolve().parents[2] / "scripts"
    findings = lint_paths([SRC, scripts], select=["conc"])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"concurrency findings:\n{rendered}"

    suppressed = [
        path
        for path in SRC.rglob("*.py")
        if "ignore[conc-" in path.read_text(encoding="utf-8")
    ]
    assert suppressed == [], (
        f"conc-* suppressions are not allowed in src/repro: {suppressed}"
    )


def test_scripts_are_lint_clean():
    scripts = Path(__file__).resolve().parents[2] / "scripts"
    findings = [
        finding
        for finding in lint_paths([scripts])
        # scripts/ sits outside the repro package, so module-scoped
        # exemptions don't apply; hold it to the determinism rules.
        if finding.rule_id.startswith("det-")
    ]
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"scripts have determinism findings:\n{rendered}"
