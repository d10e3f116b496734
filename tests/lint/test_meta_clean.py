"""Meta-test: the repo's own source tree passes its own linter.

This is the enforcement point for the invariants documented in
DESIGN.md — if a change introduces an unseeded RNG, a wall-clock read
outside ``repro.obs``, a non-atomic write, or strips ``__slots__``
from a hot-path class, this test fails with the exact file:line.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.lint import lint_paths

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_repo_source_is_lint_clean():
    findings = lint_paths([SRC])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"repo source has lint findings:\n{rendered}"


_THREAD_CONSTRUCTORS = {"Thread", "Timer", "ThreadPoolExecutor"}
_LOCK_ATTR = re.compile(r"^_\w*lock$")


def _called_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _is_leaf_lock(expr: ast.expr) -> bool:
    """``<x>._lock``, ``<x>._tally_lock`` and the like."""
    name = expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", "")
    return bool(_LOCK_ATTR.match(name))


def _concurrency_hazards(tree: ast.AST):
    """(line, what) for every construct the lock-order sanitizer cannot see."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.AsyncFunctionDef, ast.Await,
                             ast.AsyncWith, ast.AsyncFor)):
            yield node.lineno, type(node).__name__
        elif isinstance(node, ast.comprehension) and node.is_async:
            yield node.target.lineno, "async comprehension"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "asyncio":
                    yield node.lineno, "asyncio import"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "asyncio":
                yield node.lineno, "asyncio import"
        elif isinstance(node, ast.Call) and _called_name(node) in _THREAD_CONSTRUCTORS:
            yield node.lineno, f"{_called_name(node)}(...) call"
        elif isinstance(node, ast.With) and any(
            _is_leaf_lock(item.context_expr) for item in node.items
        ):
            for inner in (n for stmt in node.body for n in ast.walk(stmt)):
                if isinstance(inner, (ast.With, ast.AsyncWith)):
                    yield inner.lineno, "with-statement under a leaf lock"
                elif (isinstance(inner, ast.Call)
                      and isinstance(inner.func, ast.Attribute)
                      and inner.func.attr in ("acquire", "lock")):
                    yield inner.lineno, f".{inner.func.attr}() under a leaf lock"


def test_source_has_no_concurrency_beyond_the_sanitized_locks():
    """Tripwire for the retired static concurrency analyzer.

    ``src/repro``'s only concurrency is the prewarm's process pool
    under per-key ``FileLock``s, with in-process leaf locks (memo tally,
    ``repro.obs``) taken underneath and nesting nothing; the runtime
    lock-order sanitizer checks exactly that. The analyzer for
    coroutines, threads and nested in-process locks was deleted
    because the tree had none of them. This test fails the day one
    appears.
    """
    hazards = [
        f"{path.relative_to(SRC.parent)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        for line, what in sorted(_concurrency_hazards(
            ast.parse(path.read_text(encoding="utf-8"))
        ))
    ]
    assert hazards == [], (
        "src/repro grew concurrency the lock-order sanitizer does not "
        "cover:\n" + "\n".join(hazards) + "\nRestore the static analyzer "
        "(src/repro/lint/graph.py and lint/rules/concurrency.py) from git "
        "history — `git log --diff-filter=D -- src/repro/lint/graph.py` "
        "names the commit that deleted it — and gate on its rules."
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
