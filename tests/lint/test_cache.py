"""Incremental lint cache: keying, invalidation, corruption handling."""

from __future__ import annotations

import json

from repro.lint import lint_project
from repro.lint.cache import LintCache
from repro.lint.engine import ENGINE_VERSION, rule_fingerprint

SOURCE = "import time\nstamp = time.time()\n"


def write_tree(root, files):
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return root


def test_cold_then_warm_counts(tmp_path):
    tree = write_tree(tmp_path / "proj", {
        "repro/core/a.py": SOURCE,
        "repro/core/b.py": "x = 1\n",
    })
    cache = LintCache(tmp_path / "cache")
    cold = lint_project([tree], cache=cache)
    assert (cold.cache_hits, cold.cache_misses) == (0, 2)
    warm = lint_project([tree], cache=cache)
    assert (warm.cache_hits, warm.cache_misses) == (2, 0)
    assert [f.to_dict() for f in warm.findings] == \
        [f.to_dict() for f in cold.findings]


def test_content_change_invalidates_only_that_file(tmp_path):
    tree = write_tree(tmp_path / "proj", {
        "repro/core/a.py": SOURCE,
        "repro/core/b.py": "x = 1\n",
    })
    cache = LintCache(tmp_path / "cache")
    lint_project([tree], cache=cache)
    (tree / "repro/core/b.py").write_text("y = 2\n", encoding="utf-8")
    warm = lint_project([tree], cache=cache)
    assert (warm.cache_hits, warm.cache_misses) == (1, 1)


def test_fingerprint_partitions_the_cache(tmp_path):
    tree = write_tree(
        tmp_path / "proj", {"repro/core/a.py": SOURCE})
    cache = LintCache(tmp_path / "cache")
    lint_project([tree], cache=cache)
    # A different rule set (or engine version) yields a different
    # fingerprint directory; the old entries must not be visible there.
    other = LintCache(tmp_path / "cache")
    other._fingerprint = "0" * 16
    report = lint_project([tree], cache=other)
    assert (report.cache_hits, report.cache_misses) == (0, 1)


def test_fingerprint_covers_rules_and_engine_version():
    fingerprint = rule_fingerprint()
    assert str(ENGINE_VERSION) in fingerprint
    assert "io-atomic-write" in fingerprint


def test_corrupt_entry_is_a_miss_and_self_heals(tmp_path):
    tree = write_tree(
        tmp_path / "proj", {"repro/core/a.py": SOURCE})
    cache = LintCache(tmp_path / "cache")
    lint_project([tree], cache=cache)
    entries = list((tmp_path / "cache").rglob("*.json"))
    assert len(entries) == 1
    entries[0].write_text("{ not json", encoding="utf-8")
    healed = lint_project([tree], cache=cache)
    assert (healed.cache_hits, healed.cache_misses) == (0, 1)
    assert json.loads(entries[0].read_text(encoding="utf-8"))
    warm = lint_project([tree], cache=cache)
    assert (warm.cache_hits, warm.cache_misses) == (1, 0)


def test_same_bytes_under_new_path_revalidate(tmp_path):
    tree = write_tree(
        tmp_path / "proj", {"repro/core/a.py": SOURCE})
    cache = LintCache(tmp_path / "cache")
    lint_project([tree], cache=cache)
    # Identical bytes, different path: the content hash collides by
    # design, the path revalidation must force a re-derive.
    moved = write_tree(
        tmp_path / "proj2", {"repro/core/renamed.py": SOURCE})
    report = lint_project([moved], cache=cache)
    assert report.cache_misses == 1
    assert report.findings[0].path.endswith("renamed.py")


def test_findings_identical_with_and_without_cache(tmp_path):
    tree = write_tree(tmp_path / "proj", {
        "repro/core/a.py": SOURCE,
        "repro/core/writer.py": (
            "def save(path, text):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(text)\n"
        ),
    })
    cache = LintCache(tmp_path / "cache")
    uncached = lint_project([tree])
    lint_project([tree], cache=cache)
    cached_warm = lint_project([tree], cache=cache)
    assert [f.to_dict() for f in cached_warm.findings] == \
        [f.to_dict() for f in uncached.findings]
    rules = {f.rule_id for f in cached_warm.findings}
    assert "io-atomic-write" in rules
