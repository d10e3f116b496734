"""Incremental lint cache: per-file analyses memoized on disk.

Warm ``python -m repro.lint`` runs re-parse only the files whose bytes
changed. Each entry stores one :class:`~repro.lint.engine.FileAnalysis`
(findings pre-suppression, the suppression table and statement spans)
keyed on

* the sha256 of the file's contents,
* the rule-set fingerprint (every registered rule id), and
* the lint engine version,

so editing a file, adding a rule, or upgrading the engine each
invalidate exactly what they must and nothing else. The per-file
analysis is *cache-pure* by construction — it depends only on the
file's own bytes and path — which is what makes content-hash keying
sound. Entries are written atomically through
:mod:`repro.store.atomic` so a crashed run never leaves a torn entry;
a corrupt or unreadable entry is treated as a miss and rewritten.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Union

from ..store import default_cache_dir
from ..store.atomic import atomic_write_text
from .engine import FileAnalysis, rule_fingerprint


def default_lint_cache_dir() -> Path:
    """Where lint analyses live: ``<repro cache>/lint``."""
    return default_cache_dir() / "lint"


class LintCache:
    """Content-addressed store of :class:`FileAnalysis` entries.

    The file *path* does not participate in the key — identical bytes
    analyzed under two paths would collide — so the stored analysis is
    revalidated against the requesting path and re-derived on mismatch
    (module names depend on the path). In practice paths are stable and
    this never costs anything.
    """

    __slots__ = ("root", "_fingerprint")

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_lint_cache_dir()
        self._fingerprint = hashlib.sha256(
            rule_fingerprint().encode("utf-8")
        ).hexdigest()[:16]

    def _entry_path(self, source: str) -> Path:
        content = hashlib.sha256(source.encode("utf-8")).hexdigest()
        return self.root / self._fingerprint / f"{content}.json"

    def get(self, path: str, source: str) -> Optional[FileAnalysis]:
        """The cached analysis for these bytes, or ``None`` on a miss."""
        entry = self._entry_path(source)
        try:
            data = json.loads(entry.read_text(encoding="utf-8"))
            analysis = FileAnalysis.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if analysis.path != path:
            return None
        return analysis

    def put(self, path: str, source: str, analysis: FileAnalysis) -> None:
        """Persist an analysis; failures are non-fatal (cache is advisory)."""
        entry = self._entry_path(source)
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                entry, json.dumps(analysis.to_dict(), sort_keys=True)
            )
        except OSError:
            pass
