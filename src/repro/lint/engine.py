"""Core machinery of ``repro.lint``: findings, rule registry, file walker.

The linter enforces the repo's reproducibility invariants (seeded RNG
only, no ambient wall clock in simulation paths, atomic artifact writes,
ordered iteration before serialization, ``__slots__`` on hot-path
classes). Each file is parsed once and every rule runs over its tree;
the result depends only on the file's own bytes, so
:class:`FileAnalysis` is what the incremental cache persists — a warm
run re-parses only changed files.

Suppressions
------------
A finding on line N is silenced by a comment on that line::

    handle = path.open("w")  # lint: ignore[io-atomic-write]

Several ids may be listed (``# lint: ignore[a, b]``); a bare
``# lint: ignore`` silences every rule on the line. Matching is
anchored to *statement spans*, not single lines: a finding attributed
to a decorated function's ``def`` line can be suppressed on the
decorator line (or anywhere else in the statement's header), and a
multi-line call can carry its suppression on any of its lines.
Suppressions that silence nothing are themselves reported
(``lint-unused-suppression``), so stale exemptions cannot linger after
the underlying code is fixed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

#: Bumped when analysis semantics change; part of the cache key, so a
#: new engine never reuses analyses produced by an old one.
ENGINE_VERSION = 3

#: Rule id reported for stale suppression comments.
UNUSED_SUPPRESSION = "lint-unused-suppression"
#: Rule id reported for files that fail to parse.
SYNTAX_ERROR = "lint-syntax-error"

_SUPPRESSION_RE = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<ids>[A-Za-z0-9_,\- ]*)\])?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass
class LintContext:
    """Everything a per-file rule needs to inspect one file."""

    path: str
    tree: ast.AST
    source: str
    #: Path components below the ``repro`` package (empty when the file
    #: is outside it), e.g. ``("dram", "controller.py")``.
    module_parts: Tuple[str, ...] = ()
    findings: List[Finding] = field(default_factory=list)

    def report(self, node: ast.AST, rule_id: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=rule_id,
                message=message,
            )
        )

    def in_package(self, *packages: str) -> bool:
        """True when the file lives under any of the named subpackages."""
        return bool(self.module_parts) and self.module_parts[0] in packages

    def is_module(self, *parts: str) -> bool:
        """True when the file is exactly ``repro/<parts...>``."""
        return self.module_parts == parts


class Rule:
    """Base class: subclasses set ``rule_id``/``description``, implement ``check``."""

    rule_id: str = ""
    description: str = ""

    def check(self, context: LintContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id: {rule_class.rule_id}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def all_rules() -> Dict[str, Type[Rule]]:
    """The registered rules, importing the built-in rule modules once."""
    from . import rules  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


def rule_fingerprint() -> str:
    """Identity of the rule set + engine, part of the lint cache key."""
    names = ",".join(sorted(all_rules()))
    return f"engine={ENGINE_VERSION};rules={names}"


def _module_parts(path: str) -> Tuple[str, ...]:
    parts = PurePosixPath(Path(path).as_posix()).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return tuple(parts[index + 1:])
    return tuple(parts)


def _parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed rule ids (``None`` = all rules)."""
    suppressions: Dict[int, Optional[Set[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            ids = match.group("ids")
            if ids is None:
                suppressions[token.start[0]] = None
            else:
                names = {name.strip() for name in ids.split(",") if name.strip()}
                suppressions[token.start[0]] = names
    except tokenize.TokenError:
        pass  # parse errors are reported separately
    return suppressions


def _statement_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """Line spans suppressions anchor over (see module docstring).

    ``def``/``class`` statements span from their first decorator line
    through the end of the header (the line before the body starts);
    every other statement spans its own lines. Only multi-line spans
    are kept — single-line statements already match exactly.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = node.lineno
            for decorator in node.decorator_list:
                start = min(start, decorator.lineno)
            body_start = node.body[0].lineno if node.body else node.lineno
            end = max(node.lineno, body_start - 1)
        else:
            start = node.lineno
            end = getattr(node, "end_lineno", None) or node.lineno
        if end > start:
            spans.append((start, end))
    return sorted(spans)


def _span_lookup(spans: Sequence[Tuple[int, int]]) -> Dict[int, Tuple[int, int]]:
    """Line -> smallest enclosing span (innermost statement wins)."""
    lookup: Dict[int, Tuple[int, int]] = {}
    for start, end in spans:
        for line in range(start, end + 1):
            current = lookup.get(line)
            if current is None or (end - start) < (current[1] - current[0]):
                lookup[line] = (start, end)
    return lookup


@dataclass
class FileAnalysis:
    """The cacheable product of linting one file."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    suppressions: Dict[int, Optional[Set[str]]] = field(default_factory=dict)
    spans: List[Tuple[int, int]] = field(default_factory=list)
    syntax_error: bool = False

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "findings": [f.to_dict() for f in self.findings],
            "suppressions": {
                str(line): (None if ids is None else sorted(ids))
                for line, ids in self.suppressions.items()
            },
            "spans": [list(span) for span in self.spans],
            "syntax_error": self.syntax_error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FileAnalysis":
        return cls(
            path=data["path"],
            findings=[
                Finding(
                    path=f["path"], line=f["line"], col=f["col"],
                    rule_id=f["rule"], message=f["message"],
                )
                for f in data["findings"]
            ],
            suppressions={
                int(line): (None if ids is None else set(ids))
                for line, ids in data["suppressions"].items()
            },
            spans=[tuple(span) for span in data["spans"]],
            syntax_error=data["syntax_error"],
        )


@dataclass
class LintReport:
    """Findings plus the cache tally for a :func:`lint_project` run."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


def _expand_selectors(
    selectors: Sequence[str], registry: Dict[str, Type[Rule]]
) -> List[str]:
    """Expand family prefixes (``det`` -> every ``det-*`` rule)."""
    expanded: List[str] = []
    unknown: List[str] = []
    for selector in selectors:
        if selector in registry or selector == UNUSED_SUPPRESSION:
            expanded.append(selector)
            continue
        family = sorted(
            rule_id for rule_id in registry
            if rule_id.startswith(selector + "-")
        )
        if family:
            expanded.extend(family)
        else:
            unknown.append(selector)
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return expanded


def _select_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> List[Rule]:
    registry = all_rules()
    chosen = (
        _expand_selectors(select, registry) if select else list(registry)
    )
    if ignore:
        dropped = set(_expand_selectors(ignore, registry))
        chosen = [rule_id for rule_id in chosen if rule_id not in dropped]
    return [registry[rule_id]() for rule_id in chosen if rule_id in registry]


def _analyze_file(source: str, path: str) -> FileAnalysis:
    """Parse one file and run every rule over it.

    Every registered rule runs regardless of ``--select`` so
    the analysis is selection-independent — the cache can serve any
    later selection from the same entry; filtering happens at report
    time.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return FileAnalysis(
            path=path,
            findings=[
                Finding(
                    path=path,
                    line=error.lineno or 1,
                    col=(error.offset or 1),
                    rule_id=SYNTAX_ERROR,
                    message=f"file does not parse: {error.msg}",
                )
            ],
            syntax_error=True,
        )
    context = LintContext(
        path=path, tree=tree, source=source, module_parts=_module_parts(path)
    )
    for rule_class in all_rules().values():
        rule_class().check(context)
    return FileAnalysis(
        path=path,
        findings=context.findings,
        suppressions=_parse_suppressions(source),
        spans=_statement_spans(tree),
    )


def _apply_suppressions(
    analysis: FileAnalysis,
    findings: Sequence[Finding],
    check_unused: bool,
) -> List[Finding]:
    """Filter one file's findings through its suppression table."""
    lookup = _span_lookup(analysis.spans)
    used_lines: Set[int] = set()
    kept: List[Finding] = []
    for finding in findings:
        candidates = [finding.line]
        span = lookup.get(finding.line)
        if span is not None:
            candidates.extend(
                line for line in range(span[0], span[1] + 1)
                if line != finding.line
            )
        matched: Optional[int] = None
        for candidate in candidates:
            if candidate not in analysis.suppressions:
                continue
            allowed = analysis.suppressions[candidate]
            if allowed is None or finding.rule_id in allowed:
                matched = candidate
                break
        if matched is not None:
            used_lines.add(matched)
        else:
            kept.append(finding)
    if check_unused:
        for line in sorted(set(analysis.suppressions) - used_lines):
            ids = analysis.suppressions[line]
            label = "all rules" if ids is None else ", ".join(sorted(ids))
            kept.append(
                Finding(
                    path=analysis.path,
                    line=line,
                    col=1,
                    rule_id=UNUSED_SUPPRESSION,
                    message=f"suppression ({label}) matches no finding; remove it",
                )
            )
    return kept


def _check_unused(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> bool:
    return (
        select is None or UNUSED_SUPPRESSION in select
    ) and UNUSED_SUPPRESSION not in set(ignore or [])


def _selected_file_findings(
    analysis: FileAnalysis, rules: Sequence[Rule]
) -> List[Finding]:
    """The analysis' findings narrowed to the selected rules."""
    wanted = {rule.rule_id for rule in rules}
    wanted.add(SYNTAX_ERROR)
    return [f for f in analysis.findings if f.rule_id in wanted]


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one file's contents; returns sorted findings."""
    rules = _select_rules(select, ignore)
    analysis = _analyze_file(source, path)
    findings = _selected_file_findings(analysis, rules)
    return sorted(
        _apply_suppressions(analysis, findings, _check_unused(select, ignore))
    )


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            seen.update(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            seen.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(seen)


def lint_project(
    paths: Iterable[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    cache: Optional["LintCache"] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths``.

    With a :class:`~repro.lint.cache.LintCache`, per-file analyses are
    looked up by (content sha, rule fingerprint) and only missing files
    are parsed; the report carries the hit/miss tally.
    """
    rules = _select_rules(select, ignore)
    check_unused = _check_unused(select, ignore)
    report = LintReport()
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        path = file_path.as_posix()
        analysis: Optional[FileAnalysis] = None
        if cache is not None:
            analysis = cache.get(path, source)
        if analysis is None:
            analysis = _analyze_file(source, path)
            report.cache_misses += 1
            if cache is not None and not analysis.syntax_error:
                cache.put(path, source, analysis)
        else:
            report.cache_hits += 1
        report.files += 1
        findings = _selected_file_findings(analysis, rules)
        report.findings.extend(
            _apply_suppressions(analysis, findings, check_unused)
        )
    report.findings.sort()
    return report


def lint_paths(
    paths: Iterable[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    cache: Optional["LintCache"] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; returns sorted findings."""
    return lint_project(paths, select=select, ignore=ignore, cache=cache).findings
