"""Command line for the linter: ``python -m repro.lint``.

Examples::

    python -m repro.lint src/
    python -m repro.lint src/repro/dram --format json
    python -m repro.lint src/ --select det             # rule family prefix
    python -m repro.lint src/ --ignore perf-slots
    python -m repro.lint src/ --no-cache
    python -m repro.lint --check-determinism --experiment fig3 --requests 2000

Per-file analyses are cached under the store cache dir keyed on content
hash and rule-set fingerprint, so warm runs re-parse only changed files;
the hit/miss tally is printed to stderr (``--no-cache`` bypasses it).

Exit status: 0 clean, 1 findings (or determinism diff), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .engine import Finding, all_rules, lint_project


def _format_text(findings: List[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    lines.append(
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"
        if findings
        else "clean: no findings"
    )
    return "\n".join(lines)


def _format_json(findings: List[Finding]) -> str:
    payload = {
        "findings": [finding.to_dict() for finding in findings],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _split_ids(raw: Optional[List[str]]) -> Optional[List[str]]:
    if not raw:
        return None
    ids: List[str] = []
    for chunk in raw:
        ids.extend(name.strip() for name in chunk.split(",") if name.strip())
    return ids or None


def _run_check_determinism(args: argparse.Namespace) -> int:
    from .sanitize import check_determinism, first_divergence

    identical, first, second = check_determinism(
        experiment=args.experiment, num_requests=args.requests
    )
    if identical:
        print(
            f"determinism check passed: {args.experiment} x2 at "
            f"{args.requests:,} requests, payloads identical "
            f"({len(first.splitlines()):,} lines of canonical JSON)"
        )
        return 0
    print(
        f"determinism check FAILED: {args.experiment} diverged between "
        f"two identical runs — {first_divergence(first, second)}",
        file=sys.stderr,
    )
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static determinism/invariant checks for the repro tree.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the incremental per-file analysis cache")
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="lint cache directory (default: <store cache dir>/lint)")
    parser.add_argument(
        "--select", action="append", metavar="RULES",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--ignore", action="append", metavar="RULES",
        help="comma-separated rule ids to skip")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rule ids and exit")
    parser.add_argument(
        "--check-determinism", action="store_true",
        help="run one experiment twice and diff canonical JSON instead "
             "of linting")
    parser.add_argument(
        "--experiment", default="fig3", metavar="NAME",
        help="experiment for --check-determinism (default fig3)")
    parser.add_argument(
        "--requests", type=int, default=1000,
        help="requests per trace for --check-determinism (default 1,000)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule_class in sorted(all_rules().items()):
            print(f"{rule_id}: {rule_class.description}")
        return 0

    if args.check_determinism:
        return _run_check_determinism(args)

    if not args.paths:
        parser.error("no paths given (try: python -m repro.lint src/)")

    cache = None
    if not args.no_cache:
        from .cache import LintCache, default_lint_cache_dir

        root = Path(args.cache_dir) if args.cache_dir else default_lint_cache_dir()
        cache = LintCache(root)

    try:
        report = lint_project(
            args.paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            cache=cache,
        )
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    findings = report.findings
    if args.format == "json":
        print(_format_json(findings))
    else:
        print(_format_text(findings))
    if cache is not None:
        # stderr so machine-readable stdout payloads stay pure.
        print(
            f"cache: {report.cache_hits} hits, {report.cache_misses} misses",
            file=sys.stderr,
        )
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
