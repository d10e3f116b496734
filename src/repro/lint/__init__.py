"""``repro.lint`` — determinism & invariant static analysis + sanitizers.

The reproduction's guarantees (figure stats bit-identical under
``--jobs N``, warm cache byte-identical to cold, crc32-stable seeding)
rest on conventions no test exercises directly: randomness flows only
through seeded ``random.Random`` objects, simulation code never reads
the wall clock, every artifact write is atomic, nothing iterates a set
into serialized output. This package turns those conventions into
machine-checked rules:

* :func:`lint_paths` / :func:`lint_project` / :func:`lint_source` — the
  per-file linter (also ``python -m repro.lint src/``), cached
  incrementally by content hash (see :mod:`repro.lint.cache`).
  Per-line ``# lint: ignore[rule-id]`` suppressions (anchored to
  statement spans, so a decorated ``def``'s findings can be suppressed
  at the decorator) and unused-suppression detection;
* :mod:`repro.lint.sanitize` — runtime checkers behind flags: the
  :class:`~repro.lint.sanitize.TraceInvariantChecker` the sim drivers
  consult, the lock-order checker (with the store's ``FileLock``
  hooked into its acquisition graph), and the ``--check-determinism``
  double-run harness.

The linter names are re-exported lazily: importing the package (or
:mod:`repro.lint.sanitize`) does not import the engine.
"""

__all__ = [
    "SYNTAX_ERROR",
    "UNUSED_SUPPRESSION",
    "Finding",
    "LintContext",
    "LintReport",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_project",
    "lint_source",
    "register",
]


def __getattr__(name: str):
    # The engine (``ast``, ``tokenize``, the rule registry) loads on first
    # use (PEP 562), so the simulators, which import only
    # ``repro.lint.sanitize``, never pay for it.
    if name in __all__:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
