"""``repro.engine`` — the experiment job engine.

The repo's expensive work decomposes into deterministic *jobs*: frozen
dataclasses whose fields completely describe one computation (one
DRAM-comparison trio, one SPEC synthesis set, one size record, one
sampling report).

* :mod:`repro.engine.jobs` — the four job dataclasses and the dispatch
  helpers (:func:`execute_job`, :func:`install`, :func:`is_cached`);
* :mod:`repro.engine.pool` — the repo-standard process pool
  (:func:`make_pool`, :func:`default_processes`);
* :mod:`repro.engine.prewarm` — batch fan-out with cross-run
  memoization and the per-key lock protocol (what ``--jobs N`` runs).

Canonical cache keys come from :func:`repro.store.memo.cache_key`, so
the prewarm lock protocol and the persistent store agree on what "the
same job" means.
"""

from .jobs import (
    DramJob,
    Job,
    SampleJob,
    SizeJob,
    SpecJob,
    execute_job,
    install,
    is_cached,
)
from .pool import default_processes, make_pool
from .prewarm import prewarm

__all__ = [
    "DramJob",
    "Job",
    "SampleJob",
    "SizeJob",
    "SpecJob",
    "default_processes",
    "execute_job",
    "install",
    "is_cached",
    "make_pool",
    "prewarm",
]
