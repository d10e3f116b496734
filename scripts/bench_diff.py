"""Diff two BENCH_perf.json snapshots: per-timing deltas, worst first.

Usage: python scripts/bench_diff.py OLD.json NEW.json
"""

import json
import sys


def _load_bench(path):
    """Load one BENCH json; exits with a clear message when unusable."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as error:
        print(f"error: cannot read {path}: {error.strerror or error}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as error:
        print(f"error: {path} is not valid JSON (line {error.lineno}: {error.msg}); "
              "re-run scripts/bench.sh to regenerate it", file=sys.stderr)
        raise SystemExit(2)
    if not isinstance(data, dict) or not isinstance(data.get("timings_seconds"), dict):
        print(f"error: {path} is not a BENCH snapshot "
              "(expected an object with a 'timings_seconds' mapping)", file=sys.stderr)
        raise SystemExit(2)
    _check_required_fields(path, data)
    return data


#: Every required snapshot field -> the schema that introduced it. A
#: snapshot of that schema or later that lacks the field is a broken
#: bench run, not a diffable measurement. ``timings_seconds.<key>``
#: names a timing; anything else is a top-level field.
REQUIRED_FIELDS = {
    # schema 4 - columnar backend: scalar/columnar micro-benches.
    "timings_seconds.profile_build_scalar": 4,
    "timings_seconds.profile_build_columnar": 4,
    "timings_seconds.cache_sweep_scalar": 4,
    "timings_seconds.cache_sweep_columnar": 4,
    "speedup_profile_build": 4,
    "speedup_cache_sweep": 4,
    # schema 5 - streaming build: timing, ratio and peak memory.
    "timings_seconds.profile_build_streamed": 5,
    "streaming_identical": 5,
    "streaming_over_columnar": 5,
    "peak_profile_memory_bytes": 5,
    "peak_profile_memory_bytes_inmemory": 5,
    # schema 6 - statistical sampling: build speedup and error vs bound.
    "timings_seconds.sampled_profile_build": 6,
    "speedup_sampled_profile_build": 6,
    "sampled_geomean_error_percent": 6,
    "sampled_error_bound_percent": 6,
    "sampled_within_bound": 6,
    # schema 8 - whole-program lint: cold vs warm incremental cache.
    "timings_seconds.lint_full": 8,
    "timings_seconds.lint_warm": 8,
    "lint_files": 8,
    "lint_full_wall_seconds": 8,
    "lint_warm_wall_seconds": 8,
    "lint_cache_hits_warm": 8,
    # schema 9 - batched memory-system replay and figure phase times.
    "timings_seconds.dram_replay_scalar": 9,
    "timings_seconds.dram_replay_batched": 9,
    "dram_replay_identical": 9,
    "speedup_dram_replay": 9,
    "figure_phase_seconds": 9,
}


def _has_field(data, field):
    section, _, key = field.rpartition(".")
    return key in (data[section] if section else data)


def _check_required_fields(path, data):
    """Fail loudly when a snapshot lacks a field its schema requires."""
    schema = data.get("schema")
    if not isinstance(schema, int):
        return  # pre-versioned snapshot: nothing to require
    missing = [
        field
        for field, introduced in REQUIRED_FIELDS.items()
        if schema >= introduced and not _has_field(data, field)
    ]
    if missing:
        print(f"error: {path} (schema {schema}) is missing required bench "
              f"entries: {', '.join(missing)}; "
              "re-run scripts/bench.sh to regenerate it", file=sys.stderr)
        raise SystemExit(2)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old = _load_bench(argv[1])
    new = _load_bench(argv[2])

    if old.get("scale") != new.get("scale"):
        print(f"note: scales differ ({old.get('scale')} vs {new.get('scale')}); "
              "deltas are not comparable")

    old_times = old.get("timings_seconds", {})
    new_times = new.get("timings_seconds", {})
    rows = []
    for key in sorted(set(old_times) | set(new_times)):
        before, after = old_times.get(key), new_times.get(key)
        if before is None or after is None or before == 0:
            rows.append((float("-inf"), key, before, after, None))
        else:
            rows.append((after / before - 1.0, key, before, after, after / before - 1.0))
    rows.sort(reverse=True)

    if not rows:
        print("no timings recorded in either snapshot; nothing to diff")
        return 0
    width = max(len(key) for _, key, *_ in rows)
    print(f"{'timing':>{width}}  {'before':>8}  {'after':>8}  {'delta':>8}")
    for _, key, before, after, delta in rows:
        before_s = "-" if before is None else f"{before:8.3f}"
        after_s = "-" if after is None else f"{after:8.3f}"
        delta_s = "new/gone" if delta is None else f"{delta:+7.1%}"
        print(f"{key:>{width}}  {before_s}  {after_s}  {delta_s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
