"""Run one workload of the Mocktails pipeline benchmark and report it.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload soc-dram --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced run and writes
the spans under ``.perfbench_out/``. A run lasts about ``--seconds``
from process start, set-up included. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()  # the run's time counts from here

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where a traced run writes its spans.
SPANS_DIR = ROOT / ".perfbench_out"

#: A seed kept out of tuning, so a later claim can be re-checked on it.
HELD_OUT_SEED = 2020


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import pipelines

    if args.workload not in pipelines.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r};"
            f" choose from {sorted(pipelines.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    run = harness.execute(
        args.workload, args.seed, args.seconds, bool(args.trace), src=SRC, started=STARTED
    )
    if args.trace:
        values = harness.per_layer_metrics(run)
        units = metric_units("per_layer")
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        harness.write_spans(run, spans_path)
    else:
        values = harness.end_to_end_metrics(run)
        units = metric_units("end_to_end")
        spans_path = None
    if set(values) != set(units):
        print(
            f"error: metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}",
            file=sys.stderr,
        )
        return 3

    samples = sum(1 for traced in run.pass_traced if traced == bool(args.trace))
    print(
        f"workload {run.workload}  seed {run.seed}"
        f"{' (held out)' if run.seed == HELD_OUT_SEED else ''}"
        f"  requests/input {run.requests}  passes {len(run.pass_walls)}"
        f"  tracing {'on' if args.trace else 'off'}"
    )
    for name, value in values.items():
        print(f"  {name:<34} {value:>16.6f} {units[name]}")
    for problem in run.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    detail = {
        "workload": run.workload,
        "seed": run.seed,
        "held_out_seed": HELD_OUT_SEED,
        "requests_per_input": run.requests,
        "inputs": len(run.unit_digests),
        "samples": samples,
        "pass_wall_s": run.pass_walls,
        "pass_reference_s": run.pass_references,
        "requests_per_s_raw": harness.median(run.pass_raw_rates),
        "setup_import_s": run.import_s,
        "setup_generate_s": run.generate_s,
        "setup_reference_s": run.import_references + run.generate_references,
        "stats_digest": run.stats_digest,
        "synth_error_pct": run.synth_error_pct,
        "synth_error_pct_unfloored": run.synth_error_pct_unfloored,
        "run_s": time.perf_counter() - STARTED,
        "engine": run.engine,
        "spans": str(spans_path) if spans_path is not None else None,
    }
    if args.trace:
        walls = [w for w, traced in zip(run.pass_walls, run.pass_traced) if traced]
        detail["unattributed_share_pct"] = (
            values["trace.unattributed_s"] / harness.median(walls) * 100.0
        )
    print("detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
