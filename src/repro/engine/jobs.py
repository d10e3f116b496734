"""The job model: canonical units of work behind every experiment runner.

A *job* is a frozen dataclass whose fields are the complete input of a
deterministic computation — the same contract :mod:`repro.store.memo`
keys its cross-run cache on. This module owns the four job types
(``DramJob``/``SpecJob``/``SizeJob``/``SampleJob``) and a private
table binding each one to:

* an **executor** — computes the payload (in this process or a pool
  worker);
* an **installer** — merges a payload into the in-process cache the
  figure runner reads (:mod:`repro.eval.comparison` /
  :mod:`repro.eval.experiments`);
* a **cached-check** — whether that payload is already installed.

Executors lazily import the eval layer, so ``repro.engine`` itself
never drags the experiment runners in at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

#: Mirrors repro.eval.comparison defaults without importing it here.
DEFAULT_REQUESTS = 20_000
DEFAULT_INTERVAL = 500_000


# ---------------------------------------------------------------------------
# Job dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DramJob:
    """One baseline/McC(/STM) DRAM simulation trio (Figs. 6-13).

    The executor replays through the backend-dispatched driver
    (:mod:`repro.sim.driver`), so pool workers — which inherit
    ``MOCKTAILS_BACKEND`` from the parent's environment — use the
    batched memory-system engine exactly when the parent would.
    """

    name: str
    num_requests: int = DEFAULT_REQUESTS
    seed: int = 0
    interval: int = DEFAULT_INTERVAL
    include_stm: bool = True


@dataclass(frozen=True)
class SpecJob:
    """Baseline + three synthetic traces for one SPEC-like benchmark
    (Figs. 14-16)."""

    benchmark: str
    num_requests: int = DEFAULT_REQUESTS
    seed: int = 0


@dataclass(frozen=True)
class SizeJob:
    """Trace/profile on-disk size measurement for one benchmark (Fig. 17)."""

    benchmark: str
    num_requests: int = DEFAULT_REQUESTS


@dataclass(frozen=True)
class SampleJob:
    """One sampled-vs-full fidelity report (repro.sample estimator)."""

    name: str
    num_requests: int = DEFAULT_REQUESTS
    seed: int = 0
    interval: int = DEFAULT_INTERVAL
    k: Optional[int] = None
    sample_seed: int = 0


Job = Union[DramJob, SpecJob, SizeJob, SampleJob]


# ---------------------------------------------------------------------------
# Executors and cache hooks
# ---------------------------------------------------------------------------


def _execute_dram(job: DramJob) -> Any:
    from ..eval import comparison

    return comparison.dram_comparison(
        job.name,
        job.num_requests,
        seed=job.seed,
        interval=job.interval,
        include_stm=job.include_stm,
    )


def _dram_cache_key(job: DramJob) -> Tuple:
    return (job.name, job.num_requests, job.seed, job.interval, job.include_stm, None)


def _install_dram(job: DramJob, payload: Any) -> None:
    from ..eval import comparison

    comparison._run_cache[_dram_cache_key(job)] = payload


def _cached_dram(job: DramJob) -> bool:
    from ..eval import comparison

    return _dram_cache_key(job) in comparison._run_cache


def _execute_spec(job: SpecJob) -> Any:
    from ..eval import experiments

    return experiments.spec_synthetics(job.benchmark, job.num_requests, job.seed)


def _install_spec(job: SpecJob, payload: Any) -> None:
    from ..eval import experiments

    experiments._SPEC_SYNTH_CACHE[(job.benchmark, job.num_requests, job.seed)] = payload


def _cached_spec(job: SpecJob) -> bool:
    from ..eval import experiments

    return (job.benchmark, job.num_requests, job.seed) in experiments._SPEC_SYNTH_CACHE


def _execute_size(job: SizeJob) -> Any:
    from ..eval import experiments

    return experiments.spec_size_record(job.benchmark, job.num_requests)


def _install_size(job: SizeJob, payload: Any) -> None:
    from ..eval import experiments

    experiments._SPEC_SIZE_CACHE[(job.benchmark, job.num_requests)] = payload


def _cached_size(job: SizeJob) -> bool:
    from ..eval import experiments

    return (job.benchmark, job.num_requests) in experiments._SPEC_SIZE_CACHE


def _sample_cache_key(job: SampleJob) -> Tuple:
    return (job.name, job.num_requests, job.seed, job.interval, job.k, job.sample_seed)


def _execute_sample(job: SampleJob) -> Any:
    from ..eval import experiments

    return experiments.sampling_report_for(
        job.name,
        job.num_requests,
        seed=job.seed,
        interval=job.interval,
        k=job.k,
        sample_seed=job.sample_seed,
    )


def _install_sample(job: SampleJob, payload: Any) -> None:
    from ..eval import experiments

    experiments._SAMPLING_CACHE[_sample_cache_key(job)] = payload


def _cached_sample(job: SampleJob) -> bool:
    from ..eval import experiments

    return _sample_cache_key(job) in experiments._SAMPLING_CACHE


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


class _JobType(NamedTuple):
    executor: Callable[[Any], Any]
    installer: Callable[[Any, Any], None]
    cached_check: Callable[[Any], bool]


_JOB_TYPES: Dict[type, _JobType] = {
    DramJob: _JobType(_execute_dram, _install_dram, _cached_dram),
    SpecJob: _JobType(_execute_spec, _install_spec, _cached_spec),
    SizeJob: _JobType(_execute_size, _install_size, _cached_size),
    SampleJob: _JobType(_execute_sample, _install_sample, _cached_sample),
}


def _job_type_of(job: Any) -> _JobType:
    entry = _JOB_TYPES.get(type(job))
    if entry is None:
        raise TypeError(f"unknown job type: {job!r}")
    return entry


def execute_job(job: Any) -> Tuple[Any, Any]:
    """Run one job (in whatever process this is) and return its payload.

    Returns ``(job, payload)`` so process pools can ``map`` it and
    re-associate results with their inputs.
    """
    return job, _job_type_of(job).executor(job)


def install(job: Any, payload: Any) -> None:
    """Merge one payload into the in-process cache its runner reads."""
    _job_type_of(job).installer(job, payload)


def is_cached(job: Any) -> bool:
    """Whether the payload is already installed in-process."""
    return _job_type_of(job).cached_check(job)
