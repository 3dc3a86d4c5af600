"""The unified run lifecycle: one request object, one runner recipe.

Every entry point — ``repro.api.run``, the CLI, ``run_experiments.py``
and the serving layer — describes a run with one :class:`RunRequest`,
so the policy knobs (cache, journal, timeout, retry, resume, fault
injection) and the ``probes``/``jobs`` rule are defined exactly once,
here.

The functions below are the whole lifecycle:

:func:`resolve_jobs`
    The one place the ``probes`` → ``jobs=1`` coercion lives (and
    warns when it overrides an explicit ``jobs``).
:func:`build_runner`
    The one place a :class:`~repro.experiments.engine.Runner` is
    assembled from policy knobs.
:func:`runner_for`
    ``build_runner`` applied to a request.
:func:`execute`
    Run the request (optionally on a shared runner), installing its
    probe bus and threading its resume token through the journal.
:func:`request_digest` / :func:`request_run_id`
    A request's outcome identity (the serving layer's single-flight
    key) and the journal run id it writes under.
:func:`execute_request`
    :func:`execute` as a picklable, JSON-returning call — the serving
    layer's offload unit.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from typing import Optional, Union

from repro.experiments import journal as journal_mod
from repro.experiments.cache import ResultCache, stable_digest
from repro.experiments.engine import RetryPolicy, Runner
from repro.experiments.faults import FaultPlan
from repro.experiments.runner import ExperimentResult, ExperimentSettings
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "RunRequest",
    "build_runner",
    "execute",
    "execute_request",
    "request_digest",
    "request_run_id",
    "resolve_jobs",
    "runner_for",
]


@dataclass(frozen=True)
class RunRequest:
    """Everything one experiment run needs, in one immutable object.

    This is the blessed entry point for running experiments
    (``repro.api.run(RunRequest(...))``); the engine, the CLI and the
    serving layer all construct runs from it, so resume/retry/timeout
    policy has exactly one definition.

    Fields
    ------
    experiment_id:
        Registered experiment id (see ``repro.api.list_experiments``).
        Exactly one of ``experiment_id`` and ``spec`` must be given.
    spec:
        A :class:`~repro.scenarios.spec.ScenarioSpec` to run instead of
        a registered experiment — the ad-hoc sweep path.  The spec is
        expanded by the generic executor and runs through the same
        cache/journal/resume machinery (its ``scenario_id`` is the
        cache and journal identity).
    settings:
        :class:`ExperimentSettings`; ``None`` means paper defaults.
    jobs:
        Worker processes (``None``: all cores).  **Coercion rule:** a
        request carrying ``probes`` runs in-process — the probe bus is
        per-process, so fan-out would bypass live tracing.  ``jobs``
        other than ``None``/``1`` is overridden to ``1`` with a
        :class:`RuntimeWarning` (see :func:`resolve_jobs`).  Per-job
        metric *snapshots* survive fan-out regardless; the coercion
        only affects live streaming.
    cache:
        ``True`` (default location), ``False`` (no caching — also
        disables the journal), or a ready :class:`ResultCache`.
    cache_dir:
        Cache location when ``cache=True`` (default:
        ``$REPRO_CACHE_DIR`` or ``.repro-cache``).
    probes:
        A :class:`repro.obs.ProbeBus` installed for the run's duration.
    watchdog:
        Run every job under an invariant watchdog.
    timeout_s / retry:
        Per-job wall-clock budget and :class:`RetryPolicy` (defaults:
        no timeout; 3 attempts, 2 worker crashes, exponential backoff).
    resume:
        A previous run's journal token: journaled-done jobs replay
        from the cache, only the remainder executes.
    run_id:
        Override the journal's (otherwise deterministic) run id.
    faults:
        A :class:`FaultPlan` for deterministic chaos testing.
    journal:
        Set ``False`` to suppress the per-run journal.
    span_flush_every:
        Flush the run's span store every N records so the trace
        survives a crash (``None``: buffer until close; the chaos
        driver arms ``1``).
    backend:
        Execution backend name — ``"serial"``, ``"pool"`` or
        ``"cluster"`` — or a ready
        :class:`~repro.experiments.backends.ExecutionBackend`.
        ``None`` (default) derives serial/pool from ``jobs``.  A
        cluster run spawns ``workers`` local worker processes, or
        binds ``worker_address`` and waits for external
        ``repro worker --connect`` processes to join.  Everything
        else on this request — resume, retry, quarantine, faults,
        journal — behaves identically across backends.
    workers:
        Cluster fleet size (``backend="cluster"`` only; default 2).
    worker_address:
        Address to bind for external workers (``HOST:PORT`` or a unix
        socket path); ``None`` spawns the fleet locally.
    """

    experiment_id: Optional[str] = None
    spec: Optional["ScenarioSpec"] = None
    settings: Optional[ExperimentSettings] = None
    jobs: Optional[int] = None
    cache: Union[bool, ResultCache] = True
    cache_dir: Optional[os.PathLike] = None
    probes: Optional[object] = None
    watchdog: bool = False
    timeout_s: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    resume: Optional[str] = None
    run_id: Optional[str] = None
    faults: Optional[FaultPlan] = None
    journal: bool = True
    span_flush_every: Optional[int] = None
    backend: Optional[object] = None
    workers: Optional[int] = None
    worker_address: Optional[str] = None


# module paths share their sys.path entry, so this prefixes every
# repro frame's co_filename exactly as it prefixes this file's
_PACKAGE_DIR = os.path.dirname(os.path.dirname(__file__)) + os.sep


def _caller_stacklevel() -> int:
    """The ``stacklevel`` of the first frame outside the ``repro``
    package, counted from the function that calls this one — so a
    warning names the user's line however many library frames
    (``repro.api.run`` → ``execute`` → ``runner_for``) sit between."""
    frame = sys._getframe(1)
    level = 1
    while (frame.f_back is not None
           and frame.f_code.co_filename.startswith(_PACKAGE_DIR)):
        frame = frame.f_back
        level += 1
    return level


def resolve_jobs(jobs: Optional[int], probes) -> Optional[int]:
    """Apply the ``probes`` → in-process coercion, loudly.

    The probe bus is per-process: live tracing through ``probes`` only
    sees jobs executed in-process, so an instrumented run forces
    ``jobs=1``.  When that overrides an explicit ``jobs`` value the
    caller is told via :class:`RuntimeWarning`, attributed to the
    caller's own line, instead of silently getting a serial run.
    """
    if probes is None:
        return jobs
    if jobs not in (None, 1):
        warnings.warn(
            f"probes force in-process execution: overriding jobs={jobs} "
            f"with jobs=1 (drop probes= to fan out; per-job metric "
            f"snapshots are captured either way)",
            RuntimeWarning,
            stacklevel=_caller_stacklevel(),
        )
    return 1


def build_runner(
    *,
    jobs: Optional[int] = None,
    cache: Union[bool, ResultCache] = True,
    cache_dir: Optional[os.PathLike] = None,
    watchdog: bool = False,
    timeout_s: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    journal: bool = True,
    span_flush_every: Optional[int] = None,
    backend=None,
    workers: Optional[int] = None,
    worker_address: Optional[str] = None,
) -> Runner:
    """Assemble a :class:`Runner` from policy knobs.

    The single runner-construction recipe shared by ``repro.api``
    (``make_runner``, ``run``), the CLI and the serving layer.  A
    runner whose backend holds long-lived machinery (a cluster fleet)
    should be released with ``Runner.close()`` when the caller is done
    with it.
    """
    from repro.experiments.backends import resolve_backend

    if isinstance(cache, ResultCache):
        store = cache
    elif cache:
        store = ResultCache(cache_dir)
    else:
        store = None
    return Runner(
        jobs=jobs,
        cache=store,
        watchdog=watchdog,
        timeout_s=timeout_s,
        retry=retry,
        faults=faults,
        journal=journal,
        span_flush_every=span_flush_every,
        backend=resolve_backend(backend, workers=workers,
                                worker_address=worker_address),
    )


def runner_for(request: RunRequest) -> Runner:
    """The runner a :class:`RunRequest` asks for."""
    return build_runner(
        jobs=resolve_jobs(request.jobs, request.probes),
        cache=request.cache,
        cache_dir=request.cache_dir,
        watchdog=request.watchdog,
        timeout_s=request.timeout_s,
        retry=request.retry,
        faults=request.faults,
        journal=request.journal,
        span_flush_every=request.span_flush_every,
        backend=request.backend,
        workers=request.workers,
        worker_address=request.worker_address,
    )


def execute(request: RunRequest, runner: Optional[Runner] = None) -> ExperimentResult:
    """Run one :class:`RunRequest` to completion.

    Pass a shared ``runner`` to reuse one cache/manifest across several
    requests (the CLI's ``all`` and ``run_experiments.py`` do); it is
    built from the request otherwise — and an internally-built runner
    is closed before returning, so its backend machinery and the run's
    advisory lock are released the moment the run ends rather than at
    garbage-collection time.  The request's probe bus, resume token and
    run id are threaded through either way.
    """
    if (request.experiment_id is None) == (request.spec is None):
        raise ValueError(
            "RunRequest needs exactly one of experiment_id or spec"
        )
    if request.spec is not None:
        from repro.scenarios.executor import as_experiment

        experiment = as_experiment(request.spec)
    else:
        from repro.experiments import REGISTRY

        try:
            experiment = REGISTRY[request.experiment_id]
        except KeyError:
            known = ", ".join(REGISTRY)
            raise KeyError(
                f"unknown experiment {request.experiment_id!r}; "
                f"known ids: {known}"
            ) from None
    owned = runner is None
    if owned:
        runner = runner_for(request)
    try:
        if request.probes is None:
            return runner.run_experiment(
                experiment, request.settings,
                run_id=request.run_id, resume=request.resume,
            )
        from repro.obs import use_probes

        with use_probes(request.probes):
            return runner.run_experiment(
                experiment, request.settings,
                run_id=request.run_id, resume=request.resume,
            )
    finally:
        if owned:
            runner.close()


def _settings(request: RunRequest) -> ExperimentSettings:
    """The settings the request runs with (``None``: paper defaults)."""
    if request.settings is None:
        return ExperimentSettings()
    return request.settings


def _request_id(request: RunRequest) -> str:
    """The id the request runs under: experiment or scenario id."""
    if request.spec is not None:
        return request.spec.scenario_id
    return request.experiment_id or ""


def request_digest(request: RunRequest) -> str:
    """Stable identity of a request's *outcome* (not its run policy).

    Two requests that must produce byte-identical results — same
    experiment or spec, same settings — share a digest even if one
    disables the cache or carries a resume token; the serving layer
    uses this for single-flight coalescing of concurrent identical
    submissions.
    """
    settings = _settings(request)
    if request.spec is not None:
        from repro.scenarios.spec import spec_digest

        return stable_digest("sweep-request", spec_digest(request.spec),
                             settings)
    return stable_digest("experiment-request", request.experiment_id, settings)


def request_run_id(request: RunRequest) -> str:
    """The deterministic journal run id this request will write under."""
    return journal_mod.default_run_id(_request_id(request), _settings(request))


def execute_request(request: RunRequest) -> dict:
    """Run one :class:`RunRequest` to completion; a JSON-able payload.

    Importable at module top level and driven only by its picklable
    argument, so it can be submitted to a ``ProcessPoolExecutor`` (or a
    thread executor) via ``loop.run_in_executor`` — the asyncio serving
    layer's offload path.  Returns the rendered result (``result_json``
    is deterministic for identical requests), engine cache statistics,
    the run's merged metrics snapshot, its resume token (``run_id``)
    and any partial-failure records.
    """
    runner = runner_for(request)
    start = time.perf_counter()
    try:
        result = execute(request, runner=runner)
    finally:
        runner.close()
    return {
        "experiment_id": _request_id(request),
        "digest": request_digest(request),
        "result_json": result.to_json(indent=2),
        "cache_hits": runner.stats.cache_hits,
        "cache_misses": runner.stats.cache_misses,
        "wall_s": round(time.perf_counter() - start, 4),
        "metrics": runner.merged_metrics,
        "run_id": runner.last_run_id,
        "trace_id": runner.last_trace_id,
        "retries": runner.stats.retries,
        "journal_replays": runner.stats.journal_replays,
        "failures": [asdict(f) for f in runner.failures],
    }
