"""The simulation workload, driven through ``repro.api.run``.

``capacity-sweep`` is the registered ``fig19`` sweep at quick scale
(mcf at 4/8/16/32 MB stand-ins for 4-32 GB) on the pool backend with
two workers.  The untraced run repeats cold sweeps, each on an empty
cache dir; the traced run also times warm replays from a filled one.

Every run's simulated statistics are hashed — the result table plus
each job's counters, gauges and histograms from the runner's metrics
manifest (timings excluded) — and compared with ``reference.json``
when it holds the seed, and with the run's own first cold sweep
otherwise.  A job whose hash is not expected counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import codec_calls
from common import (SETUP_REPEATS, BENCH_DIR, WorkDir, dir_bytes, median,
                    peak_rss_mb, percentile, time_interpreter_setup)
from tracing import Tracer

REPLAY_COUNT = 1000
"""Untraced warm replays timed by the traced run; ``replay_s`` is their
median."""
REFERENCE_PATH = BENCH_DIR / "reference.json"

SETUP_CODE = (
    "import sys\n"
    "import repro.api as api\n"
    "runner = api.make_runner(jobs=int(sys.argv[1]), cache_dir=sys.argv[2])\n"
    "print('ready', flush=True)\n"
    "runner.close()\n"
)


@dataclass
class SweepPlan:
    """What one sweep workload asks ``repro.api.run`` for."""

    experiment_id: Optional[str]
    spec: object
    settings: object
    jobs: int
    backend: str

    def request(self, cache_dir, *, serial: bool = False, probes=None):
        import repro.api as api

        return api.RunRequest(
            experiment_id=self.experiment_id, spec=self.spec,
            settings=self.settings, cache_dir=cache_dir, probes=probes,
            jobs=1 if serial else self.jobs,
            backend="serial" if serial else self.backend,
        )

    def runner(self, cache_dir, *, serial: bool = False):
        import repro.api as api

        return api.make_runner(
            jobs=1 if serial else self.jobs, cache_dir=cache_dir,
            backend="serial" if serial else self.backend)


def fig19_paper_err(result) -> float:
    """Max |Smart-Refresh normalised refresh - paper| over the
    ``paper_reference`` anchors fig19 carries (4 GB and 32 GB)."""
    errors = [
        abs(row[1] - result.paper_reference[key])
        for row in result.rows
        if (key := "smart@" + str(row[0]).replace(" ", "")) in result.paper_reference
    ]
    return max(errors)


def make_plan(workload: str, seed: int, tiny: bool = False) -> SweepPlan:
    """The workload's request, with its inputs generated from ``seed``."""
    import repro.api as api

    if workload != "capacity-sweep":
        raise ValueError(f"not a sweep workload: {workload}")
    if tiny:
        spec = api.get_scenario("fig19").to_dict()
        spec["axes"][0]["values"] = [4, 8]
        return SweepPlan(None, api.ScenarioSpec.from_dict(spec),
                         api.quick_settings(seed=seed, windows=1), 2, "pool")
    return SweepPlan("fig19", None, api.quick_settings(seed=seed), 2, "pool")


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digest(result, runner) -> dict:
    """Hashes of everything the run simulated: the result table and
    each job's statistics (host timings left out)."""
    jobs = runner.metrics_manifest()["jobs"]
    job_hashes = sorted(
        _sha(json.dumps({key: job["metrics"].get(key)
                         for key in ("counters", "gauges", "histograms")},
                        sort_keys=True))
        for job in jobs
    )
    return {"table": _sha(result.to_json()), "jobs": job_hashes}


def load_reference(workload: str, seed: int) -> Optional[dict]:
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return data.get(workload, {}).get(str(seed))


class DigestChecker:
    """Counts jobs whose statistics differ from the expected digest.

    ``expected`` is the stored reference for the seed; without one the
    first run checked becomes the expectation for the rest.
    """

    def __init__(self, expected: Optional[dict]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.mismatched_runs = 0

    def check(self, digest: dict) -> None:
        if self.expected is None:
            self.expected = digest
        self.attempted += len(digest["jobs"])
        unexpected = Counter(digest["jobs"]) - Counter(self.expected["jobs"])
        bad = sum(unexpected.values())
        if bad == 0 and digest["table"] != self.expected["table"]:
            bad = 1
        if bad:
            self.mismatched_runs += 1
            self.failed += bad


def timed_run(plan: SweepPlan, cache_dir: Path, *, serial: bool = False,
              probes=None):
    """(seconds, result, runner) of one ``repro.api.run`` call."""
    import repro.api as api

    runner = plan.runner(cache_dir, serial=serial)
    try:
        start = time.perf_counter()
        result = api.run(plan.request(cache_dir, serial=serial, probes=probes),
                         runner=runner)
        elapsed = time.perf_counter() - start
    finally:
        runner.close()
    return elapsed, result, runner


def job_host_times(runner):
    """(job key, seconds) of every job attempt the runner executed,
    from the engine's own ``job``/``attempt`` spans."""
    jobs = {span["span_id"]: span["q"] for span in runner.span_records
            if span["name"] == "job"}
    return [(jobs[span["parent_id"]], span["dur_s"])
            for span in runner.span_records if span["name"] == "attempt"]


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def run_end_to_end(workload: str, seed: int, seconds: float, *,
                   tiny: bool = False, reference: Optional[dict] = None
                   ) -> dict:
    plan = make_plan(workload, seed, tiny)
    if reference is None and not tiny:
        reference = load_reference(workload, seed)
    checker = DigestChecker(reference)
    cold, job_seconds = [], {}
    jobs_done = 0
    with WorkDir(workload) as work:
        setup = [time_interpreter_setup(SETUP_CODE, [plan.jobs, work / "setup"])
                 for _ in range(1 if tiny else SETUP_REPEATS)]
        # the first sweep in a process pays lazy imports and a cold
        # page cache; a tiny one pays them before anything is timed
        timed_run(make_plan(workload, seed, tiny=True), work / "warmup")
        deadline = time.perf_counter() + seconds
        sweep = 0
        while True:
            elapsed, result, runner = timed_run(plan, work / f"cold-{sweep}")
            cold.append(elapsed)
            jobs_done += runner.stats.jobs
            checker.failed += runner.stats.quarantined
            for job, seconds_taken in job_host_times(runner):
                job_seconds.setdefault(job, []).append(seconds_taken)
            checker.check(run_digest(result, runner))
            sweep += 1
            # start another sweep if it ends within half a sweep of the
            # deadline, so a run measures close to ``seconds``
            if tiny or time.perf_counter() + elapsed / 2 > deadline:
                break
    job_medians = [median(times) for times in job_seconds.values()]
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_s": (median(cold), "s"),
        "req_per_s": (jobs_done / sum(cold), "1/s"),
        "req_p50_ms": (percentile(job_medians, 50) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed,
            "correct": checker.mismatched_runs == 0,
            "info": {"cold_s": cold,
                     "slowest_job_ms": max(job_medians) * 1e3,
                     "fail_frac": checker.failed / checker.attempted,
                     "digest": checker.expected}}


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------
SERVE_METRICS_ABSENT = (
    ("serve.server_latency_ms", "ms"), ("serve.http_overhead_ms", "ms"),
    ("serve.batch_size_mean", "count"), ("serve.batch_wait_ms", "ms"),
    ("serve.rejected_429", "count"),
)


def warm_replays(plan: SweepPlan, cache_dir: Path, checker: DigestChecker,
                 count: int) -> float:
    """Median seconds of ``count`` untraced replays from a filled cache."""
    times = []
    for _ in range(count):
        elapsed, result, runner = timed_run(plan, cache_dir)
        times.append(elapsed)
        checker.check(run_digest(result, runner))
    return median(times)


def run_traced(workload: str, seed: int, *, tiny: bool = False) -> dict:
    """Serial in-process runs: untraced (cold, then warm replays), traced
    (cold then warm), and with a probe bus armed; plus the isolated codec
    calls."""
    from repro.obs import ProbeBus

    plan = make_plan(workload, seed, tiny)
    checker = DigestChecker(None if tiny else load_reference(workload, seed))
    metrics, codec_attempted, codec_failed = codec_calls.measure(seed,
                                                                 tiny=tiny)

    tracer = Tracer()
    with WorkDir(workload + "-traced") as work:
        # the first sweep in a process pays lazy imports; a tiny one
        # pays them here so the three timed sweeps compare fairly
        timed_run(make_plan(workload, seed, tiny=True), work / "warmup",
                  serial=True)
        untraced_s, result, runner = timed_run(plan, work / "untraced",
                                               serial=True)
        checker.check(run_digest(result, runner))
        job_ms = [seconds * 1e3 for _, seconds in job_host_times(runner)]
        replay_s = warm_replays(plan, work / "untraced", checker,
                                1 if tiny else REPLAY_COUNT)

        tracer.install()
        try:
            with tracer.span("bench.traced"):
                traced_s, result, runner = timed_run(plan, work / "traced",
                                                     serial=True)
                bytes_written = dir_bytes(work / "traced")
                _, _, replay_runner = timed_run(plan, work / "traced",
                                                serial=True)
        finally:
            tracer.uninstall()
        checker.check(run_digest(result, runner))
        paper_err = fig19_paper_err(result)
        hit_ratio = replay_runner.stats.cache_hits / replay_runner.stats.jobs

        probed_s, result, runner = timed_run(plan, work / "probed",
                                             serial=True, probes=ProbeBus())
        checker.check(run_digest(result, runner))

    wall = tracer.total("bench.traced")
    layer_self = tracer.layer_self_times()
    counts = tracer.counts
    metrics.update({
        "core.populate_s": (tracer.total("core.populate"), "s"),
        "controller.populate_pages_s": (tracer.total("controller.populate_pages"), "s"),
        "controller.write_lines_s": (tracer.total("controller.write_lines"), "s"),
        "controller.lines_written": (counts["controller.lines_written"], "count"),
        "workloads.window_trace_s": (tracer.total("workloads.window_trace"), "s"),
        "workloads.generate_lines_s": (tracer.total("workloads.generate_lines"), "s"),
        "dram.refresh.run_window_self_s": (tracer.self_total("dram.refresh.run_window"), "s"),
        "dram.ar_commands": (counts["dram.ar_commands"], "count"),
        "dram.skip_ratio": (counts["dram.groups_skipped"]
                            / max(1, counts["dram.groups_total"]), "ratio"),
        "sim.measure_s": (tracer.total("sim.step"), "s"),
        "sim.warmup_s": (tracer.total("sim.warmup"), "s"),
        "experiments.overhead_s": (tracer.total("experiments.run")
                                   - tracer.total("experiments.job"), "s"),
        "experiments.replay_hit_ratio": (hit_ratio, "ratio"),
        "replay_s": (replay_s, "s"),
        "store.put_s": (tracer.total("store.put"), "s"),
        "store.get_s": (tracer.total("store.get"), "s"),
        "store.journal_append_s": (tracer.total("store.journal_append"), "s"),
        "store.bytes_written": (bytes_written, "B"),
        "obs.trace_overhead_s": (traced_s - untraced_s, "s"),
        "obs.probe_overhead_s": (probed_s - untraced_s, "s"),
        "paper_err": (paper_err, "ratio"),
        "req_p99_ms": (percentile(job_ms, 99), "ms"),
    })
    metrics.update({name: (0.0, unit) for name, unit in SERVE_METRICS_ABSENT})
    shares = tracer.self_shares(wall)
    metrics.update(shares)
    attempted = checker.attempted + codec_attempted
    failed = checker.failed + codec_failed
    metrics["fail_frac"] = (failed / attempted, "ratio")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": checker.mismatched_runs == 0 and codec_failed == 0
            and sum(share for share, _ in shares.values()) <= 1.0,
            "info": {"traced_wall_s": wall, "untraced_wall_s": untraced_s,
                     "layer_self_s": layer_self}}
