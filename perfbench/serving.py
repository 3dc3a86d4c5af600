"""The ``transform-serve`` workload: ``/v1/transform`` traffic over HTTP.

``repro-serve`` runs in a subprocess (``python -m repro.serve``); this
process is the client, on at most two keep-alive connections.  Half the
requests encode and half decode, 1-32 lines each, with rows drawn over
the whole cell-type table so true-cell and anti-cell rows both occur.

Phases of an untraced run:

* closed loop — two callers that each wait for their reply; blocks of
  ``BLOCK`` distinct requests are sent one after another;
* open loop — requests due at a fixed rate; latency runs from each
  request's due time, so a stall also delays the requests behind it,
  and the client's lateness is reported.

Every encode reply is compared with an in-process
``ValueTransformCodec`` built with the server's geometry, and every
decode reply with the lines that were encoded.  Non-200 replies
(including 429) and mismatches count as failed.
"""

from __future__ import annotations

import gc
import http.client
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

import codec_calls
from common import (ROOT, WorkDir, child_env, median, mixed_lines, percentile,
                    process_peak_rss_mb, rng_for)
from tracing import Tracer

CONNECTIONS = 2
BLOCK = 400
MAX_LINES = 32
SETUP_REPEATS = 3
WARMUP_REQUESTS = 200
CLOSED_SHARE = 0.5
"""Share of ``--seconds`` spent in the closed loop; the open loop gets
the rest after warm-up.  The closed loop's timings follow the host's
speed, which drifts over tens of seconds, so it gets half the run."""

HEADERS = {"Content-Type": "application/json"}


@dataclass
class Request:
    op: str
    row_index: int
    body: bytes
    expected: np.ndarray


@dataclass
class Reply:
    status: int = 0
    body: bytes = b""
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0


def make_requests(seed: int, stream: str, count: int, codec) -> List[Request]:
    """``count`` request bodies from the seed, with expected replies."""
    rng = rng_for(seed, stream)
    sizes = rng.integers(1, MAX_LINES + 1, size=count)
    ops = rng.integers(0, 2, size=count)
    rows = rng.integers(0, codec_calls.SERVE_ROWS, size=count)
    content = mixed_lines(int(sizes.sum()), rng)
    requests, offset = [], 0
    for size, op, row in zip(sizes, ops, rows):
        lines = content[offset:offset + size]
        offset += size
        encoded = codec.transform_lines(lines, int(row))
        if op == 0:
            payload, expected, name = lines, encoded, "encode"
        else:
            payload, expected, name = encoded, lines, "decode"
        body = json.dumps({"op": name, "row_index": int(row),
                           "lines": payload.tolist()}).encode("ascii")
        requests.append(Request(name, int(row), body, expected))
    return requests


def reply_ok(request: Request, reply: Reply) -> bool:
    if reply.status != 200:
        return False
    try:
        lines = json.loads(reply.body)["lines"]
        got = np.array(lines, dtype=request.expected.dtype)
    except (ValueError, KeyError, TypeError, OverflowError):
        return False
    return got.shape == request.expected.shape and bool(
        np.array_equal(got, request.expected))


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.serve`` on an ephemeral port."""

    def __init__(self, work):
        self.work = work
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Seconds from spawn until ``/healthz`` answers 200."""
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--workers", "0", "--cache-dir", str(self.work / "serve-cache")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=child_env(), cwd=ROOT,
        )
        line = self.proc.stdout.readline().decode("ascii", "replace")
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro-serve did not announce a port: {line!r}")
        self.port = int(match.group(1))
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"/healthz answered {response.status}")
        finally:
            conn.close()
        return time.perf_counter() - start

    def metrics(self) -> dict:
        """``/metrics`` as ``{series name: value}``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.proc = None


def server_deltas(before: dict, after: dict) -> dict:
    """Server-side figures between two ``/metrics`` scrapes."""

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    requests = delta("repro_serve_request_latency_s_count")
    batches = delta("repro_serve_batch_size_count")
    return {
        "latency_ms": delta("repro_serve_request_latency_s_sum")
        / max(1.0, requests) * 1e3,
        "batch_size_mean": delta("repro_serve_batch_size_sum") / max(1.0, batches),
        "rejected_429": delta("repro_serve_rejected_429_total"),
    }


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
def _send(conn, request: Request, reply: Reply) -> None:
    reply.sent = time.perf_counter()
    conn.request("POST", "/v1/transform", request.body, HEADERS)
    response = conn.getresponse()
    reply.body = response.read()
    reply.status = response.status
    reply.done = time.perf_counter()


def drive(port: int, requests: List[Request], *, rate: Optional[float] = None,
          connections: int = CONNECTIONS, tracer: Optional[Tracer] = None
          ) -> List[Reply]:
    """Send ``requests`` on ``connections`` keep-alive connections.

    Without ``rate`` each connection sends its next request when the
    previous reply lands (closed loop); with ``rate`` request ``i`` is
    due ``i / rate`` seconds after the start (open loop).
    """
    replies = [Reply() for _ in requests]
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    errors: List[BaseException] = []
    start = time.perf_counter() + 0.01

    def caller():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                reply = replies[index]
                reply.due = start + (index / rate if rate else 0.0)
                wait = reply.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                if tracer is None:
                    _send(conn, requests[index], reply)
                else:
                    with tracer.span("serve.request"):
                        _send(conn, requests[index], reply)
        except BaseException as exc:  # reported by the caller below
            errors.append(exc)
        finally:
            conn.close()

    # the generator's own garbage collections would add its pauses to
    # the server's latency
    gc.disable()
    try:
        if connections == 1:
            caller()
        else:
            threads = [threading.Thread(target=caller)
                       for _ in range(connections)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=600)
                if thread.is_alive():
                    raise RuntimeError("load generator thread did not finish")
    finally:
        gc.enable()
    if errors:
        raise errors[0]
    return replies


class Checker:
    def __init__(self, tamper: Optional[Callable[[Reply], None]] = None):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.tamper = tamper

    def check(self, requests: List[Request], replies: List[Reply]) -> None:
        for request, reply in zip(requests, replies):
            if self.tamper is not None:
                self.tamper(reply)
            self.attempted += 1
            if not reply_ok(request, reply):
                self.failed += 1
                if reply.status == 200:
                    self.mismatched += 1


def closed_blocks(server, seed, codec, checker, budget_s, *, tiny=False):
    """(block walls, requests) of the closed loop, one distinct block at
    a time until ``budget_s`` is spent."""
    walls, sent = [], 0
    deadline = time.perf_counter() + budget_s
    block = 0
    while True:
        requests = make_requests(seed, f"closed-{block}", 40 if tiny else BLOCK,
                                 codec)
        start = time.perf_counter()
        replies = drive(server.port, requests)
        walls.append(time.perf_counter() - start)
        sent += len(requests)
        checker.check(requests, replies)
        block += 1
        if tiny or time.perf_counter() >= deadline:
            return walls, sent


def open_loop(server, seed, codec, checker, rate, duration_s):
    """Replies of ``rate * duration_s`` requests due at a fixed rate."""
    count = max(1, int(rate * duration_s))
    requests = make_requests(seed, "open", count, codec)
    replies = drive(server.port, requests, rate=rate)
    checker.check(requests, replies)
    return replies


def start_server(work, repeats):
    """Start the server ``repeats`` times (timing each set-up) and keep
    the last one running."""
    setups = []
    for attempt in range(repeats):
        server = ServerProcess(work)
        setups.append(server.start())
        if attempt < repeats - 1:
            server.stop()
    return server, setups


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def run_end_to_end(seed: int, seconds: float, rate: float, *,
                   tiny: bool = False, tamper=None) -> dict:
    codec = codec_calls.make_codec()
    checker = Checker(tamper)
    with WorkDir("transform-serve") as work:
        server, setups = start_server(work, 1 if tiny else SETUP_REPEATS)
        try:
            warm = make_requests(seed, "warmup", 20 if tiny else WARMUP_REQUESTS,
                                 codec)
            checker.check(warm, drive(server.port, warm))
            walls, sent = closed_blocks(
                server, seed, codec, checker, seconds * CLOSED_SHARE, tiny=tiny)
            open_s = 1.0 if tiny else seconds * (1 - CLOSED_SHARE) - 2.0
            replies = open_loop(server, seed, codec, checker, rate, open_s)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
    latencies = [(r.done - r.due) * 1e3 for r in replies if r.status == 200]
    lateness = [(r.sent - r.due) * 1e3 for r in replies]
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "req_per_s": (sent / sum(walls), "1/s"),
        "req_p50_ms": (percentile(latencies, 50), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed, "correct": checker.mismatched == 0,
            "info": {"open_loop_requests": len(replies), "open_rate": rate,
                     "open_p99_ms": percentile(latencies, 99),
                     "closed_requests": sent,
                     "lateness_p50_ms": percentile(lateness, 50),
                     "lateness_p99_ms": percentile(lateness, 99),
                     "lateness_max_ms": max(lateness),
                     "fail_frac": checker.failed / checker.attempted}}


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------
SIM_METRICS_ABSENT = (
    ("core.populate_s", "s"), ("controller.populate_pages_s", "s"),
    ("controller.write_lines_s", "s"), ("controller.lines_written", "count"),
    ("workloads.window_trace_s", "s"), ("workloads.generate_lines_s", "s"),
    ("dram.refresh.run_window_self_s", "s"), ("dram.ar_commands", "count"),
    ("dram.skip_ratio", "ratio"), ("sim.measure_s", "s"),
    ("sim.warmup_s", "s"), ("experiments.overhead_s", "s"),
    ("experiments.replay_hit_ratio", "ratio"), ("store.put_s", "s"),
    ("store.get_s", "s"), ("store.journal_append_s", "s"),
    ("store.bytes_written", "B"), ("obs.probe_overhead_s", "s"),
    ("paper_err", "ratio"), ("replay_s", "s"),
)


def batch_compute_ms(codec, requests: List[Request], batch_size: float) -> float:
    """In-process time of the server's batch processor per batch of
    ``batch_size`` requests drawn from ``requests``."""
    from repro.serve.batching import TransformItem, make_transform_processor

    process = make_transform_processor(codec)
    items = [TransformItem(op=r.op, row_index=r.row_index,
                           lines=np.array(json.loads(r.body)["lines"],
                                          dtype=codec.dtype))
             for r in requests]
    size = max(1, int(round(batch_size)))
    batches = [items[i:i + size] for i in range(0, len(items), size)]
    start = time.perf_counter()
    for batch in batches:
        process(batch)
    return (time.perf_counter() - start) / len(batches) * 1e3


def run_traced(seed: int, seconds: float, rate: float, *,
               tiny: bool = False) -> dict:
    """Serial closed-loop blocks untraced and traced (one connection),
    then the open loop at the fixed rate with ``/metrics`` scraped
    around it; plus the isolated codec calls."""
    codec = codec_calls.make_codec()
    checker = Checker()
    metrics, codec_attempted, codec_failed = codec_calls.measure(seed,
                                                                 tiny=tiny)
    tracer = Tracer()
    count = 40 if tiny else BLOCK
    with WorkDir("transform-serve-traced") as work:
        server, _ = start_server(work, 1)
        try:
            warm = make_requests(seed, "warmup", count, codec)
            checker.check(warm, drive(server.port, warm, connections=1))
            requests = make_requests(seed, "closed-0", count, codec)
            start = time.perf_counter()
            checker.check(requests, drive(server.port, requests, connections=1))
            untraced_s = time.perf_counter() - start
            with tracer.span("bench.traced"):
                replies = drive(server.port, requests, connections=1,
                                tracer=tracer)
            checker.check(requests, replies)
            before = server.metrics()
            open_replies = open_loop(server, seed, codec, checker, rate,
                                     1.0 if tiny else min(seconds, 10.0))
            deltas = server_deltas(before, server.metrics())
        finally:
            server.stop()
    wall = tracer.total("bench.traced")
    client_ms = statistics.fmean((r.done - r.sent) * 1e3 for r in open_replies)
    compute_ms = batch_compute_ms(codec, requests, deltas["batch_size_mean"])
    layer_self = tracer.layer_self_times()
    metrics.update({
        "serve.server_latency_ms": (deltas["latency_ms"], "ms"),
        "serve.http_overhead_ms": (client_ms - deltas["latency_ms"], "ms"),
        "serve.batch_size_mean": (deltas["batch_size_mean"], "count"),
        "serve.batch_wait_ms": (max(0.0, deltas["latency_ms"] - compute_ms), "ms"),
        "serve.rejected_429": (deltas["rejected_429"], "count"),
        "req_p99_ms": (percentile([(r.done - r.due) * 1e3 for r in open_replies
                                   if r.status == 200], 99), "ms"),
        "obs.trace_overhead_s": (wall - untraced_s, "s"),
    })
    metrics.update({name: (0.0, unit) for name, unit in SIM_METRICS_ABSENT})
    shares = tracer.self_shares(wall)
    metrics.update(shares)
    attempted = checker.attempted + codec_attempted
    failed = checker.failed + codec_failed
    metrics["fail_frac"] = (failed / attempted, "ratio")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": checker.mismatched == 0 and codec_failed == 0
            and sum(share for share, _ in shares.values()) <= 1.0,
            "info": {"traced_wall_s": wall, "untraced_wall_s": untraced_s,
                     "batch_compute_ms": compute_ms,
                     "layer_self_s": layer_self}}
