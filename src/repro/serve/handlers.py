"""Route handlers for the serving daemon.

Each handler takes the :class:`~repro.serve.server.ReproServer` it runs
inside plus the parsed :class:`~repro.serve.http.HttpRequest`, and
returns a :class:`Response`.  Handlers validate eagerly and raise
:class:`~repro.serve.http.HttpError` for anything malformed, so the
dispatch layer can map problems onto 4xx responses uniformly.

Response bodies are canonical JSON (sorted keys): two requests with
identical inputs receive byte-identical bodies whether they were
coalesced into one batch, served from the result cache, or executed
fresh — the end-to-end tests assert exactly that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.obs.metrics import prometheus_text
from repro.serve.batching import TransformItem
from repro.serve.http import HttpError, HttpRequest, json_body


@dataclass
class Response:
    """What a handler returns: status, body and extra headers."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)


def error_response(status: int, message: str,
                   headers: Dict[str, str] = None) -> Response:
    """Uniform JSON error body used by every failure path."""
    return Response(
        status=status,
        body=json_body({"error": message, "status": status}),
        headers=dict(headers or {}),
    )


# ----------------------------------------------------------------------
# control plane: /healthz and /metrics (never subject to backpressure)
# ----------------------------------------------------------------------
def handle_healthz(server, request: HttpRequest) -> Response:
    return Response(body=json_body({
        "status": "ok" if server.state == "serving" else server.state,
        "state": server.state,
        "inflight": server.inflight,
        "max_pending": server.config.max_pending,
    }))


def handle_metrics(server, request: HttpRequest) -> Response:
    text = prometheus_text(server.metrics_snapshot())
    return Response(
        body=text.encode("utf-8"),
        content_type="text/plain; version=0.0.4; charset=utf-8",
    )


# ----------------------------------------------------------------------
# data plane: /v1/transform
# ----------------------------------------------------------------------
def parse_transform_request(server, request: HttpRequest) -> TransformItem:
    """Validate a transform body into a :class:`TransformItem`."""
    payload = request.json()
    if not isinstance(payload, dict):
        raise HttpError(400, "body must be a JSON object")
    op = payload.get("op", "encode")
    if op not in ("encode", "decode"):
        raise HttpError(400, f"op must be 'encode' or 'decode', got {op!r}")
    row_index = payload.get("row_index", 0)
    if not isinstance(row_index, int) or isinstance(row_index, bool):
        raise HttpError(400, "row_index must be an integer")
    if not 0 <= row_index < server.num_rows:
        raise HttpError(
            400,
            f"row_index {row_index} out of range [0, {server.num_rows})",
        )
    lines = payload.get("lines")
    if not isinstance(lines, list) or not lines:
        raise HttpError(400, "lines must be a non-empty list of word lists")
    words_per_line = server.codec.line_bytes // server.codec.word_bytes
    for line in lines:
        if not isinstance(line, list) or len(line) != words_per_line:
            raise HttpError(
                400, f"each line must be a list of {words_per_line} words"
            )
    try:
        array = np.array(lines, dtype=server.codec.dtype)
    except (ValueError, TypeError, OverflowError) as exc:
        raise HttpError(400, f"invalid word values: {exc}") from None
    return TransformItem(op=op, lines=array, row_index=row_index)


async def handle_transform(server, request: HttpRequest) -> Response:
    item = parse_transform_request(server, request)
    server.bus.count("serve.transform_requests")
    server.bus.count("serve.transform_lines", len(item.lines))
    result = await server.transform_batcher.submit(item)
    body = json_body({
        "op": item.op,
        "row_index": item.row_index,
        "lines": result.tolist(),
    })
    return Response(body=body)


# ----------------------------------------------------------------------
# data plane: /v1/experiments/{id} and /v1/sweeps
# ----------------------------------------------------------------------
def run_request_from_body(server, experiment_id: Optional[str], payload):
    """Validate a JSON-decoded experiment or sweep body into a RunRequest.

    ``experiment_id`` names the registered experiment a
    ``/v1/experiments/{id}`` body runs; ``None`` means a ``/v1/sweeps``
    body, which carries a full :class:`~repro.scenarios.spec.ScenarioSpec`
    wire dict under ``spec``.  Both take the same ``quick``/
    ``overrides``/``resume`` knobs.  Settings are resolved and a spec is
    parsed and expanded eagerly, so an unknown override key, axis or
    reduction is a 400 here, never a failed engine run.  The drain
    snapshot's resume path replays stored bodies through this same
    function.
    """
    from repro.experiments import REGISTRY
    from repro.experiments.lifecycle import RunRequest
    from repro.experiments.runner import ExperimentSettings
    from repro.scenarios.executor import expand
    from repro.scenarios.spec import ScenarioError, ScenarioSpec

    if experiment_id is not None and experiment_id not in REGISTRY:
        raise HttpError(404, f"unknown experiment {experiment_id!r}")
    if not isinstance(payload, dict):
        raise HttpError(400, "body must be a JSON object")
    fields = {"quick", "overrides", "resume"}
    if experiment_id is None:
        fields.add("spec")
    unknown = sorted(set(payload) - fields)
    if unknown:
        raise HttpError(
            400, f"unknown request field(s): {', '.join(unknown)}"
        )
    quick = payload.get("quick", True)
    if not isinstance(quick, bool):
        raise HttpError(400, "quick must be a boolean")
    overrides = payload.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise HttpError(400, "overrides must be a JSON object")
    resume = payload.get("resume")
    if resume is not None and not isinstance(resume, str):
        raise HttpError(400, "resume must be a run-id string")
    try:
        json.dumps(overrides)
    except (TypeError, ValueError) as exc:  # pragma: no cover - json gave it
        raise HttpError(400, f"overrides not JSON-able: {exc}") from None
    spec_data = payload.get("spec")
    if experiment_id is None and not isinstance(spec_data, dict):
        raise HttpError(400, "spec must be a JSON object (the wire form "
                             "of a ScenarioSpec; see repro list / "
                             "ScenarioSpec.to_dict)")
    spec = None
    try:
        if experiment_id is None:
            spec = ScenarioSpec.from_dict(spec_data)
        settings = ExperimentSettings.from_dict(overrides or None,
                                                quick=quick)
        if spec is not None:
            expand(spec, settings)
    except ScenarioError as exc:
        raise HttpError(400, f"invalid sweep spec: {exc}") from None
    except ValueError as exc:
        raise HttpError(400, str(exc)) from None
    return RunRequest(
        experiment_id=experiment_id,
        spec=spec,
        settings=settings,
        jobs=1,
        cache=server.config.use_cache,
        cache_dir=server.config.cache_dir,
        resume=resume,
        backend=server.config.experiment_backend,
        workers=server.config.experiment_workers,
    )


async def handle_experiment(server, experiment_id: Optional[str],
                            request: HttpRequest) -> Response:
    """Run one experiment (``experiment_id``) or sweep (``None``) body."""
    body = request.json()
    run_request = run_request_from_body(server, experiment_id, body)
    if experiment_id is None:
        server.bus.count("serve.sweep_requests")
    try:
        payload = await server.submit_experiment(
            run_request, {"experiment_id": experiment_id, "body": body})
    except ValueError as exc:
        # the engine rejected the request's spec or settings mid-run
        raise HttpError(400, str(exc)) from None
    # the resume token rides in a header so the body stays byte-identical
    # across fresh / cached / resumed executions of the same request
    headers = {}
    if payload.get("run_id"):
        headers["X-Repro-Run-Id"] = str(payload["run_id"])
    return Response(body=payload["result_json"].encode("utf-8"),
                    headers=headers)


# ----------------------------------------------------------------------
# data plane: /v1/runs/{run_id}
# ----------------------------------------------------------------------
def handle_run_status(server, run_id: str, request: HttpRequest) -> Response:
    """Live/finished status of one run, from journal + span store.

    A run is known if it has a journal, a span store, or is executing
    in a worker right now.  ``state`` is ``running`` while in flight;
    otherwise the root ``run`` span's recorded status (``ok`` /
    ``partial`` / ``failed``) decides, and a journal with no root span
    means the run was ``interrupted`` (killed before finishing — its
    resume token still works).
    """
    from pathlib import Path

    from repro.experiments import journal as journal_mod
    from repro.experiments.cache import default_cache_dir
    from repro.experiments.lifecycle import request_run_id
    from repro.obs.spans import dedupe_spans, read_spans, span_path

    root = (Path(server.config.cache_dir) if server.config.cache_dir
            else default_cache_dir())
    state = journal_mod.load_state(root, run_id)
    spans = dedupe_spans(read_spans(span_path(root, run_id)))
    running = any(
        (req.resume or request_run_id(req)) == run_id
        for req, _record in list(server._inflight_experiments.values())
    )
    if state is None and not spans and not running:
        raise HttpError(404, f"unknown run {run_id!r}")

    by_name = {}
    for span in spans:
        by_name.setdefault(span.get("name"), []).append(span)
    run_span = next(iter(by_name.get("run", [])), None)
    plan_span = next(iter(by_name.get("plan", [])), None)
    if running:
        run_state = "running"
    elif run_span is not None:
        status = run_span.get("status", "ok")
        run_state = "finished" if status == "ok" else status
    elif state is not None or spans:
        run_state = "interrupted"

    planned = plan_span.get("planned") if plan_span else None
    done = len(state.done) if state else 0
    failed = len(state.failed) if state else 0
    retries = sum(1 for s in by_name.get("attempt", ()) if "error" in s)
    body = {
        "run_id": run_id,
        "trace_id": spans[0]["trace_id"] if spans else None,
        "experiment_id": (state.experiment_id if state
                          else (run_span or {}).get("experiment_id")),
        "state": run_state,
        "jobs": {"planned": planned, "done": done, "failed": failed},
        "retries": retries,
        "spans": len(spans),
        "resumable": state is not None,
    }
    if run_span is not None:
        body["wall_s"] = run_span.get("dur_s")
        body["cache_hits"] = run_span.get("cache_hits")
        body["cache_misses"] = run_span.get("cache_misses")
    return Response(body=json_body(body))

