"""Serve-layer run lifecycle: resume tokens, drain journaling, pickup.

``POST /v1/experiments/{id}`` accepts a ``resume`` token and reports
the run id it journaled under via ``X-Repro-Run-Id``; a SIGTERM drain
journals requests still executing to ``serve-inflight.json``; the next
``start()`` resubmits them with their resume tokens.
"""

import asyncio
import json
import time

from repro.experiments import REGISTRY
from repro.experiments.lifecycle import RunRequest, request_run_id
from repro.experiments.runner import ExperimentSettings
from repro.serve import ReproServer, ServeConfig
from repro.store.envelope import snapshot_digest
from repro.serve.http import ClientConnection

from tests.serve.test_server import fake_experiment, run_async


class TestResumeField:
    def test_run_id_header_and_resume_token_round_trip(
        self, monkeypatch, tmp_path
    ):
        calls = []
        monkeypatch.setitem(
            REGISTRY, "_svc_resume", fake_experiment("_svc_resume", calls))

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(tmp_path / "cache"),
            ))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    status, headers, body = await conn.request(
                        "POST", "/v1/experiments/_svc_resume",
                        body=json.dumps({"quick": True}).encode(),
                    )
                    token = headers.get("x-repro-run-id")
                    status2, headers2, body2 = await conn.request(
                        "POST", "/v1/experiments/_svc_resume",
                        body=json.dumps(
                            {"quick": True, "resume": token}).encode(),
                    )
                return (status, token, body), (status2, headers2, body2)
            finally:
                await server.drain()

        first, second = run_async(scenario())
        status, token, body = first
        assert status == 200
        # the run id is the deterministic journal token for this request
        assert token == request_run_id(RunRequest(
            "_svc_resume", settings=ExperimentSettings.quick()))
        status2, headers2, body2 = second
        assert status2 == 200
        assert headers2.get("x-repro-run-id") == token
        # resume changes nothing about the payload: bodies byte-identical
        assert body2 == body
        assert len(calls) == 1  # second submission replayed the cache

    def test_resume_must_be_a_string(self):
        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    status, _, body = await conn.request(
                        "POST", "/v1/experiments/tab01",
                        body=json.dumps({"resume": 7}).encode(),
                    )
                return status, body
            finally:
                await server.drain()

        status, body = run_async(scenario())
        assert status == 400
        assert b"resume" in body


class TestDrainJournaling:
    def test_drain_journals_inflight_and_restart_resumes(
        self, monkeypatch, tmp_path
    ):
        """Kill the grace period out from under a slow experiment: the
        drained server journals the request, and a fresh server on the
        same cache picks it up and resubmits it with a resume token."""
        calls = []
        monkeypatch.setitem(
            REGISTRY, "_svc_slowres",
            fake_experiment("_svc_slowres", calls, 0.5))
        cache_dir = tmp_path / "cache"
        inflight_path = cache_dir / "journal" / "serve-inflight.json"

        async def drain_mid_flight():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache_dir),
                drain_grace_s=0.05,
            ))
            await server.start()

            async def request():
                try:
                    async with ClientConnection(server.host,
                                                server.port) as conn:
                        return await conn.request(
                            "POST", "/v1/experiments/_svc_slowres")
                except (ConnectionError, asyncio.IncompleteReadError,
                        OSError):
                    return None

            pending = asyncio.ensure_future(request())
            for _ in range(200):
                if server._inflight_experiments:
                    break
                await asyncio.sleep(0.01)
            assert server._inflight_experiments
            await server.drain()
            await asyncio.gather(pending, return_exceptions=True)
            return server.metrics_snapshot()

        snap = run_async(drain_mid_flight())
        assert snap["counters"]["serve.journaled_inflight"] == 1
        assert inflight_path.exists()
        doc = json.loads(inflight_path.read_text())
        # the client's own (empty) body, replayed through the parser
        assert doc["schema"] == 2
        assert doc["requests"] == [
            {"experiment_id": "_svc_slowres", "body": {}}]
        # the drained thread executor cannot cancel a running job; let
        # it finish so the restart's resubmission is deterministic
        deadline = time.perf_counter() + 10
        while not calls and time.perf_counter() < deadline:
            time.sleep(0.02)
        assert calls

        async def restart_and_pickup():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache_dir),
            ))
            await server.start()
            try:
                for _ in range(400):
                    snap = server.metrics_snapshot()
                    submitted = snap["counters"].get(
                        "serve.experiments_submitted", 0)
                    if (submitted >= 1 and not server._inflight_experiments
                            and not server._singleflight):
                        break
                    await asyncio.sleep(0.01)
                return server.metrics_snapshot()
            finally:
                await server.drain()

        snap = run_async(restart_and_pickup())
        assert snap["counters"]["serve.resumed_runs"] == 1
        # consumed: a second restart must not resubmit again
        assert not inflight_path.exists()

    def test_clean_drain_journals_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache_dir),
            ))
            await server.start()
            await server.drain()
            return server.metrics_snapshot()

        snap = run_async(scenario())
        assert "serve.journaled_inflight" not in snap["counters"]
        assert not (cache_dir / "journal" / "serve-inflight.json").exists()

    def test_corrupt_inflight_journal_is_counted_and_discarded(
        self, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        path = cache_dir / "journal" / "serve-inflight.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache_dir),
            ))
            await server.start()
            try:
                return server.metrics_snapshot()
            finally:
                await server.drain()

        snap = run_async(scenario())
        assert snap["counters"]["serve.resume_journal_corrupt"] == 1
        assert not path.exists()


class TestSnapshotValidation:
    """Snapshot records replay through the endpoint parser; anything it
    or the schema check rejects is counted corrupt and not resubmitted."""

    def restart_with(self, tmp_path, doc):
        cache_dir = tmp_path / "cache"
        path = cache_dir / "journal" / "serve-inflight.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(doc))

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache_dir),
            ))
            await server.start()
            try:
                await asyncio.sleep(0.05)
                return server.metrics_snapshot()
            finally:
                await server.drain()

        counters = run_async(scenario())["counters"]
        assert not path.exists()
        return counters

    def test_schema_1_snapshot_is_corrupt(self, tmp_path):
        # an old-style record, and one that would parse under schema 2:
        # the schema alone rejects the whole snapshot
        records = [{"experiment_id": "tab01", "quick": True,
                    "overrides": None, "use_cache": True, "cache_dir": None,
                    "jobs": 1, "resume": None, "timeout_s": None,
                    "max_attempts": None, "spec": None, "backend": None,
                    "workers": None},
                   {"experiment_id": "tab01", "body": {}}]
        counters = self.restart_with(tmp_path, {
            "schema": 1, "requests": records,
            "sha256": snapshot_digest(records)})
        assert counters["serve.resume_journal_corrupt"] == 1
        assert "serve.resumed_runs" not in counters
        assert "serve.experiments_submitted" not in counters

    def test_record_with_unknown_body_key_is_corrupt(self, tmp_path):
        records = [{"experiment_id": "tab01", "body": {"surprise": 1}}]
        counters = self.restart_with(tmp_path, {
            "schema": 2, "requests": records,
            "sha256": snapshot_digest(records)})
        assert counters["serve.resume_journal_corrupt"] == 1
        assert "serve.resumed_runs" not in counters
        assert "serve.experiments_submitted" not in counters
