"""Self-test of the benchmark at tiny scale.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import common  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
import sweeps  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
OPEN_RATE = 100.0


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_declared_metric(workload, trace):
    outcome = run.run_workload(workload, 7, 1, trace, open_rate=OPEN_RATE,
                               tiny=True)
    result = json.loads(run.result_line(outcome))
    expected = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_digest_counts_in_fail_frac():
    wrong = {"table": "0" * 64, "jobs": ["0" * 64, "1" * 64]}
    outcome = sweeps.run_end_to_end("capacity-sweep", 7, 1, tiny=True,
                                    reference=wrong)
    assert outcome["correct"] is False
    assert outcome["failed"] == outcome["attempted"]
    assert outcome["info"]["fail_frac"] == 1.0


def test_flipped_word_in_serve_reply_counts_in_fail_frac():
    flipped = []

    def flip_first_encode(reply):
        doc = json.loads(reply.body)
        if flipped or doc.get("op") != "encode":
            return
        doc["lines"][0][1] ^= 1
        reply.body = json.dumps(doc).encode()
        flipped.append(reply)

    outcome = serving.run_end_to_end(7, 1, OPEN_RATE, tiny=True,
                                     tamper=flip_first_encode)
    assert len(flipped) == 1
    assert outcome["failed"] == 1
    assert outcome["correct"] is False
    assert 0 < outcome["info"]["fail_frac"] < 1


def test_capacity_sweep_statistics_match_plain_cli(tmp_path):
    plan = sweeps.make_plan("capacity-sweep", 3)
    _, result, _ = sweeps.timed_run(plan, tmp_path / "api")
    cli = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "fig19", "--quick",
         "--seed", "3", "--jobs", "2", "--json",
         "--cache-dir", str(tmp_path / "cli")],
        cwd=ROOT, env=common.child_env(), capture_output=True, text=True,
        check=True, timeout=170)
    doc = json.loads(cli.stdout)
    del doc["run_id"], doc["trace_id"]
    assert json.dumps(doc, indent=2) == json.dumps(result.to_dict(), indent=2)


def test_command_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "transform-serve",
         "--seed", "5", "--seconds", "4", "--trace", "0",
         "--open-rate", str(OPEN_RATE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert "fail_frac" in proc.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "capacity-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
