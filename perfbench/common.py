"""Helpers shared by the workloads: inputs from a seed, statistics,
memory, set-up timing and the per-run scratch directory."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
"""Fresh interpreters started per run to time set-up; the median is
reported so one slow start does not move ``setup_s``."""


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per input stream of one seed."""
    return np.random.default_rng([seed, sum(map(ord, stream))])


def mixed_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` cachelines of 8-line runs, each run drawn from a random
    content class of :mod:`repro.workloads.synthetic`, so inputs carry
    the value mix (zeros, small ints, pointers, floats, text) the codec
    is built for."""
    from repro.workloads.synthetic import LINE_CLASSES, generate_lines

    names = sorted(LINE_CLASSES)
    runs = -(-n // 8)
    picks = rng.integers(0, len(names), size=runs)
    chunks = [generate_lines(names[i], 8, rng) for i in picks]
    return np.concatenate(chunks)[:n]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; with fewer than 100 samples p99 is the
    maximum."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_interpreter_setup(code: str, args) -> float:
    """Seconds from starting a fresh interpreter running ``code`` until
    it prints ``ready``; the process is then waited for."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *map(str, args)],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != b"ready":
            raise RuntimeError(f"set-up probe printed {line!r}")
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, label: str):
        self.path = WORK_ROOT / f"{label}-{os.getpid()}"

    def __enter__(self) -> Path:
        if self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
        return False


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())
