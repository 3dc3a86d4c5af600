"""In-memory span recorder that wraps the simulator's layers from outside.

The traced run installs wrappers around public functions of each layer
(``repro.transform``, ``repro.controller``, ``repro.dram``, ...), records
one span per call — name, start, end and the span that was open when it
started — and removes the wrappers afterwards.  Nothing under ``src/``
is edited: the wrappers live only in this process and only for the
traced run, which is serial so every job executes here.

A span's *self time* is its duration minus the time its direct
children cover; summing self times per layer gives a partition of the
root span's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (module, owner attribute or None for a module function, function name,
#  span name).  Span names start with the layer (the repro subpackage).
LAYER_FUNCTIONS = (
    ("repro.experiments.engine", "Runner", "run_experiment", "experiments.run"),
    ("repro.experiments.engine", None, "execute_job", "experiments.job"),
    ("repro.experiments.cache", "ResultCache", "get", "store.get"),
    ("repro.experiments.cache", "ResultCache", "put", "store.put"),
    ("repro.experiments.journal", "RunJournal", "start", "store.journal_append"),
    ("repro.experiments.journal", "RunJournal", "record_done", "store.journal_append"),
    ("repro.experiments.journal", "RunJournal", "record_failed", "store.journal_append"),
    ("repro.core.zero_refresh", "ZeroRefreshSystem", "populate", "core.populate"),
    ("repro.core.zero_refresh", "ZeroRefreshSystem", "finalize_run", "core.finalize_run"),
    ("repro.controller.memctrl", "MemoryController", "populate_pages", "controller.populate_pages"),
    ("repro.controller.memctrl", "MemoryController", "write_lines", "controller.write_lines"),
    ("repro.transform.codec", "ValueTransformCodec", "encode_rows", "transform.codec.encode_rows"),
    ("repro.transform.codec", "ValueTransformCodec", "decode_rows", "transform.codec.decode_rows"),
    ("repro.transform.ebdi", "EbdiCodec", "encode", "transform.ebdi.encode"),
    ("repro.transform.ebdi", "EbdiCodec", "decode", "transform.ebdi.decode"),
    ("repro.transform.bitplane", "BitPlaneTransform", "apply", "transform.bitplane.apply"),
    ("repro.transform.bitplane", "BitPlaneTransform", "invert", "transform.bitplane.invert"),
    ("repro.transform.rotation", "RotationMapper", "scatter", "transform.rotation.scatter"),
    ("repro.transform.rotation", "RotationMapper", "gather", "transform.rotation.gather"),
    ("repro.workloads.benchmarks", "BenchmarkProfile", "generate_pages", "workloads.generate_pages"),
    ("repro.workloads.access", "WorkingSetTraceGenerator", "window_trace", "workloads.window_trace"),
    # the write path calls generate_lines through the name core imported
    ("repro.core.zero_refresh", None, "generate_lines", "workloads.generate_lines"),
    ("repro.dram.refresh", "RefreshEngine", "run_window", "dram.refresh.run_window"),
    ("repro.sim.kernel", "SimKernel", "run_warmup", "sim.warmup"),
    ("repro.sim.kernel", "SimKernel", "step", "sim.step"),
)

LAYERS = ("transform", "controller", "dram", "core", "workloads", "sim",
          "experiments", "store", "serve", "obs")


class Tracer:
    """Records spans as ``[name, start, end, parent index]`` lists.

    Spans are kept in memory and only summarised when the run ends.
    ``counts`` holds work counters recorded at the same boundaries
    (lines written, AR commands, refresh groups).
    """

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def traced(self, name: str, fn: Callable, on_call=None) -> Callable:
        """``fn`` wrapped in a span; ``on_call(args, kwargs, result)``
        records counters at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    # -- installing wrappers -------------------------------------------
    def wrap(self, module_name: str, owner_name: Optional[str], attr: str,
             span_name: str, on_call=None) -> None:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.traced(span_name, original.__func__, on_call))
        else:
            replacement = self.traced(span_name, original, on_call)
        setattr(owner, attr, replacement)
        self._restore.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        """Wrap every function in :data:`LAYER_FUNCTIONS`."""
        counts = self.counts

        def count_lines(args, kwargs, result):
            counts["controller.lines_written"] += len(args[1])

        def count_refresh(args, kwargs, stats):
            counts["dram.ar_commands"] += stats.ar_commands
            counts["dram.groups_skipped"] += stats.groups_skipped
            counts["dram.groups_total"] += stats.groups_total

        hooks = {"controller.write_lines": count_lines,
                 "dram.refresh.run_window": count_refresh}
        for module_name, owner, attr, span_name in LAYER_FUNCTIONS:
            self.wrap(module_name, owner, attr, span_name, hooks.get(span_name))
        self._wrap_write_hook()

    def _wrap_write_hook(self) -> None:
        """Time the write hook core hands the refresh engine, so
        ``run_window`` self time excludes the traffic it drives."""
        from repro.dram.refresh import RefreshEngine

        wrapped_run_window = RefreshEngine.run_window
        tracer = self

        def run_window(engine, start_time_s=0.0, write_hook=None, **kwargs):
            if write_hook is not None:
                write_hook = tracer.traced("core.write_hook", write_hook)
            return wrapped_run_window(engine, start_time_s,
                                      write_hook=write_hook, **kwargs)

        RefreshEngine.run_window = run_window
        self._restore.append(
            lambda: setattr(RefreshEngine, "run_window", wrapped_run_window))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- summaries -----------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span duration minus the duration of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def total(self, name: str) -> float:
        """Summed inclusive duration of every span called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(t for t, span in zip(own, self.spans) if span[0] == name)

    def self_shares(self, wall: float) -> Dict[str, tuple]:
        """``<layer>.self_share`` metrics: each layer's self time over
        ``wall``."""
        own = self.layer_self_times()
        return {f"{layer}.self_share": (own.get(layer, 0.0) / wall, "ratio")
                for layer in LAYERS}

    def layer_self_times(self) -> Dict[str, float]:
        """Self time summed per layer (the span name's first component);
        spans outside the layers (the benchmark's root) count as
        ``other``."""
        shares: Dict[str, float] = defaultdict(float)
        for own, span in zip(self.self_times(), self.spans):
            layer = span[0].split(".", 1)[0]
            shares[layer if layer in LAYERS else "other"] += own
        return dict(shares)
