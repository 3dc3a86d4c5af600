"""The :class:`RefreshScheme` protocol every refresh mechanism speaks.

A *scheme* is anything that can process one retention window:
ZERO-REFRESH's :class:`~repro.dram.refresh.RefreshEngine` (in all its
modes), the hybrid engine, and the adapter-wrapped baselines in
:mod:`repro.sim.schemes`.  The :class:`~repro.sim.kernel.SimKernel`
drives schemes through warmup and measured windows without knowing
which mechanism it is timing — the seam that keeps cross-scheme
comparisons (Fig. 14/15/17/19) on one timeline by construction.

Capabilities are *declared*, not discovered: the old driver decided
whether to replay demand reads by probing ``hasattr(engine,
"_note_access")``; a scheme now states ``wants_access_events`` in its
:class:`SchemeCapabilities` and drivers branch on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable

WriteHook = Callable[[float, float], None]
"""``hook(span_start_s, span_end_s)`` — inject the traffic of one
inter-command span; called by timed schemes between refresh slots."""


@dataclass(frozen=True)
class SchemeCapabilities:
    """What a refresh scheme needs from (and offers to) its driver.

    wants_access_events:
        The scheme skips based on access recency, so demand *reads*
        must be replayed as row activations (hybrid / Smart Refresh).
        Charge-aware schemes only care about writes, which reach them
        through the device write observers.
    timed:
        ``run_window``'s ``start_time_s`` and the write hook's span
        boundaries are meaningful simulated time.  Untimed schemes
        (per-window counter models) accept and ignore them.
    consumes_write_hook:
        The scheme interleaves the hook's traffic between its refresh
        commands.  Drivers may skip building a hook otherwise.
    """

    wants_access_events: bool = False
    timed: bool = True
    consumes_write_hook: bool = True


@runtime_checkable
class RefreshScheme(Protocol):
    """One retention window of refresh decisions.

    ``run_window`` returns the window's stats *delta* — an object
    supporting ``merged_with`` (normally
    :class:`~repro.dram.refresh.RefreshStats`) that the kernel
    accumulates without mutating either operand.
    """

    capabilities: SchemeCapabilities

    def run_window(self, start_time_s: float = 0.0,
                   write_hook: Optional[WriteHook] = None):
        ...
