"""The unified retention-window simulation kernel.

One loop for every refresh mechanism: :class:`SimKernel` drives warmup
and measured windows over the :class:`RefreshScheme` protocol, with
adapters (:mod:`repro.sim.schemes`) for the baselines,
:func:`run_concurrent` for lockstep composition of independent refresh
domains (multi-rank DIMMs).  See DESIGN.md, "Simulation kernel and
probe bus".
"""

from repro.sim.kernel import SimKernel, run_concurrent
from repro.sim.scheme import RefreshScheme, SchemeCapabilities, WriteHook
from repro.sim.schemes import (
    RaidrScheme,
    SmartRefreshScheme,
    ZeroIndicatorRefreshScheme,
)

__all__ = [
    "RaidrScheme",
    "RefreshScheme",
    "SchemeCapabilities",
    "SimKernel",
    "SmartRefreshScheme",
    "WriteHook",
    "ZeroIndicatorRefreshScheme",
    "run_concurrent",
]
