"""Per-bank auto-refresh engine with charge-aware skipping (paper Sec. IV).

The engine walks the refresh schedule of one rank: every bank receives
``ar_sets_per_bank`` auto-refresh commands per retention window, each
covering ``rows_per_ar`` *refresh groups*.

**Staggered refresh counters (Sec. IV-C, Fig. 8).**  Each chip's
internal refresh counter is initialised to its chip number, so at
refresh step ``n`` chip ``j`` refreshes bank-local row::

    block_base(n) + (j + n) mod num_chips,
    block_base(n) = (n // num_chips) * num_chips

A refresh *group* — the chip rows recharged by one step — is therefore
a diagonal across the chips.  Combined with the per-row rotation of the
data-rotation stage (word ``w`` of row ``R`` lives on chip
``(R + w) mod num_chips``), every group covers a single *word position*
of all cachelines it touches: groups are word-homogeneous, so groups of
discharged words are skippable as a unit.

**Skip protocol (Sec. IV-B).**  One status bit per group lives in the
DRAM-resident :class:`~repro.dram.tracking.DischargedStatusTable`; a
per-AR-set bit in the SRAM :class:`~repro.dram.tracking.AccessBitTable`
records intervening writes.

* access bit set -> refresh every group, re-derive the status of all
  covered rows with the wire-OR detector (free during refresh), write
  the vector back to DRAM once (one DRAM write), clear the bit;
* access bit clear -> read the vector (one DRAM read), skip groups
  whose bit says discharged, refresh the rest.

``mode='conventional'`` turns the engine into the DDRx baseline (no
skipping); ``mode='naive'`` consults a per-write-maintained
:class:`~repro.dram.tracking.NaiveSramTracker` instead of the
access-bit protocol (the tracking ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.timing import TimingParams
from repro.dram.tracking import (
    AccessBitTable,
    DischargedStatusTable,
    NaiveSramTracker,
)
from repro.obs.invariants import get_watchdog
from repro.obs.probes import NULL_PROBES

MODES = ("zero-refresh", "conventional", "naive")
POLICIES = ("per-bank", "all-bank")


class RefreshCounters:
    """Per-chip staggered refresh counters (Fig. 8).

    ``staggered=False`` models conventional counters where every chip
    refreshes the same row index at each step.
    """

    def __init__(self, num_chips: int, staggered: bool = True):
        self.num_chips = num_chips
        self.staggered = staggered

    def rows_for_step(self, step: int) -> np.ndarray:
        """Bank-local row refreshed by each chip at ``step``; shape (chips,)."""
        chips = np.arange(self.num_chips)
        if not self.staggered:
            return np.full(self.num_chips, step)
        block_base = (step // self.num_chips) * self.num_chips
        return block_base + (chips + step) % self.num_chips

    def rows_for_steps(self, steps: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rows_for_step`; shape (chips, len(steps))."""
        steps = np.asarray(steps)
        if not self.staggered:
            return np.broadcast_to(steps, (self.num_chips, len(steps))).copy()
        chips = np.arange(self.num_chips)[:, None]
        block_base = (steps // self.num_chips) * self.num_chips
        return block_base + (chips + steps) % self.num_chips

    def step_of_row(self, chip: int, row: int) -> int:
        """Refresh step at which ``chip`` recharges ``row`` (inverse map)."""
        if not self.staggered:
            return row
        block_base = (row // self.num_chips) * self.num_chips
        offset = (row - chip) % self.num_chips
        return block_base + offset


@dataclass
class RefreshStats:
    """Counters accumulated by the refresh engine.

    A *group refresh* recharges ``num_chips`` chip rows — the refresh
    work of one logical row, the unit in which the paper reports
    "refresh operations".
    """

    ar_commands: int = 0
    groups_refreshed: int = 0
    groups_skipped: int = 0
    dirty_ars: int = 0
    clean_ars: int = 0
    status_reads: int = 0
    status_writes: int = 0
    windows: int = 0
    rank_busy_groups: int = 0
    """Rank-level busy work in group units.

    Per-bank AR blocks only the target bank, so this equals
    ``groups_refreshed``.  All-bank AR blocks the whole rank until the
    *slowest* bank finishes, so each command contributes
    ``num_banks * max_over_banks(refreshed)`` — the quantity the
    bank-availability model converts into stall time (Sec. IV-A)."""

    @property
    def groups_total(self) -> int:
        return self.groups_refreshed + self.groups_skipped

    def normalized_refresh(self) -> float:
        """Refresh operations relative to the conventional baseline."""
        if self.groups_total == 0:
            return 1.0
        return self.groups_refreshed / self.groups_total

    def reduction(self) -> float:
        """Fraction of refresh operations eliminated."""
        return 1.0 - self.normalized_refresh()

    def normalized_busy(self) -> float:
        """Rank busy time relative to the conventional baseline."""
        if self.groups_total == 0:
            return 1.0
        return self.rank_busy_groups / self.groups_total

    def merged_with(self, other: "RefreshStats") -> "RefreshStats":
        return RefreshStats(
            ar_commands=self.ar_commands + other.ar_commands,
            groups_refreshed=self.groups_refreshed + other.groups_refreshed,
            groups_skipped=self.groups_skipped + other.groups_skipped,
            dirty_ars=self.dirty_ars + other.dirty_ars,
            clean_ars=self.clean_ars + other.clean_ars,
            status_reads=self.status_reads + other.status_reads,
            status_writes=self.status_writes + other.status_writes,
            windows=self.windows + other.windows,
            rank_busy_groups=self.rank_busy_groups + other.rank_busy_groups,
        )

    @classmethod
    def aggregate_concurrent(
        cls, parts: "Sequence[RefreshStats]", windows: int
    ) -> "RefreshStats":
        """Merge stats of refresh domains that ran *simultaneously*.

        Independent domains (DIMM ranks, channels) each simulate the
        same retention windows in parallel, so their counters add but
        their windows overlap: the aggregate covers ``windows`` windows
        of wall time, not the concatenated sum ``merged_with`` would
        report.  Returns a fresh instance; no input is mutated.
        """
        merged = cls()
        for part in parts:
            merged = merged.merged_with(part)
        merged.windows = windows
        return merged


class RefreshEngine:
    """Issues per-bank AR commands and applies charge-aware skipping.

    The engine natively satisfies the :class:`repro.sim.scheme.RefreshScheme`
    protocol: ``run_window`` is the scheme interface, and
    :attr:`capabilities` declares what it needs from a driver.  Plain
    charge-aware engines only observe *writes* (through the device's
    write observers); subclasses that skip on access recency set
    :attr:`wants_access_events` so drivers replay demand reads too.
    """

    wants_access_events = False
    """Whether drivers must replay demand reads as row activations."""

    def __init__(
        self,
        device: DramDevice,
        timing: Optional[TimingParams] = None,
        mode: str = "zero-refresh",
        staggered: bool = True,
        policy: str = "per-bank",
        access_bits: Optional[AccessBitTable] = None,
        status_table: Optional[DischargedStatusTable] = None,
        naive_tracker: Optional[NaiveSramTracker] = None,
        probes=None,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        self.policy = policy
        self.probes = probes if probes is not None else NULL_PROBES
        self.watchdog = get_watchdog()
        self.device = device
        self.geometry: DramGeometry = device.geometry
        self.timing = timing or TimingParams()
        self.mode = mode
        self.counters = RefreshCounters(self.geometry.num_chips, staggered)
        self.stats = RefreshStats()
        if mode == "zero-refresh":
            self.access_bits = access_bits or AccessBitTable(self.geometry)
            self.status_table = status_table or DischargedStatusTable(self.geometry)
            device.add_write_observer(self.access_bits.note_write)
            self.naive_tracker = None
        elif mode == "naive":
            self.access_bits = None
            self.status_table = None
            self.naive_tracker = naive_tracker or NaiveSramTracker(self.geometry)
            device.add_write_observer(self._naive_on_write)
        else:
            self.access_bits = None
            self.status_table = None
            self.naive_tracker = None

    # ------------------------------------------------------------------
    @property
    def capabilities(self):
        """This engine's :class:`~repro.sim.scheme.SchemeCapabilities`."""
        from repro.sim.scheme import SchemeCapabilities

        return SchemeCapabilities(wants_access_events=self.wants_access_events)

    # ------------------------------------------------------------------
    def _naive_on_write(self, bank: int, row: int) -> None:
        """Naive tracker: re-derive affected status bits on every write.

        A write to one row changes the charge of its slice in every
        chip, touching ``num_chips`` diagonal refresh groups, so the
        naive design has to re-check and update all of them — per
        write.  (This hidden read cost is part of why the paper rejects
        the design; the counter below feeds the ablation.)
        """
        ar_set = row // self.geometry.rows_per_ar
        self.naive_tracker.set_vector(
            bank, ar_set, self.derive_group_status(bank, ar_set)
        )
        self.naive_tracker.updates += 1

    # ------------------------------------------------------------------
    def group_steps(self, ar_set: int) -> np.ndarray:
        """Refresh steps covered by one AR command."""
        start = ar_set * self.geometry.rows_per_ar
        return np.arange(start, start + self.geometry.rows_per_ar)

    def derive_group_status(self, bank: int, ar_set: int) -> np.ndarray:
        """Wire-OR-derived discharged bit per group of the AR set.

        Group ``k`` is discharged iff every chip's covered row slice is
        discharged.  Because groups are diagonals, this indexes the
        per-chip detector output by the staggered row matrix.
        """
        steps = self.group_steps(ar_set)
        rows_matrix = self.counters.rows_for_steps(steps)  # (chips, k)
        set_rows = self.geometry.rows_of_ar_set(ar_set)
        per_chip = self.device.banks[bank].detect_discharged_per_chip(set_rows)
        rel = rows_matrix - set_rows[0]
        chips = np.arange(self.geometry.num_chips)[:, None]
        return per_chip[rel, chips].all(axis=0)

    # ------------------------------------------------------------------
    def process_ar(self, bank: int, ar_set: int, time_s: float,
                   track_busy: bool = True) -> int:
        """Handle one AR command for one bank; returns groups refreshed.

        With the per-bank policy (``track_busy=True``) the command's
        work directly blocks only its bank; the all-bank path calls
        this per bank with ``track_busy=False`` and accounts the
        rank-blocking time itself.
        """
        if self.mode == "conventional":
            refreshed = self._refresh_groups(
                bank, ar_set, np.ones(self.geometry.rows_per_ar, dtype=bool), time_s
            )
        elif self.mode == "naive":
            set_rows = self.geometry.rows_of_ar_set(ar_set)
            bank_obj = self.device.banks[bank]
            if bank_obj.dirty[set_rows].any():
                # Rows whose content predates the tracker (initial
                # population): derive their status from the detector,
                # as the per-write checks would have done.
                self.naive_tracker.set_vector(
                    bank, ar_set, self.derive_group_status(bank, ar_set)
                )
                bank_obj.dirty[set_rows] = False
            group_status = self.naive_tracker.vector(bank, ar_set)
            refreshed = self._refresh_groups(bank, ar_set, ~group_status, time_s)
            skipped = int(group_status.sum())
            self.stats.groups_skipped += skipped
            self.probes.count("refresh.groups_skipped", skipped)
        else:
            refreshed = self._process_zero_refresh(bank, ar_set, time_s)
        self.stats.ar_commands += 1
        self.probes.count("refresh.ar_commands")
        if self.probes.tracing:
            self.probes.event("refresh.ar", bank=bank, ar_set=ar_set,
                              t=time_s, refreshed=refreshed, mode=self.mode)
        if track_busy:
            self.stats.rank_busy_groups += refreshed
        return refreshed

    def _process_zero_refresh(self, bank: int, ar_set: int, time_s: float) -> int:
        set_rows = self.geometry.rows_of_ar_set(ar_set)
        # A set is dirty when a write raised its access bit, or when its
        # rows carry content the table has never described (bank-side
        # dirty flags cover population that happened before this engine
        # attached its write observer).
        dirty = self.access_bits.test_and_clear(bank, ar_set)
        dirty = dirty or bool(self.device.banks[bank].dirty[set_rows].any())
        if dirty:
            # Dirty set: refresh everything, renew the status vector.
            self.stats.dirty_ars += 1
            self.probes.count("refresh.dirty_ars")
            refreshed = self._refresh_groups(
                bank, ar_set, np.ones(self.geometry.rows_per_ar, dtype=bool), time_s
            )
            status = self.derive_group_status(bank, ar_set)
            self.status_table.write_vector(bank, ar_set, status)
            self.stats.status_writes += 1
            self.probes.count("refresh.status_writes")
            if self.probes.tracing:
                self.probes.event("refresh.status_renewal", bank=bank,
                                  ar_set=ar_set, t=time_s,
                                  discharged=int(status.sum()))
            self.device.banks[bank].dirty[set_rows] = False
        else:
            # Clean set: trust the stored vector, skip discharged groups.
            self.stats.clean_ars += 1
            self.probes.count("refresh.clean_ars")
            status = self.status_table.read_vector(bank, ar_set)
            self.stats.status_reads += 1
            self.probes.count("refresh.status_reads")
            refreshed = self._refresh_groups(bank, ar_set, ~status, time_s)
            skipped = int(status.sum())
            self.stats.groups_skipped += skipped
            self.probes.count("refresh.groups_skipped", skipped)
            if self.watchdog.enabled:
                self._watchdog_clean_skip(bank, ar_set, status, ~status,
                                          time_s)
        return refreshed

    def _watchdog_clean_skip(self, bank: int, ar_set: int,
                             status: np.ndarray, refresh_mask: np.ndarray,
                             time_s: float) -> None:
        """Evidence for the clean-path skip invariants (watchdog runs only).

        Called after the groups were refreshed, which is safe because a
        refresh only recharges cells — it never changes stored data, so
        :meth:`derive_group_status` still reflects the pre-refresh truth.
        """
        self.watchdog.check(
            "refresh.no_discharged_refresh",
            not bool((refresh_mask & status).any()),
            bank=bank, ar_set=ar_set, t=round(time_s, 6),
        )
        truth = self.derive_group_status(bank, ar_set)
        self.watchdog.check(
            "refresh.skip_safety",
            not bool((status & ~truth).any()),
            bank=bank, ar_set=ar_set, t=round(time_s, 6),
            marked_discharged=int(status.sum()),
            actually_charged=int((status & ~truth).sum()),
        )

    def _refresh_groups(self, bank: int, ar_set: int, refresh_mask: np.ndarray,
                        time_s: float) -> int:
        """Recharge the chip slices of every group selected by the mask."""
        steps = self.group_steps(ar_set)[refresh_mask]
        if len(steps):
            rows_matrix = self.counters.rows_for_steps(steps)  # (chips, n)
            if self.probes.enabled:
                # per-group charge lifetime: time since the longest-idle
                # chip slice of each group was last recharged (read
                # before refresh_slices overwrites the timestamps)
                chip_col = np.arange(self.geometry.num_chips)[:, None]
                last = self.device.banks[bank].last_refresh[
                    rows_matrix, chip_col
                ]
                self.probes.observe_many(
                    "refresh.row_charge_lifetime_s",
                    time_s - last.min(axis=0),
                )
            chips = np.repeat(
                np.arange(self.geometry.num_chips), rows_matrix.shape[1]
            )
            self.device.banks[bank].refresh_slices(
                rows_matrix.ravel(), chips, time_s
            )
        refreshed = int(refresh_mask.sum())
        self.stats.groups_refreshed += refreshed
        self.probes.count("refresh.groups_refreshed", refreshed)
        return refreshed

    # ------------------------------------------------------------------
    def run_window(self, start_time_s: float = 0.0,
                   write_hook=None) -> RefreshStats:
        """Run one full retention window of AR commands for all banks.

        Commands are evenly spaced: each bank gets one AR per
        ``tRET / ar_sets_per_bank``, with banks offset from each other
        (per-bank refresh).  ``write_hook(t0, t1)``, if given, is called
        before each AR slot with the simulated time span of the slot so
        a driver can inject the memory traffic that falls inside it.

        Returns the stats delta for this window.
        """
        before = RefreshStats(**vars(self.stats))
        geometry = self.geometry
        cadence = self.timing.tret_s / geometry.ar_sets_per_bank
        offset = cadence / geometry.num_banks
        previous = start_time_s
        for ar_set in range(geometry.ar_sets_per_bank):
            if self.policy == "all-bank":
                # One rank-level command: every bank refreshes the set
                # simultaneously; the rank stays blocked until the bank
                # with the most surviving refreshes finishes (Sec. IV-A:
                # per-bank skipping inside an all-bank command needs the
                # slowest bank to complete).
                t = start_time_s + ar_set * cadence
                if write_hook is not None:
                    write_hook(previous, t)
                worst = 0
                for bank in range(geometry.num_banks):
                    refreshed = self.process_ar(bank, ar_set, t,
                                                track_busy=False)
                    worst = max(worst, refreshed)
                self.stats.rank_busy_groups += worst * geometry.num_banks
                previous = t
                continue
            for bank in range(geometry.num_banks):
                t = start_time_s + ar_set * cadence + bank * offset
                if write_hook is not None:
                    write_hook(previous, t)
                self.process_ar(bank, ar_set, t)
                previous = t
        if write_hook is not None:
            write_hook(previous, start_time_s + self.timing.tret_s)
        self.stats.windows += 1
        after = RefreshStats(**vars(self.stats))
        delta = RefreshStats(
            ar_commands=after.ar_commands - before.ar_commands,
            groups_refreshed=after.groups_refreshed - before.groups_refreshed,
            groups_skipped=after.groups_skipped - before.groups_skipped,
            dirty_ars=after.dirty_ars - before.dirty_ars,
            clean_ars=after.clean_ars - before.clean_ars,
            status_reads=after.status_reads - before.status_reads,
            status_writes=after.status_writes - before.status_writes,
            windows=1,
            rank_busy_groups=after.rank_busy_groups - before.rank_busy_groups,
        )
        if self.watchdog.enabled:
            # conservation: every group in the schedule is either
            # refreshed or deliberately skipped, exactly once per window
            expected = (geometry.num_banks * geometry.ar_sets_per_bank
                        * geometry.rows_per_ar)
            self.watchdog.check(
                "refresh.window_conservation",
                delta.groups_total == expected,
                groups_total=delta.groups_total, expected=expected,
                t=round(start_time_s, 6),
            )
        return delta
