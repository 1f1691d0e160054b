"""Online (streaming) stability monitoring.

The batch :class:`~repro.core.model.StabilityModel` recomputes trajectories
from a full log; a deployed system instead sees receipts arrive one by one
and must re-score customers at every window close.
:class:`StabilityMonitor` ingests baskets in timestamp order, closes
windows as the clock advances, emits :class:`~repro.core.detector.Alarm`
objects for customers whose stability fell to the threshold, and keeps
the evidence needed to explain each alarm.

Its state is columnar, one set of arrays per monitor: per customer (ids
ascending) ``n_windows`` and ``last_stability``; a presence CSR of int32
``item`` / ``count`` / ``first_seen``, each customer's segment in
(first-seen window, item) order; the last close's significance of every
missing item, aligned to the CSR; the open window's item sets for the
customers who shopped in it; and an append-only alarm log of
``alarm_customer`` / ``alarm_window`` / ``alarm_stability``, in emission
order (window ascending, then customer ascending).  The serving layer
reads its scores and alarm history straight from these columns.  Ingest
is a per-basket set union; a window close is one vectorised
significance call plus segment sums over the CSR, then a vectorised
merge of the window into it.  Memory is O(customers x
items-ever-bought) plus one alarm-log row per alarm emitted, and a
snapshot is those columns as they stand (:mod:`repro.runtime.snapshot`).

Equivalence with the batch model is pinned by tests.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import _segment_sum, significance_from_counts
from repro.core.detector import Alarm
from repro.core.significance import COUNTING_SCHEMES, ExponentialSignificance, SignificanceFunction
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.errors import ConfigError, DataError

if TYPE_CHECKING:
    from repro.config import ExperimentConfig
    from repro.data.calendar import StudyCalendar
    from repro.runtime.snapshot import Columns

__all__ = ["WindowCloseReport", "StabilityMonitor"]

@dataclass(frozen=True)
class WindowCloseReport:
    """What the monitor observed when it closed one window.

    Attributes
    ----------
    window_index:
        The closed window ``k``.
    stabilities:
        Stability of every monitored customer at ``k`` (``nan`` when
        undefined).
    alarms:
        Customers whose stability fell to the threshold or below.
    """

    window_index: int
    stabilities: dict[int, float]
    alarms: tuple[Alarm, ...]


def _pair_keys(rows: np.ndarray, items: np.ndarray) -> np.ndarray:
    """One int64 key per (row, item), ordered like the pair itself."""
    return (rows.astype(np.int64) << 32) + (items.astype(np.int64) + 2**31)


def _lookup(haystack: np.ndarray, needles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``needles`` in the sorted ``haystack``, and which are there."""
    positions = np.searchsorted(haystack, needles)
    if haystack.size == 0:
        return positions, np.zeros(needles.shape, dtype=bool)
    return positions, haystack[np.minimum(positions, haystack.size - 1)] == needles


class StabilityMonitor:
    """Online stability scoring over a stream of timestamped baskets.

    Parameters
    ----------
    grid:
        The shared window grid (same construction as the batch model).
    beta:
        Alarm threshold: a customer alarms when ``stability <= beta``.
    significance:
        Scoring rule; defaults to the paper's exponential rule.
    counting:
        Absence-counting scheme (see
        :class:`~repro.core.significance.SignificanceTracker`).
    first_alarm_window:
        Burn-in: windows before this index never alarm.

    Usage
    -----
    Feed baskets in non-decreasing day order via :meth:`ingest`; it
    returns a :class:`WindowCloseReport` for every window that closed
    because time advanced past it.  Call :meth:`finish` at end of stream
    to close the remaining windows.
    """

    def __init__(
        self,
        grid: WindowGrid,
        beta: float = 0.5,
        significance: SignificanceFunction | None = None,
        counting: str = "paper",
        first_alarm_window: int = 0,
    ) -> None:
        if not 0.0 <= beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {beta}")
        if first_alarm_window < 0:
            raise ConfigError(
                f"first_alarm_window must be >= 0, got {first_alarm_window}"
            )
        if counting not in COUNTING_SCHEMES:
            raise ConfigError(f"unknown counting scheme {counting!r}, expected {COUNTING_SCHEMES}")
        self.grid = grid
        self.beta = float(beta)
        self.significance = (
            significance if significance is not None else ExponentialSignificance()
        )
        self.counting = counting
        self.first_alarm_window = int(first_alarm_window)
        self._current_window = 0
        self._last_day_seen = -1
        self._finished = False
        # Columnar state (see the module docstring).  Every close
        # replaces these arrays rather than mutating them in place.
        self._ids = np.empty(0, dtype=np.int64)
        self._n_windows = np.empty(0, dtype=np.int32)
        self._last_stability = np.empty(0, dtype=np.float64)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._items = np.empty(0, dtype=np.int32)
        self._counts = np.empty(0, dtype=np.int32)
        self._first_seen = np.empty(0, dtype=np.int32)
        self._missing = np.empty(0, dtype=np.float64)
        self._alarm_customer = np.empty(0, dtype=np.int64)
        self._alarm_window = np.empty(0, dtype=np.int32)
        self._alarm_stability = np.empty(0, dtype=np.float64)
        self._current: dict[int, set[int]] = {}

    @classmethod
    def from_config(
        cls,
        calendar: StudyCalendar,
        config: ExperimentConfig,
        beta: float = 0.5,
        first_alarm_window: int = 0,
    ) -> StabilityMonitor:
        """Build a monitor from the shared :class:`~repro.config.ExperimentConfig`.

        Uses the config's grid (``window_months``), significance
        (``alpha``) and counting scheme, so the monitor scores exactly
        what a :class:`~repro.core.model.StabilityModel` built from the
        same config would.
        """
        return cls(
            config.grid(calendar),
            beta=beta,
            significance=config.significance(),
            counting=config.counting,
            first_alarm_window=first_alarm_window,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_window(self) -> int:
        """Index of the window currently accumulating baskets."""
        return self._current_window

    def customers(self) -> list[int]:
        """Sorted ids of customers seen so far."""
        return sorted(set(self._ids.tolist()).union(self._current))

    def register(self, customer_id: int) -> None:
        """Pre-register a customer so silent ones are scored from window 0.

        Customers only seen mid-stream are tracked from their first
        basket; registering the known customer base up front makes a
        fully silent customer produce empty windows (and eventually
        alarms) instead of being invisible.
        """
        self._current.setdefault(customer_id, set())

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def ingest(self, basket: Basket) -> list[WindowCloseReport]:
        """Feed one basket; returns reports for any windows this closes.

        Raises
        ------
        DataError
            If baskets arrive out of order, past the grid, or after
            :meth:`finish`.
        """
        if self._finished:
            raise DataError("monitor already finished")
        window = self.grid.window_of_day(basket.day)
        if window is None:
            raise DataError(
                f"basket day {basket.day} is outside the monitor's grid"
            )
        if window < self._current_window:
            # Out-of-order across a window boundary: the earlier window
            # has already been closed and scored, so folding this basket
            # in would silently corrupt its assignment.  Refuse with
            # enough context to find the offending record upstream.
            raise DataError(
                f"customer {basket.customer_id}: basket at day {basket.day} "
                f"predates the open window {self._current_window} (which "
                f"starts at day {self.grid.boundaries[self._current_window]}); "
                f"window {window} is already closed and baskets must arrive "
                f"in day order"
            )
        if basket.day < self._last_day_seen:
            raise DataError(
                f"customer {basket.customer_id}: baskets must arrive in day "
                f"order: got day {basket.day} after day {self._last_day_seen}"
            )
        self._last_day_seen = basket.day

        reports = []
        while self._current_window < window:
            reports.append(self._close_current_window())
        self._current.setdefault(basket.customer_id, set()).update(basket.items)
        return reports

    def ingest_many(self, baskets: Iterable[Basket]) -> list[WindowCloseReport]:
        """Feed a day-ordered iterable of baskets."""
        reports: list[WindowCloseReport] = []
        for basket in baskets:
            reports.extend(self.ingest(basket))
        return reports

    def advance_to_day(self, day: int) -> list[WindowCloseReport]:
        """Advance the stream clock to ``day`` without ingesting a basket.

        Closes (and scores) every window that ends on or before ``day``,
        exactly as ingesting a basket dated ``day`` would, but leaves all
        per-customer item sets untouched.  This is what keeps a pool of
        customer-partitioned monitors aligned: every shard sees every
        day of the stream, even days on which none of *its* customers
        shopped, so all shards close the same windows at the same time
        (see :class:`repro.serve.ShardedMonitorPool`).

        Raises
        ------
        DataError
            If ``day`` regresses, lies outside the grid, or the monitor
            is already finished.
        """
        if self._finished:
            raise DataError("monitor already finished")
        window = self.grid.window_of_day(day)
        if window is None:
            raise DataError(f"day {day} is outside the monitor's grid")
        if day < self._last_day_seen:
            raise DataError(
                f"the stream clock must advance in day order: got day "
                f"{day} after day {self._last_day_seen}"
            )
        self._last_day_seen = day
        reports = []
        while self._current_window < window:
            reports.append(self._close_current_window())
        return reports

    def finish(self) -> list[WindowCloseReport]:
        """Close every remaining window and end the stream."""
        if self._finished:
            return []
        reports = []
        while self._current_window < self.grid.n_windows:
            reports.append(self._close_current_window())
        self._finished = True
        return reports

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Columns:
        """The monitor's state as columns plus a header, through the one
        snapshot codec (:func:`repro.runtime.snapshot.snapshot_monitor`).

        Raises
        ------
        SnapshotError
            If the significance rule is not the paper's exponential one
            (custom rules have no stable wire format).
        """
        from repro.runtime.snapshot import snapshot_monitor

        return snapshot_monitor(self)

    @classmethod
    def from_snapshot(cls, columns: Columns) -> StabilityMonitor:
        """Rebuild a monitor from :meth:`snapshot`; it then emits exactly
        the reports the snapshotted monitor would have.

        Raises
        ------
        SnapshotError
            If the snapshot is corrupt or from an incompatible version.
        """
        from repro.runtime.snapshot import restore_monitor

        return restore_monitor(columns)

    # ------------------------------------------------------------------
    # Explanation
    # ------------------------------------------------------------------
    def explain_alarm(self, customer_id: int, top_k: int = 5) -> list[tuple[int, float]]:
        """Most significant items missing from the customer's last closed
        window, as ``(item, significance)`` pairs.

        The monitor keeps one window of evidence, so this explains the most
        recent :class:`WindowCloseReport` (where the alarm fired).

        Raises
        ------
        DataError
            If the customer has never appeared in the stream.
        """
        position, found = _lookup(self._ids, np.asarray([customer_id], dtype=np.int64))
        if not found[0]:
            if customer_id in self._current:
                return []  # registered in the open window: nothing closed yet
            raise DataError(f"customer {customer_id} not in the stream")
        row = int(position[0])
        lo, hi = int(self._offsets[row]), int(self._offsets[row + 1])
        items, missing = self._items[lo:hi], self._missing[lo:hi]
        # Highest significance first, ties by item; 0 means "was kept".
        ranked = np.lexsort((items, -missing))[:top_k]
        return [(int(items[i]), float(missing[i])) for i in ranked if missing[i] > 0]

    # ------------------------------------------------------------------
    # Window close
    # ------------------------------------------------------------------
    def _close_current_window(self) -> WindowCloseReport:
        """Score every customer at the open window, then fold it in: one
        significance call over the CSR (any non-exponential rule applied
        element-wise) and segment sums of total and kept mass in CSR order.
        """
        window_index = self._current_window
        current, self._current = self._current, {}
        shoppers = np.fromiter(sorted(current), dtype=np.int64, count=len(current))
        self._add_rows(shoppers)
        ids, offsets = self._ids, self._offsets
        lengths = np.diff(offsets)

        # The open window's (row, item) pairs, sorted: rows ascend with
        # the shopper ids and each shopper's items are sorted.
        item_lists = [sorted(current[cid]) for cid in shoppers.tolist()]
        window_items = np.fromiter(  # OverflowError past 32-bit item ids
            itertools.chain.from_iterable(item_lists),
            dtype=np.int32,
            count=sum(len(items) for items in item_lists),
        )
        window_rows = np.repeat(
            np.searchsorted(ids, shoppers), [len(items) for items in item_lists]
        )
        window_keys = _pair_keys(window_rows, window_items)
        entry_rows = np.repeat(np.arange(ids.size), lengths)
        position, kept = _lookup(window_keys, _pair_keys(entry_rows, self._items))

        # Prior windows k per entry, so that l = k - c: windows since
        # registration ("paper"), or since the item's first purchase.
        if self.counting == "paper":
            prior = np.repeat(self._n_windows, lengths)
        else:
            prior = window_index - self._first_seen
        if isinstance(self.significance, ExponentialSignificance):
            significance = significance_from_counts(
                self._counts, prior, self.significance.alpha
            )
        else:
            rule = self.significance
            significance = np.array(
                [
                    rule(c, k - c)
                    for c, k in zip(self._counts.tolist(), prior.tolist(), strict=True)
                ],
                dtype=np.float64,
            )
        total = _segment_sum(significance, offsets)
        kept_mass = _segment_sum(significance * kept, offsets)
        with np.errstate(divide="ignore", invalid="ignore"):
            stability = np.where(total > 0, kept_mass / total, np.nan)

        stabilities = dict(zip(ids.tolist(), stability.tolist(), strict=True))
        alarms: tuple[Alarm, ...] = ()
        if window_index >= self.first_alarm_window:
            flagged = stability <= self.beta  # nan never alarms
            alarm_ids, alarm_values = ids[flagged], stability[flagged]
            alarms = tuple(
                Alarm(customer_id=cid, window_index=window_index, stability=value)
                for cid, value in zip(
                    alarm_ids.tolist(), alarm_values.tolist(), strict=True
                )
            )
            self._alarm_customer = np.concatenate((self._alarm_customer, alarm_ids))
            self._alarm_window = np.concatenate(
                (self._alarm_window, np.full(alarm_ids.size, window_index, np.int32))
            )
            self._alarm_stability = np.concatenate(
                (self._alarm_stability, alarm_values)
            )
        report = WindowCloseReport(
            window_index=window_index, stabilities=stabilities, alarms=alarms
        )

        # Fold the window in: kept items count once more; new items join
        # the end of their customer's segment (first seen now, in item
        # order), which keeps every segment in (first-seen, item) order.
        self._last_stability = stability
        self._n_windows = self._n_windows + 1
        new = np.ones(window_keys.size, dtype=bool)
        new[position[kept]] = False
        counts_after = self._counts + kept.astype(np.int32)
        missing = np.where(kept, 0.0, significance)
        if new.any():
            new_rows = window_rows[new]
            at = offsets[new_rows + 1]
            self._items = np.insert(self._items, at, window_items[new])
            counts_after = np.insert(counts_after, at, 1)
            self._first_seen = np.insert(self._first_seen, at, window_index)
            missing = np.insert(missing, at, 0.0)
            added = np.bincount(new_rows, minlength=ids.size)
            self._offsets = offsets + np.concatenate(([0], np.cumsum(added)))
        self._counts = counts_after
        self._missing = missing
        self._current_window += 1
        return report

    def _add_rows(self, customer_ids: np.ndarray) -> None:
        """Insert empty rows for the (sorted) ids not yet in the state."""
        _, known = _lookup(self._ids, customer_ids)
        fresh = customer_ids[~known]
        if not fresh.size:
            return
        at = np.searchsorted(self._ids, fresh)
        self._ids = np.insert(self._ids, at, fresh)
        self._n_windows = np.insert(self._n_windows, at, 0)
        self._last_stability = np.insert(self._last_stability, at, np.nan)
        self._offsets = np.insert(self._offsets, at, self._offsets[at])
