"""Customer-sharded monitor pool, bit-identical to a single monitor.

:class:`ShardedMonitorPool` partitions customers across ``n_shards``
independent :class:`~repro.core.streaming.StabilityMonitor` instances
(``customer_id % n_shards``) and plays each checkpoint batch through
every shard in-process.  The shard count fixes the checkpoint layout
(one state file per shard); it is not a parallelism lever.  Closing a
window costs milliseconds per shard, so shipping a shard's state to a
worker process costs more than the work it would move.

The pool preserves the serving layer's headline invariant — sharded
scoring is **bit-identical** to a single monitor over the same stream —
through two properties:

* every shard's clock advances through *every* day of the stream
  (:meth:`StabilityMonitor.advance_to_day`), so all shards close the
  same windows at the same stream positions even on days none of their
  customers shopped;
* a customer's state is content-determined (each window's item set
  merges into its CSR segment sorted), so the basket interleaving *across*
  customers never affects any one customer's scores.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core.detector import Alarm
from repro.core.streaming import StabilityMonitor, WindowCloseReport
from repro.data.basket import Basket
from repro.data.streams import DayBatch
from repro.errors import ConfigError
from repro.runtime.snapshot import Columns, snapshot_monitor

if TYPE_CHECKING:
    from repro.core.significance import SignificanceFunction
    from repro.core.windowing import WindowGrid

__all__ = ["ShardedMonitorPool", "shard_of", "merge_reports"]

def shard_of(customer_id: int, n_shards: int) -> int:
    """The shard owning a customer (stable hash: ``id % n_shards``)."""
    return customer_id % n_shards


def merge_reports(
    per_shard: Sequence[Sequence[WindowCloseReport]],
) -> list[WindowCloseReport]:
    """Merge per-shard window-close reports into the single-monitor view.

    Shards close the same windows (the pool keeps their clocks aligned)
    and own disjoint customers, so the merge is a union: stabilities
    keyed in ascending customer order and alarms sorted by customer id —
    exactly the order a single monitor (which iterates its customers
    sorted) would have produced.
    """
    by_window: dict[int, list[WindowCloseReport]] = {}
    for shard_reports in per_shard:
        for report in shard_reports:
            by_window.setdefault(report.window_index, []).append(report)
    merged = []
    for window_index in sorted(by_window):
        stabilities: dict[int, float] = {}
        alarms: list[Alarm] = []
        for report in by_window[window_index]:
            stabilities.update(report.stabilities)
            alarms.extend(report.alarms)
        merged.append(
            WindowCloseReport(
                window_index=window_index,
                stabilities=dict(sorted(stabilities.items())),
                alarms=tuple(sorted(alarms, key=lambda a: a.customer_id)),
            )
        )
    return merged


class ShardedMonitorPool:
    """``n_shards`` customer-partitioned monitors behind one batch API.

    Parameters
    ----------
    monitors:
        One :class:`StabilityMonitor` per shard, identically configured
        and clock-aligned (shard ``i`` owns customers with
        ``customer_id % n_shards == i``).
    """

    def __init__(self, monitors: Sequence[StabilityMonitor]) -> None:
        if not monitors:
            raise ConfigError("a monitor pool needs at least one shard")
        self.monitors = list(monitors)

    @property
    def n_shards(self) -> int:
        return len(self.monitors)

    @classmethod
    def create(
        cls,
        grid: WindowGrid,
        *,
        n_shards: int = 1,
        beta: float = 0.5,
        significance: SignificanceFunction | None = None,
        counting: str = "paper",
        first_alarm_window: int = 0,
    ) -> ShardedMonitorPool:
        """Build a fresh pool of identically configured shard monitors."""
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        monitors = [
            StabilityMonitor(
                grid,
                beta=beta,
                significance=significance,
                counting=counting,
                first_alarm_window=first_alarm_window,
            )
            for _ in range(n_shards)
        ]
        return cls(monitors)

    def snapshot_shards(self) -> list[Columns]:
        """One monitor snapshot per shard, in shard order."""
        return [snapshot_monitor(monitor) for monitor in self.monitors]

    def customers(self) -> list[int]:
        """Sorted ids of customers seen so far, across all shards."""
        seen: set[int] = set()
        for monitor in self.monitors:
            seen.update(monitor.customers())
        return sorted(seen)

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------
    def process_batch(
        self, batches: Sequence[DayBatch]
    ) -> list[WindowCloseReport]:
        """Play a group of day batches through every shard; merged reports.

        Raises
        ------
        DataError
            If the batches regress the stream clock or leave the grid
            (from the underlying monitors).
        """
        per_shard: list[list[WindowCloseReport]] = [
            [] for _ in self.monitors
        ]
        for batch in batches:
            split: list[list[Basket]] = [[] for _ in self.monitors]
            for basket in batch.baskets:
                split[shard_of(basket.customer_id, self.n_shards)].append(
                    basket
                )
            for shard, monitor in enumerate(self.monitors):
                for basket in split[shard]:
                    per_shard[shard].extend(monitor.ingest(basket))
                per_shard[shard].extend(monitor.advance_to_day(batch.day))
        return merge_reports(per_shard)

    def finish(self) -> list[WindowCloseReport]:
        """Close every remaining window on every shard; merged reports."""
        return merge_reports([monitor.finish() for monitor in self.monitors])
