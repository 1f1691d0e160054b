"""Tests for StabilityMonitor snapshot/restore.

The contract under test is the round-trip guarantee: interrupting a
stream at any point, snapshotting, restoring (even through the on-disk
``.npz`` codec) and feeding the rest of the stream must produce exactly
the reports an uninterrupted monitor produces.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.core.significance import LinearSignificance
from repro.core.streaming import StabilityMonitor, WindowCloseReport
from repro.errors import SnapshotError
from repro.runtime.faults import tear_file
from repro.runtime.snapshot import (
    SNAPSHOT_SCHEMA,
    SNAPSHOT_VERSION,
    pack_header,
    read_columns,
    restore_monitor,
    snapshot_monitor,
    write_columns,
)


def _stream(dataset):
    return sorted(dataset.log, key=lambda basket: basket.day)


def _assert_reports_equal(
    left: list[WindowCloseReport], right: list[WindowCloseReport]
) -> None:
    assert len(left) == len(right)
    for a, b in zip(left, right, strict=True):
        assert a.window_index == b.window_index
        assert a.alarms == b.alarms
        assert set(a.stabilities) == set(b.stabilities)
        for customer, value in a.stabilities.items():
            other = b.stabilities[customer]
            if math.isnan(value):
                assert math.isnan(other)
            else:
                assert value == other


def _monitor(dataset) -> StabilityMonitor:
    config = ExperimentConfig(window_months=2, alpha=2.0)
    return StabilityMonitor.from_config(dataset.calendar, config, beta=0.5)


def _with_header(columns, **changes):
    header = {
        "schema": SNAPSHOT_SCHEMA,
        "version": SNAPSHOT_VERSION,
        **changes,
    }
    return dict(columns, header=pack_header(header))


def test_round_trip_mid_stream(tiny_dataset, tmp_path):
    baskets = _stream(tiny_dataset)
    cut = len(baskets) // 2

    reference = _monitor(tiny_dataset)
    expected = reference.ingest_many(baskets)
    expected += reference.finish()

    interrupted = _monitor(tiny_dataset)
    head_reports = interrupted.ingest_many(baskets[:cut])
    # Snapshot through the file codec — what a checkpoint sees.
    path = write_columns(tmp_path / "monitor.npz", interrupted.snapshot())
    restored = StabilityMonitor.from_snapshot(read_columns(path))
    tail_reports = restored.ingest_many(baskets[cut:])
    tail_reports += restored.finish()

    _assert_reports_equal(head_reports + tail_reports, expected)
    # The alarm log survives the restart and keeps appending.
    alarms = [(a.customer_id, a.window_index, a.stability) for r in expected for a in r.alarms]
    assert alarms, "fixture raises no alarms"
    snapshot = restored.snapshot()
    logged = zip(
        snapshot["alarm_customer"].tolist(),
        snapshot["alarm_window"].tolist(),
        snapshot["alarm_stability"].tolist(),
        strict=True,
    )
    assert list(logged) == alarms
    # Alarm evidence survives the restart too.
    for customer in reference.customers():
        assert restored.explain_alarm(customer) == reference.explain_alarm(
            customer
        )


def test_save_load_file(tiny_dataset, tmp_path):
    baskets = _stream(tiny_dataset)
    monitor = _monitor(tiny_dataset)
    monitor.ingest_many(baskets[: len(baskets) // 3])
    path = write_columns(tmp_path / "monitor.npz", monitor.snapshot())
    restored = StabilityMonitor.from_snapshot(read_columns(path))
    assert restored.current_window == monitor.current_window
    assert restored.customers() == monitor.customers()
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
    assert leftovers == []


def test_torn_snapshot_detected(tiny_dataset, tmp_path):
    monitor = _monitor(tiny_dataset)
    monitor.ingest_many(_stream(tiny_dataset)[:20])
    path = write_columns(tmp_path / "monitor.npz", monitor.snapshot())
    tear_file(path, keep_fraction=0.6)
    with pytest.raises(SnapshotError, match="corrupt or truncated"):
        read_columns(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(SnapshotError, match="cannot read"):
        read_columns(tmp_path / "absent.npz")


def test_version_and_schema_validation(tiny_dataset):
    monitor = _monitor(tiny_dataset)
    monitor.ingest_many(_stream(tiny_dataset)[:10])
    payload = snapshot_monitor(monitor)

    wrong_schema = _with_header(payload, schema="something-else")
    with pytest.raises(SnapshotError, match="schema"):
        restore_monitor(wrong_schema)

    wrong_version = _with_header(payload, version=SNAPSHOT_VERSION + 1)
    with pytest.raises(
        SnapshotError,
        match=(
            f"found version {SNAPSHOT_VERSION + 1}, "
            f"expected version {SNAPSHOT_VERSION}"
        ),
    ):
        restore_monitor(wrong_version)

    without_ids = {k: v for k, v in payload.items() if k != "customer_id"}
    with pytest.raises(SnapshotError, match="customer_id"):
        restore_monitor(without_ids)


def test_malformed_pairs_rejected(tiny_dataset):
    """The CSR's item/count columns must pair up entry for entry."""
    monitor = _monitor(tiny_dataset)
    monitor.ingest_many(_stream(tiny_dataset)[:10])
    monitor.finish()
    payload = snapshot_monitor(monitor)
    payload["count"] = np.append(payload["count"], np.int32(1))
    with pytest.raises(SnapshotError, match="'count'.* do not fit the CSR 'offsets'"):
        restore_monitor(payload)
    payload = snapshot_monitor(monitor)
    payload["item"] = payload["item"].astype(np.int64)
    with pytest.raises(SnapshotError, match="'item' has dtype int64"):
        restore_monitor(payload)
    payload = snapshot_monitor(monitor)
    payload["alarm_window"] = np.append(payload["alarm_window"], np.int32(3))
    with pytest.raises(SnapshotError, match="'alarm_stability'.* differ in length"):
        restore_monitor(payload)


def test_custom_significance_refused(tiny_dataset):
    config = ExperimentConfig(window_months=2)
    grid = config.grid(tiny_dataset.calendar)
    monitor = StabilityMonitor(grid, significance=LinearSignificance())
    with pytest.raises(SnapshotError, match="LinearSignificance"):
        monitor.snapshot()
