"""Shared serving fixtures: a recorded stream plus its offline reference.

Session-scoped because recording and the offline sweep are each a full
pass over the synthetic log; every test treats them as immutable.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import ExperimentConfig
from repro.core.streaming import StabilityMonitor
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.serve import OfflineSweep, offline_sweep_stream
from repro.synth import ScenarioConfig, generate_dataset
from repro.synth.stream import record_stream


@pytest.fixture(scope="session")
def serve_dataset():
    """A short study (10 months) so streams replay fast."""
    return generate_dataset(
        ScenarioConfig(n_loyal=20, n_churners=20, seed=3, n_months=10, onset_month=6)
    )


@pytest.fixture(scope="session")
def day_ordered_baskets(serve_dataset):
    return sorted(
        serve_dataset.log, key=lambda b: (b.day, b.customer_id)
    )


@pytest.fixture(scope="session")
def stream_path(serve_dataset, day_ordered_baskets, tmp_path_factory) -> Path:
    """A recorded stream of the whole synthetic log."""
    path = tmp_path_factory.mktemp("stream") / "stream.jsonl"
    return record_stream(
        day_ordered_baskets, path, calendar=serve_dataset.calendar
    )


@pytest.fixture(scope="session")
def serve_config() -> ExperimentConfig:
    return ExperimentConfig()


@pytest.fixture(scope="session")
def offline_reference(stream_path, serve_config) -> OfflineSweep:
    """The batch sweep every served run must match bit-for-bit."""
    return offline_sweep_stream(stream_path, config=serve_config)


@pytest.fixture()
def shard_snapshot():
    """A valid monitor snapshot: two customers, two windows closed, and
    customer 1 alarmed at window 1 (stability 0.5 at ``beta`` 0.5)."""
    monitor = StabilityMonitor(WindowGrid.daily(total_days=30, days_per_window=10))
    monitor.ingest_many(
        [
            Basket.of(1, 0, [1, 2]),
            Basket.of(2, 3, [5]),
            Basket.of(1, 12, [2]),
            Basket.of(2, 14, [5]),
            Basket.of(1, 21, [2]),
        ]
    )
    return monitor.snapshot()
