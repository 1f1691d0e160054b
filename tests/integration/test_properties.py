"""Cross-layer property tests (hypothesis).

These fuzz whole pipelines with randomly generated logs, pinning the
invariants that hold regardless of data:

* CSV serialisation round-trips exactly;
* the streaming monitor agrees with the batch model;
* a sharded monitor pool, snapshotted and restored at any point (in
  memory or through a serve checkpoint), is bit-identical to one
  un-snapshotted monitor and agrees with the incremental engine;
* the batch engine agrees with the incremental one end to end;
* stability stays in [0, 1] through the full model facade;
* abstraction (product -> segment) never increases the item universe.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.streaming import StabilityMonitor
from repro.data.basket import Basket
from repro.data.calendar import StudyCalendar
from repro.data.io import read_log_csv, write_log_csv
from repro.data.streams import iter_day_batches
from repro.data.transactions import TransactionLog
from repro.serve import (
    ServeCheckpoint,
    ServeCursor,
    ShardedMonitorPool,
    score_fingerprint,
    shard_of,
)
from repro.serve.loop import _freeze

# A 6-month mini-study keeps the fuzzing fast while covering several windows.
_CALENDAR = StudyCalendar(n_months=6)

basket_strategy = st.builds(
    Basket.of,
    customer_id=st.integers(min_value=0, max_value=4),
    day=st.integers(min_value=0, max_value=_CALENDAR.n_days - 1),
    items=st.frozensets(st.integers(min_value=0, max_value=9), min_size=0, max_size=5),
    monetary=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)

log_strategy = st.lists(basket_strategy, min_size=1, max_size=40).map(TransactionLog)

_LATE_DAY = _CALENDAR.n_days * 2 // 3


@st.composite
def serving_log_strategy(draw) -> TransactionLog:
    """Logs mixing the serving edge cases: ordinary customers (with the
    empty windows and empty baskets a sparse log brings), customers whose
    first purchase is late in the study, and single-item customers."""
    days = st.integers(min_value=0, max_value=_CALENDAR.n_days - 1)
    items = st.frozensets(st.integers(min_value=0, max_value=9), max_size=4)
    baskets = draw(
        st.lists(
            st.builds(
                Basket.of,
                customer_id=st.integers(min_value=0, max_value=5),
                day=days,
                items=items,
            ),
            max_size=30,
        )
    )
    baskets += draw(
        st.lists(
            st.builds(
                Basket.of,
                customer_id=st.just(6),
                day=st.integers(min_value=_LATE_DAY, max_value=_CALENDAR.n_days - 1),
                items=items,
            ),
            max_size=5,
        )
    )
    only_item = draw(st.integers(min_value=0, max_value=9))
    baskets += [
        Basket.of(customer_id=7, day=day, items=[only_item])
        for day in draw(st.lists(days, max_size=6))
    ]
    if not baskets:
        baskets = [Basket.of(customer_id=0, day=draw(days), items=[only_item])]
    return TransactionLog(baskets)


def _bits(reports) -> list:
    """Reports with every stability as its exact bit pattern."""
    return [
        (
            r.window_index,
            {customer: value.hex() for customer, value in r.stabilities.items()},
            r.alarms,
        )
        for r in reports
    ]


class TestSerialisationProperties:
    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy)
    def test_csv_round_trip_exact(self, log: TransactionLog, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "log.csv"
        write_log_csv(log, path)
        restored = read_log_csv(path)
        assert restored.n_baskets == log.n_baskets
        for customer in log.customers():
            # Monetary values round-trip bit-exactly: the writer emits
            # full repr precision, not a rounded fixed-point format.
            original = [
                (b.day, b.items, b.monetary) for b in log.history(customer)
            ]
            back = [
                (b.day, b.items, b.monetary) for b in restored.history(customer)
            ]
            assert back == original


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy)
    def test_streaming_matches_batch(self, log: TransactionLog):
        model = StabilityModel(_CALENDAR, window_months=1).fit(log)
        monitor = StabilityMonitor(model.grid)
        for customer in log.customers():
            monitor.register(customer)
        reports = monitor.ingest_many(sorted(log, key=lambda b: b.day))
        reports += monitor.finish()
        by_window = {r.window_index: r for r in reports}
        for customer in log.customers():
            trajectory = model.trajectory(customer)
            for k in range(model.n_windows):
                batch = trajectory.at(k).stability
                streamed = by_window[k].stabilities[customer]
                if math.isnan(batch):
                    assert math.isnan(streamed)
                else:
                    assert streamed == pytest.approx(batch, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        log=serving_log_strategy(),
        # 1e150 and 1e300 push alpha ** (c - l) into the exp(700) cap.
        alpha=st.sampled_from([2.0, 8.0, 1e150, 1e300]),
        counting=st.sampled_from(["paper", "since-first-seen"]),
        n_shards=st.integers(min_value=1, max_value=4),
        resume_at=st.floats(min_value=0.0, max_value=1.0),
        through_checkpoint=st.booleans(),
        preregister=st.booleans(),
    )
    def test_sharded_resumed_pool_matches_monitor_and_incremental(
        self,
        log: TransactionLog,
        alpha,
        counting,
        n_shards,
        resume_at,
        through_checkpoint,
        preregister,
        tmp_path_factory,
    ):
        config = ExperimentConfig(window_months=1, alpha=alpha, counting=counting)
        baskets = sorted(log, key=lambda b: (b.day, b.customer_id))
        # Serving registers a customer at its first basket; registering
        # everyone up front scores from window 0 like the offline model.
        customers = log.customers() if preregister else []

        reference = StabilityMonitor.from_config(_CALENDAR, config)
        for customer in customers:
            reference.register(customer)
        expected = reference.ingest_many(baskets) + reference.finish()

        pool = ShardedMonitorPool.create(
            config.grid(_CALENDAR),
            n_shards=n_shards,
            significance=config.significance(),
            counting=config.counting,
        )
        for customer in customers:
            pool.monitors[shard_of(customer, n_shards)].register(customer)
        batches = list(iter_day_batches(baskets))
        cut = int(resume_at * len(batches))
        served = pool.process_batch(batches[:cut])
        if through_checkpoint:
            checkpoint = ServeCheckpoint(tmp_path_factory.mktemp("ckpt"))
            checkpoint.write_state(1, pool.snapshot_shards())
            checkpoint.commit(
                ServeCursor(
                    commit_index=1,
                    day_batches_consumed=cut,
                    counters={},
                    stream_fingerprint="stream",
                    serve_fingerprint="serve",
                    n_shards=n_shards,
                    finished=False,
                )
            )
            loaded = checkpoint.load(
                stream_fingerprint="stream",
                serve_fingerprint="serve",
                n_shards=n_shards,
            )
            assert loaded is not None
            pool = ShardedMonitorPool(loaded.monitors)
        else:
            pool = ShardedMonitorPool(
                [StabilityMonitor.from_snapshot(s) for s in pool.snapshot_shards()]
            )
        served += pool.process_batch(batches[cut:]) + pool.finish()
        assert _bits(served) == _bits(expected)
        # The alarm log, merged across shards in emission order, and the
        # served score dicts match the uninterrupted monitor's columns.
        shards, single = pool.snapshot_shards(), reference.snapshot()
        merged = {
            name: np.concatenate([shard[name] for shard in shards])
            for name in ("alarm_customer", "alarm_window", "alarm_stability")
        }
        order = np.lexsort((merged["alarm_customer"], merged["alarm_window"]))
        for name, column in merged.items():
            assert np.array_equal(column[order], single[name])
        assert score_fingerprint(*_freeze(shards)) == score_fingerprint(
            *_freeze([single])
        )

        if not preregister and counting == "paper":
            return  # absences before registration are not counted
        model = StabilityModel.from_config(_CALENDAR, config).fit(log)
        for report in served:
            for customer, value in report.stabilities.items():
                slow = model.trajectory(customer).at(report.window_index).stability
                assert math.isnan(value) == math.isnan(slow)
                if not math.isnan(slow):
                    assert value == pytest.approx(slow, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy, alpha=st.sampled_from([1.5, 2.0, 4.0, 8.0]))
    def test_batch_matches_incremental(self, log: TransactionLog, alpha):
        config = ExperimentConfig(window_months=1, alpha=alpha)
        slow = StabilityModel.from_config(_CALENDAR, config).fit(log)
        fast = StabilityModel.from_config(
            _CALENDAR, config.evolve(backend="batch")
        ).fit(log)
        assert fast.customers() == slow.customers()
        for customer in slow.customers():
            expected = slow.trajectory(customer).values()
            got = fast.trajectory(customer).values()
            assert [math.isnan(v) for v in got] == [
                math.isnan(v) for v in expected
            ]
            for a, b in zip(got, expected, strict=True):
                if not math.isnan(b):
                    assert a == pytest.approx(b, abs=1e-12)


class TestModelInvariants:
    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy, alpha=st.sampled_from([1.5, 2.0, 4.0]))
    def test_stability_bounded_through_facade(self, log: TransactionLog, alpha):
        model = StabilityModel(_CALENDAR, window_months=1, alpha=alpha).fit(log)
        for customer in model.customers():
            for value in model.trajectory(customer).values():
                assert math.isnan(value) or 0.0 <= value <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy)
    def test_churn_scores_bounded(self, log: TransactionLog):
        model = StabilityModel(_CALENDAR, window_months=1).fit(log)
        for k in range(model.n_windows):
            for score in model.churn_scores(k).values():
                assert 0.0 <= score <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy, modulus=st.integers(min_value=1, max_value=5))
    def test_abstraction_shrinks_universe(self, log: TransactionLog, modulus):
        lifted = log.abstracted(lambda i: i % modulus)
        assert len(lifted.item_universe()) <= len(log.item_universe())
        assert lifted.n_baskets == log.n_baskets
