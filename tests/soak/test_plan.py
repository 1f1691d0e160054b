"""Tests for the frozen soak/chaos value objects (repro.soak.plan)."""

from __future__ import annotations

import errno

import pytest

from repro.errors import ConfigError
from repro.soak.plan import (
    CHAOS_SITES,
    SITE_CKPT_IO,
    SITE_KILL_RESUME,
    SITE_TEAR_CURSOR,
    SITE_TEAR_STATE,
    ChaosSchedule,
    SoakPlan,
)


class TestSoakPlanValidation:
    def test_defaults_are_valid(self):
        plan = SoakPlan()
        assert plan.mode == "loops"
        assert plan.loops == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            SoakPlan(mode="forever")

    def test_duration_mode_needs_positive_duration(self):
        with pytest.raises(ConfigError, match="duration_s"):
            SoakPlan(mode="duration", duration_s=0.0)
        assert SoakPlan(mode="duration", duration_s=5.0).duration_s == 5.0

    def test_loops_must_be_positive(self):
        with pytest.raises(ConfigError, match="loops"):
            SoakPlan(loops=0)

    def test_rate_must_be_positive_when_set(self):
        with pytest.raises(ConfigError, match="rate"):
            SoakPlan(rate=0.0)
        assert SoakPlan(rate=None).rate is None

    def test_slo_budgets_must_be_non_decreasing(self):
        with pytest.raises(ConfigError, match="non-decreasing"):
            SoakPlan(slo_p50_ms=100.0, slo_p99_ms=50.0)

    def test_slo_budgets_must_be_positive(self):
        with pytest.raises(ConfigError, match="slo_p99_ms"):
            SoakPlan(slo_p99_ms=-1.0)

    def test_slo_budgets_ms_collects_only_set_budgets(self):
        plan = SoakPlan(slo_p95_ms=40.0, slo_p99_ms=60.0)
        assert plan.slo_budgets_ms() == {"p95": 40.0, "p99": 60.0}

    def test_min_throughput_must_be_positive(self):
        with pytest.raises(ConfigError, match="min_throughput"):
            SoakPlan(min_throughput=0.0)


class TestSoakPlanFromMapping:
    def test_coerces_types(self):
        plan = SoakPlan.from_mapping(
            {"mode": " LOOPS ", "loops": "3", "rate": "250", "n_shards": "2"}
        )
        assert plan.mode == "loops"
        assert plan.loops == 3
        assert plan.rate == 250.0
        assert plan.n_shards == 2

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="p99_budget"):
            SoakPlan.from_mapping({"p99_budget": 10})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            SoakPlan.from_mapping([1, 2, 3])


class TestChaosScheduleValidation:
    def test_cells_sorted_by_batch(self):
        schedule = ChaosSchedule(
            kills=(5,), torn_cursors=(1,), io_errors=((3, errno.ENOSPC),)
        )
        assert [(c.batch, c.site) for c in schedule.cells()] == [
            (1, SITE_TEAR_CURSOR),
            (3, SITE_CKPT_IO),
            (5, SITE_KILL_RESUME),
        ]

    def test_duplicate_cell_named(self):
        with pytest.raises(
            ConfigError, match=r"duplicate chaos cell \(batch 2, site kill_resume\)"
        ):
            ChaosSchedule(kills=(2, 2))

    def test_conflicting_cells_named(self):
        with pytest.raises(
            ConfigError, match="conflicting chaos cells at batch 3"
        ):
            ChaosSchedule(kills=(3,), torn_cursors=(3,))

    def test_batches_are_one_based(self):
        with pytest.raises(ConfigError, match="1-based"):
            ChaosSchedule(kills=(0,))

    def test_io_errno_must_be_positive(self):
        with pytest.raises(ConfigError, match="errno"):
            ChaosSchedule(io_errors=((2, 0),))

    def test_max_batch_and_n_faults(self):
        schedule = ChaosSchedule(kills=(4,), torn_state=(9,))
        assert schedule.max_batch == 9
        assert schedule.n_faults == 2
        assert ChaosSchedule().max_batch == 0


class TestSmokeSchedule:
    def test_covers_every_site_given_enough_batches(self):
        schedule = ChaosSchedule.smoke(10)
        assert schedule.sites() == CHAOS_SITES
        assert schedule.n_faults == len(CHAOS_SITES)
        # One fault per batch, batches 1..4, tear_cursor first so its
        # restart-from-head fallback reworks exactly one batch.
        assert [(c.batch, c.site) for c in schedule.cells()] == list(
            enumerate(CHAOS_SITES, start=1)
        ) == [
            (1, SITE_TEAR_CURSOR),
            (2, SITE_KILL_RESUME),
            (3, SITE_CKPT_IO),
            (4, SITE_TEAR_STATE),
        ]

    def test_truncates_to_available_batches(self):
        schedule = ChaosSchedule.smoke(2)
        assert schedule.sites() == (SITE_TEAR_CURSOR, SITE_KILL_RESUME)
        assert schedule.max_batch == 2

    def test_needs_at_least_one_batch(self):
        with pytest.raises(ConfigError, match=">= 1 batch"):
            ChaosSchedule.smoke(0)
