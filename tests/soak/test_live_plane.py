"""Tests for the live telemetry plane under soak: flight triggers,
publisher wiring, the overhead pin."""

from __future__ import annotations

import pytest

from repro.obs import (
    FlightRecorder,
    MetricsPublisher,
    parse_prometheus,
    read_flight_jsonl,
)
from repro.serve import StatusBoard
from repro.soak import (
    TELEMETRY_OVERHEAD_BUDGET_PCT,
    ChaosSchedule,
    SoakPlan,
    live_plane_overhead,
    run_soak,
)

BATCH = 120


def _plane(tmp_path):
    board = StatusBoard()
    flight = FlightRecorder(tmp_path / "flight")
    publisher = MetricsPublisher(
        board=board,
        flight=flight,
        stream_path=tmp_path / "metrics-stream.jsonl",
        interval_s=0.0,
    )
    return publisher, board, flight


class TestFaultsFlushFlights:
    def test_each_injected_fault_triggers_an_artifact(
        self, soak_stream, tmp_path, soak_config
    ):
        publisher, board, flight = _plane(tmp_path)
        chaos = ChaosSchedule(
            torn_cursors=(1,), kills=(2,), torn_state=(3,)
        )
        plan = SoakPlan(batch_size=BATCH)
        report = run_soak(
            soak_stream,
            tmp_path / "soak",
            plan,
            chaos,
            config=soak_config,
            status=board,
            publisher=publisher,
        )
        assert report.passed
        assert report.faults_injected == len(chaos.cells())
        assert len(flight.flushed) >= len(chaos.cells())
        reasons = [read_flight_jsonl(p)[0]["reason"] for p in flight.flushed]
        for cell in chaos.cells():
            assert f"fault:{cell.site}" in reasons

    def test_flight_artifact_names_the_fault_cell(
        self, soak_stream, tmp_path, soak_config
    ):
        publisher, board, flight = _plane(tmp_path)
        chaos = ChaosSchedule(kills=(2,))
        plan = SoakPlan(batch_size=BATCH)
        run_soak(
            soak_stream,
            tmp_path / "soak",
            plan,
            chaos,
            config=soak_config,
            publisher=publisher,
        )
        site_flushes = [
            (header, records)
            for header, records in (
                read_flight_jsonl(p) for p in flight.flushed
            )
            if str(header["reason"]).startswith("fault:")
        ]
        assert site_flushes
        header, records = site_flushes[0]
        fault_events = [
            r
            for r in records
            if r.get("kind") == "event" and r.get("event") == "fault_injected"
        ]
        assert fault_events
        assert f"fault:{fault_events[-1]['site']}" == header["reason"]
        assert fault_events[-1]["batch"] == header["commit_index"]


class TestSloViolationFlushes:
    def test_violation_triggers_flight_and_burn_budgets(
        self, soak_stream, tmp_path, soak_config
    ):
        publisher, _, flight = _plane(tmp_path)
        plan = SoakPlan(batch_size=BATCH, slo_p99_ms=1e-6)
        report = run_soak(
            soak_stream,
            tmp_path / "soak",
            plan,
            None,
            config=soak_config,
            publisher=publisher,
        )
        assert not report.passed
        # The harness fills the publisher's budgets from the plan.
        assert publisher.slo_budgets_ms == plan.slo_budgets_ms()
        reasons = [read_flight_jsonl(p)[0]["reason"] for p in flight.flushed]
        assert any(str(r).startswith("slo_violation:") for r in reasons)


class TestBoardExposition:
    def test_soak_keeps_the_metrics_endpoint_current(
        self, soak_stream, tmp_path, soak_config
    ):
        publisher, board, _ = _plane(tmp_path)
        plan = SoakPlan(batch_size=BATCH)
        run_soak(
            soak_stream,
            tmp_path / "soak",
            plan,
            None,
            config=soak_config,
            status=board,
            publisher=publisher,
        )
        code, text = board.handle("/metrics")
        assert code == 200
        series = parse_prometheus(text)
        assert series["repro_serve_ingested_total"] > 0
        assert series["repro_soak_loops_total"] >= 1


class TestOverheadPin:
    def test_live_plane_is_bit_identical_and_cheap(
        self, soak_stream, soak_config
    ):
        # soak_config unused: the pin serves with default scoring, the
        # same on both sides, which is all bit-identity needs.
        verdict = live_plane_overhead(soak_stream, batch_size=BATCH, repeats=1)
        assert verdict["fingerprint"]
        assert verdict["off_s"] > 0 and verdict["on_s"] > 0
        assert verdict["budget_pct"] == TELEMETRY_OVERHEAD_BUDGET_PCT
        # Overhead comes from the publisher's accrued tick time, not a
        # wall-clock difference, so it is noise-immune enough to assert
        # even at a single repeat on a loaded CI box; bit-identity (no
        # SoakError raised) is the correctness half.
        assert verdict["tick_s"] > 0
        assert verdict["overhead_pct"] >= 0
        assert set(verdict) >= {"overhead_pct", "ok", "stream"}
        # The verdict goes through the shared noise rule: each plane-on
        # run is judged against itself minus its tick time.  One repeat
        # has no spread, so the floor is 0 and the raw figure stands.
        assert verdict["raw_overhead_pct"] == pytest.approx(
            verdict["tick_s"] / (verdict["on_s"] - verdict["tick_s"]) * 100.0
        )
        assert verdict["noise_floor_pct"] == 0.0
        assert verdict["noise_dominated"] is (verdict["raw_overhead_pct"] == 0.0)
        assert verdict["overhead_pct"] == verdict["raw_overhead_pct"]
        assert verdict["ok"] is (verdict["overhead_pct"] < verdict["budget_pct"])


@pytest.fixture(autouse=True)
def _no_registry_leak():
    from repro.obs import metrics as m

    yield
    assert m.get_metrics() is m.NULL_METRICS
