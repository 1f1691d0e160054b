"""Tests for the flight recorder: bounded ring, atomic flush, reader."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError, SchemaError
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FLIGHT_VERSION,
    FlightRecorder,
    read_flight_jsonl,
)


class TestRing:
    def test_capacity_bounds_the_ring(self):
        recorder = FlightRecorder("unused", capacity=3)
        for i in range(10):
            recorder.record_event("tick", i=i)
        assert len(recorder) == 3

    def test_oldest_records_fall_off_first(self, tmp_path):
        recorder = FlightRecorder(tmp_path, capacity=2)
        for i in range(4):
            recorder.record_event("tick", i=i)
        _, records = read_flight_jsonl(recorder.trigger("fault:kill_resume"))
        assert [r["i"] for r in records] == [2, 3]

    def test_record_kinds(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        recorder.record_event("leg_started", leg=1)
        recorder.record_metrics({"schema": "repro-metrics-window"})
        recorder.record_span({"name": "serve.batch"})
        _, records = read_flight_jsonl(recorder.trigger("cursor_invalid"))
        assert [r["kind"] for r in records] == ["event", "metrics", "span"]

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigError):
            FlightRecorder("unused", capacity=0)


class TestTrigger:
    def test_artifact_named_by_commit_index(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        recorder.record_event("e")
        path = recorder.trigger("fault:ckpt_io", commit_index=17)
        assert path.name == "flight-0017.jsonl"
        assert path.parent == tmp_path

    def test_header_names_reason_and_commit(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        recorder.record_event("e")
        header, records = read_flight_jsonl(
            recorder.trigger("slo_violation:p99", commit_index=4)
        )
        assert header["schema"] == FLIGHT_SCHEMA
        assert header["version"] == FLIGHT_VERSION
        assert header["reason"] == "slo_violation:p99"
        assert header["commit_index"] == 4
        assert header["records"] == len(records) == 1

    def test_repeat_triggers_never_overwrite(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        recorder.record_event("first")
        first = recorder.trigger("fault:ckpt_io", commit_index=2)
        recorder.record_event("second")
        second = recorder.trigger("fault:ckpt_io", commit_index=2)
        assert first != second
        assert first.exists() and second.exists()
        assert recorder.flushed == [first, second]

    def test_flush_is_whole_lines(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        for i in range(5):
            recorder.record_event("tick", i=i)
        path = recorder.trigger("fault:tear_state")
        lines = path.read_text().splitlines()
        assert len(lines) == 6  # header + ring
        for line in lines:
            json.loads(line)  # every line parses on its own

    def test_empty_ring_still_flushes_a_header(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        header, records = read_flight_jsonl(recorder.trigger("cursor_invalid"))
        assert header["records"] == 0
        assert records == []


class TestReader:
    def test_missing_file_raises_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            read_flight_jsonl(tmp_path / "nope.jsonl")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_flight_jsonl(path)

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "repro-flight"}\n{torn\n')
        with pytest.raises(SchemaError, match="corrupt"):
            read_flight_jsonl(path)

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"schema": "something-else"}\n')
        with pytest.raises(SchemaError, match="not a flight artifact"):
            read_flight_jsonl(path)
