"""Tests for the status/score API (socket-free handle + real HTTP)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.streaming import StabilityMonitor
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.serve import StatusBoard, StatusServer, serve_stream

BATCH = 200


def _scored_board() -> StatusBoard:
    """A board fed from a real monitor snapshot: customer 7 alarms at
    window 1 (stability 0.5), customer 1 first shops there (``nan``)."""
    monitor = StabilityMonitor(WindowGrid.daily(total_days=30, days_per_window=10))
    monitor.ingest_many(
        [Basket.of(7, 0, [1, 2]), Basket.of(1, 12, [3]), Basket.of(7, 12, [2])]
    )
    monitor.advance_to_day(21)
    board = StatusBoard()
    board.set_scores([monitor.snapshot()])
    return board


class TestStatusBoard:
    def test_initial_state(self):
        board = StatusBoard()
        status = board.status()
        assert status["phase"] == "starting"
        assert status["counters"] == {
            "ingested": 0,
            "scored": 0,
            "flagged": 0,
            "checkpointed": 0,
        }
        assert status["customers_tracked"] == 0

    def test_handle_routes(self):
        board = _scored_board()
        board.set_phase("serving")
        code, payload = board.handle("/status")
        assert code == 200
        assert payload["phase"] == "serving"
        assert payload["customers_tracked"] == 2
        code, payload = board.handle("/")
        assert code == 200
        code, payload = board.handle("/customers/7")
        assert code == 200
        assert payload == {
            "customer_id": 7,
            "stability": 0.5,
            "flagged": True,
            "alarm_windows": [[1, 0.5]],
        }

    def test_handle_rejections(self):
        board = _scored_board()
        assert board.handle("/customers/99")[0] == 404
        assert board.handle("/customers/8")[0] == 404
        assert board.handle("/customers/abc")[0] == 404
        assert board.handle("/manifest")[0] == 404
        assert board.handle("/nonsense")[0] == 404

    def test_nan_stability_is_null(self):
        board = _scored_board()
        assert board.customer(1) == {
            "stability": None,
            "flagged": False,
            "alarm_windows": [],
        }

    def test_manifest_route_after_set(self):
        board = StatusBoard()
        board.set_manifest({"experiment": "serve"})
        code, payload = board.handle("/manifest")
        assert code == 200
        assert payload["experiment"] == "serve"


class TestServeUpdatesBoard:
    def test_loop_keeps_board_current(
        self, stream_path, serve_config, tmp_path
    ):
        board = StatusBoard()
        result = serve_stream(
            stream_path,
            tmp_path / "ckpt",
            config=serve_config,
            batch_size=BATCH,
            status=board,
        )
        status = board.status()
        assert status["phase"] == "finished"
        assert status["counters"] == result.counters.as_dict()
        assert status["checkpoint"]["finished"] is True
        assert status["customers_tracked"] == len(result.scores)
        assert status["run"]["n_shards"] == 1
        assert board.handle("/manifest")[0] == 200
        # Per-customer scores match the result table.
        for cid, stability in result.scores.items():
            record = board.customer(cid)
            assert record["flagged"] == result.flags[cid]
            assert record["alarm_windows"] == [list(a) for a in result.alarm_windows[cid]]
            if record["stability"] is not None:
                assert record["stability"] == stability

    def test_interrupted_phase(self, stream_path, serve_config, tmp_path):
        board = StatusBoard()
        serve_stream(
            stream_path,
            tmp_path / "ckpt",
            config=serve_config,
            batch_size=BATCH,
            max_batches=2,
            status=board,
        )
        assert board.phase == "interrupted"


class TestHttpServer:
    def _get(self, base: str, path: str):
        with urllib.request.urlopen(base + path) as response:
            return json.load(response)

    def test_routes_over_real_sockets(self):
        board = _scored_board()
        board.set_phase("serving")
        with StatusServer(board, port=0) as server:
            assert server.port > 0
            base = f"http://127.0.0.1:{server.port}"
            status = self._get(base, "/status")
            assert status["phase"] == "serving"
            customer = self._get(base, "/customers/7")
            assert customer["customer_id"] == 7
            assert customer["flagged"] is True
            with pytest.raises(urllib.error.HTTPError) as missing:
                self._get(base, "/customers/99")
            assert missing.value.code == 404

    def test_stop_without_start_is_safe(self):
        server = StatusServer(StatusBoard(), port=0)
        server.stop()  # must not deadlock or raise

    def test_stop_is_idempotent(self):
        server = StatusServer(StatusBoard(), port=0)
        server.start()
        server.stop()
        server.stop()
