"""Tests for the serve checkpoint protocol (state dirs + atomic cursor)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.runtime.faults import tear_file
from repro.serve import CursorInvalid, ServeCheckpoint, ServeCursor
from repro.serve.checkpoint import CURSOR_SCHEMA, CURSOR_VERSION


def _cursor(**overrides) -> ServeCursor:
    base = dict(
        commit_index=3,
        day_batches_consumed=17,
        counters={"ingested": 100, "scored": 40, "flagged": 2, "checkpointed": 3},
        stream_fingerprint="aaaa",
        serve_fingerprint="bbbb",
        n_shards=2,
        finished=False,
    )
    base.update(overrides)
    return ServeCursor(**base)


def _write_checkpoint(tmp_path, cursor: ServeCursor, shard_snapshot) -> ServeCheckpoint:
    checkpoint = ServeCheckpoint(tmp_path / "ckpt")
    checkpoint.write_state(cursor.commit_index, [shard_snapshot] * cursor.n_shards)
    checkpoint.commit(cursor)
    return checkpoint


def _flip_bit(path) -> None:
    """Flip one bit of stored column data (silent media corruption).

    The target is the schema name inside the ``header`` column, which
    every state file stores verbatim; the archive's CRC must catch it.
    """
    data = bytearray(path.read_bytes())
    data[data.index(b"repro.") + 2] ^= 0x10
    path.write_bytes(bytes(data))


def _load(checkpoint: ServeCheckpoint, **overrides):
    kwargs = dict(
        stream_fingerprint="aaaa", serve_fingerprint="bbbb", n_shards=2
    )
    kwargs.update(overrides)
    return checkpoint.load(**kwargs)


class TestCursorCodec:
    def test_round_trip(self):
        cursor = _cursor()
        assert ServeCursor.from_payload(cursor.to_payload()) == cursor

    def test_version_drift_names_both_versions(self):
        payload = _cursor().to_payload()
        payload["version"] = CURSOR_VERSION + 1
        with pytest.raises(
            CursorInvalid,
            match=(
                f"found version {CURSOR_VERSION + 1}, "
                f"expected version {CURSOR_VERSION}"
            ),
        ):
            ServeCursor.from_payload(payload)

    def test_foreign_schema_rejected(self):
        payload = _cursor().to_payload()
        payload["schema"] = "something-else"
        with pytest.raises(CursorInvalid, match=CURSOR_SCHEMA):
            ServeCursor.from_payload(payload)

    def test_missing_field_rejected(self):
        payload = _cursor().to_payload()
        del payload["commit_index"]
        with pytest.raises(CursorInvalid, match="missing or malformed"):
            ServeCursor.from_payload(payload)


class TestCommitProtocol:
    def test_fresh_directory_loads_none(self, tmp_path):
        assert _load(ServeCheckpoint(tmp_path / "nothing")) is None

    def test_commit_then_load_round_trips(self, tmp_path, shard_snapshot):
        cursor = _cursor()
        checkpoint = _write_checkpoint(tmp_path, cursor, shard_snapshot)
        loaded = _load(checkpoint)
        assert loaded is not None
        assert loaded.cursor == cursor
        assert len(loaded.monitors) == 2
        for monitor in loaded.monitors:
            restored = monitor.snapshot()
            assert restored.keys() == shard_snapshot.keys()
            for name, column in shard_snapshot.items():
                assert np.array_equal(restored[name], column, equal_nan=True)
            assert monitor.customers() == [1, 2]
            # The scores and the alarm log ride in the shard columns.
            assert restored["last_stability"].tolist() == [0.5, 1.0]
            assert restored["alarm_customer"].tolist() == [1]
            assert restored["alarm_window"].tolist() == [1]
            assert restored["alarm_stability"].tolist() == [0.5]
        assert not loaded.orphaned_state

    def test_state_files_sit_flat_in_the_state_dir(
        self, tmp_path, shard_snapshot
    ):
        checkpoint = _write_checkpoint(tmp_path, _cursor(), shard_snapshot)
        assert sorted(p.name for p in checkpoint.state_dir(3).iterdir()) == [
            "shard-0000.npz",
            "shard-0001.npz",
        ]
        assert checkpoint.shard_path(3, 1).parent == checkpoint.state_dir(3)

    def test_commit_prunes_superseded_state(self, tmp_path, shard_snapshot):
        checkpoint = ServeCheckpoint(tmp_path / "ckpt")
        for commit in (1, 2, 3):
            checkpoint.write_state(commit, [shard_snapshot])
            checkpoint.commit(_cursor(commit_index=commit, n_shards=1))
        remaining = sorted(
            p.name for p in checkpoint.directory.glob("state-*")
        )
        assert remaining == ["state-000003"]

    def test_orphaned_state_dir_is_reported(self, tmp_path, shard_snapshot):
        cursor = _cursor()
        checkpoint = _write_checkpoint(tmp_path, cursor, shard_snapshot)
        # A crash after write_state but before commit leaves this behind.
        checkpoint.write_state(cursor.commit_index + 1, [shard_snapshot] * 2)
        loaded = _load(checkpoint)
        assert loaded is not None
        assert loaded.orphaned_state

    def test_counters_ride_inside_the_cursor(self, tmp_path, shard_snapshot):
        cursor = _cursor()
        loaded = _load(_write_checkpoint(tmp_path, cursor, shard_snapshot))
        assert loaded is not None
        assert loaded.cursor.counters["ingested"] == 100
        assert loaded.cursor.counters["checkpointed"] == 3


class TestInvalidCursors:
    def test_torn_cursor(self, tmp_path, shard_snapshot):
        checkpoint = _write_checkpoint(tmp_path, _cursor(), shard_snapshot)
        tear_file(checkpoint.cursor_path, keep_fraction=0.4)
        with pytest.raises(CursorInvalid, match="torn or corrupt"):
            _load(checkpoint)

    def test_stream_mismatch(self, tmp_path, shard_snapshot):
        checkpoint = _write_checkpoint(tmp_path, _cursor(), shard_snapshot)
        with pytest.raises(CursorInvalid, match="recorded over stream"):
            _load(checkpoint, stream_fingerprint="zzzz")

    def test_config_mismatch(self, tmp_path, shard_snapshot):
        checkpoint = _write_checkpoint(tmp_path, _cursor(), shard_snapshot)
        with pytest.raises(CursorInvalid, match="serving config"):
            _load(checkpoint, serve_fingerprint="zzzz")

    def test_shard_count_mismatch(self, tmp_path, shard_snapshot):
        checkpoint = _write_checkpoint(tmp_path, _cursor(), shard_snapshot)
        with pytest.raises(CursorInvalid, match="shard"):
            _load(checkpoint, n_shards=3)

    def test_missing_state_file(self, tmp_path, shard_snapshot):
        checkpoint = _write_checkpoint(tmp_path, _cursor(), shard_snapshot)
        checkpoint.shard_path(3, 1).unlink()
        with pytest.raises(CursorInvalid, match="missing.*cannot read"):
            _load(checkpoint)

    def test_torn_state_file(self, tmp_path, shard_snapshot):
        checkpoint = _write_checkpoint(tmp_path, _cursor(), shard_snapshot)
        tear_file(checkpoint.shard_path(3, 0), 0.3)
        with pytest.raises(CursorInvalid, match="torn"):
            _load(checkpoint)

    def test_non_object_cursor(self, tmp_path, shard_snapshot):
        checkpoint = _write_checkpoint(tmp_path, _cursor(), shard_snapshot)
        checkpoint.cursor_path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CursorInvalid, match="not a JSON object"):
            _load(checkpoint)


class TestDamagedBinaryState:
    """Every way a committed ``.npz`` can be damaged is a CursorInvalid."""

    @pytest.fixture(params=["shard"])
    def damaged(self, request, tmp_path, shard_snapshot):
        checkpoint = _write_checkpoint(tmp_path, _cursor(), shard_snapshot)
        return checkpoint, checkpoint.shard_path(3, 1)

    def test_truncated(self, damaged):
        checkpoint, path = damaged
        tear_file(path, keep_fraction=0.6)
        with pytest.raises(CursorInvalid, match="corrupt or truncated"):
            _load(checkpoint)

    def test_zero_length(self, damaged):
        checkpoint, path = damaged
        tear_file(path, keep_fraction=0.0)
        with pytest.raises(CursorInvalid, match="corrupt or truncated"):
            _load(checkpoint)

    def test_bit_flipped(self, damaged):
        checkpoint, path = damaged
        _flip_bit(path)
        with pytest.raises(CursorInvalid, match="corrupt or truncated"):
            _load(checkpoint)

    def test_missing_column(self, tmp_path, shard_snapshot):
        broken = {k: v for k, v in shard_snapshot.items() if k != "count"}
        checkpoint = _write_checkpoint(tmp_path, _cursor(), broken)
        with pytest.raises(CursorInvalid, match="missing column 'count'"):
            _load(checkpoint)

    def test_wrong_dtype(self, tmp_path, shard_snapshot):
        broken = dict(shard_snapshot, item=shard_snapshot["item"].astype(np.int64))
        checkpoint = _write_checkpoint(tmp_path, _cursor(), broken)
        with pytest.raises(CursorInvalid, match="'item' has dtype int64"):
            _load(checkpoint)

    def test_wrong_shape(self, tmp_path, shard_snapshot):
        broken = dict(shard_snapshot, count=shard_snapshot["count"][:-1])
        checkpoint = _write_checkpoint(tmp_path, _cursor(), broken)
        with pytest.raises(CursorInvalid, match="'count'.* do not fit the CSR 'offsets'"):
            _load(checkpoint)

    def test_json_state_from_before_the_codec_is_refused(
        self, tmp_path, shard_snapshot
    ):
        # A checkpoint in the old layout: JSON state files, same cursor.
        checkpoint = _write_checkpoint(tmp_path, _cursor(), shard_snapshot)
        for path in list(checkpoint.state_dir(3).iterdir()):
            path.with_suffix(".json").write_text("{}")
            path.unlink()
        with pytest.raises(CursorInvalid, match="missing"):
            _load(checkpoint)
