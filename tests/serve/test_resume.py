"""Mid-window resume tests: kill, resume, prove the ≤1-batch rework bound.

The worst crash point is *between* a batch's state write and its cursor
commit (the ``on_state_written`` hook).  After such a crash the resumed
run must (a) produce a final score table bit-identical to an unkilled
run, (b) rework exactly one batch — provable from the processed-batch
journal: ``run1 + run2 == n_batches + 1`` — and (c) restore counters
without double-counting.
"""

from __future__ import annotations

import logging

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry, metrics as obs_metrics, use_metrics
from repro.runtime.faults import FaultPlan, tear_file
from repro.serve import ServeCheckpoint, serve_stream

BATCH = 200


class _Boom(RuntimeError):
    """Simulated crash injected from the on_state_written hook."""


def _crash_on(call: int):
    """A hook raising on the ``call``-th state write (1-based)."""
    seen = {"n": 0}

    def hook(commit_index: int) -> None:
        seen["n"] += 1
        if seen["n"] == call:
            raise _Boom(f"crash at state write #{call}")

    return hook, seen


@pytest.fixture()
def full_run(stream_path, serve_config, tmp_path):
    """An unkilled reference run (fresh checkpoint dir per test)."""
    return serve_stream(
        stream_path, tmp_path / "ref", config=serve_config, batch_size=BATCH
    )


class TestCrashResume:
    def test_crash_between_state_and_cursor(
        self, stream_path, serve_config, offline_reference, full_run, tmp_path
    ):
        n_batches = full_run.batches_this_run
        assert n_batches >= 4, "fixture too small to crash mid-stream"
        ckpt = tmp_path / "crash"
        hook, seen = _crash_on(4)
        with pytest.raises(_Boom):
            serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                on_state_written=hook,
            )
        run1_processed = seen["n"]

        resumed = serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH
        )
        assert resumed.resumed
        assert resumed.finished
        # Rework bound, provable from the processed-batch counts.
        assert resumed.batches_reworked == 1
        assert run1_processed + resumed.batches_this_run == n_batches + 1
        # Bit-identical to the offline sweep and the unkilled run.
        assert resumed.fingerprint() == offline_reference.fingerprint()
        assert resumed.fingerprint() == full_run.fingerprint()
        # Counters restored from the cursor: no double counting.
        assert resumed.counters == full_run.counters

    def test_crash_at_first_batch(
        self, stream_path, serve_config, offline_reference, full_run, tmp_path
    ):
        ckpt = tmp_path / "crash-first"
        hook, seen = _crash_on(1)
        with pytest.raises(_Boom):
            serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                on_state_written=hook,
            )
        resumed = serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH
        )
        # Nothing was ever committed: a fresh start, not a resume, and
        # the batch in flight is the only one processed twice.
        assert not resumed.resumed
        assert resumed.batches_reworked == 0
        assert (
            seen["n"] + resumed.batches_this_run
            == full_run.batches_this_run + 1
        )
        assert resumed.fingerprint() == offline_reference.fingerprint()
        assert resumed.counters == full_run.counters

    def test_crash_during_finish_commit(
        self, stream_path, serve_config, offline_reference, full_run, tmp_path
    ):
        n_batches = full_run.batches_this_run
        ckpt = tmp_path / "crash-finish"
        # The finish seal is state write n_batches + 1.
        hook, seen = _crash_on(n_batches + 1)
        with pytest.raises(_Boom):
            serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                on_state_written=hook,
            )
        resumed = serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH
        )
        assert resumed.resumed
        assert resumed.finished
        assert resumed.batches_this_run == 0
        assert resumed.fingerprint() == offline_reference.fingerprint()
        assert resumed.counters == full_run.counters

    def test_clean_interrupt_resumes_without_rework(
        self, stream_path, serve_config, offline_reference, full_run, tmp_path
    ):
        ckpt = tmp_path / "partial"
        first = serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            max_batches=3,
        )
        assert not first.finished
        assert first.batches_this_run == 3
        second = serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH
        )
        assert second.resumed
        assert second.batches_reworked == 0
        assert (
            first.batches_this_run + second.batches_this_run
            == full_run.batches_this_run
        )
        assert second.fingerprint() == offline_reference.fingerprint()

    def test_finished_checkpoint_is_idempotent(
        self, stream_path, serve_config, full_run
    ):
        again = serve_stream(
            stream_path,
            full_run.checkpoint_dir,
            config=serve_config,
            batch_size=BATCH,
        )
        assert again.finished
        assert again.batches_this_run == 0
        assert again.fingerprint() == full_run.fingerprint()
        assert again.counters == full_run.counters


class TestCursorFallback:
    def test_torn_cursor_restarts_from_head(
        self, stream_path, serve_config, offline_reference, tmp_path, caplog
    ):
        ckpt = tmp_path / "torn"
        serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            max_batches=3,
        )
        tear_file(ckpt / "cursor.json", keep_fraction=0.4)
        registry = MetricsRegistry()
        with use_metrics(registry), caplog.at_level(
            logging.WARNING, logger="repro.serve.loop"
        ):
            result = serve_stream(
                stream_path, ckpt, config=serve_config, batch_size=BATCH
            )
        assert not result.resumed
        assert result.finished
        assert result.fingerprint() == offline_reference.fingerprint()
        assert any(
            "restarting from stream head" in r.message for r in caplog.records
        )
        assert (
            registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
        )

    def test_torn_shard_state_restarts_from_head(
        self, stream_path, serve_config, offline_reference, tmp_path, caplog
    ):
        ckpt = tmp_path / "torn-state"
        partial = serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            max_batches=3,
        )
        shard_file = ServeCheckpoint(ckpt).shard_path(3, 0)
        assert shard_file.exists(), partial
        tear_file(shard_file, keep_fraction=0.3)
        with caplog.at_level(logging.WARNING, logger="repro.serve.loop"):
            result = serve_stream(
                stream_path, ckpt, config=serve_config, batch_size=BATCH
            )
        assert not result.resumed
        assert result.fingerprint() == offline_reference.fingerprint()

    @pytest.mark.parametrize("damage", ["truncated", "zero_length", "bit_flip"])
    @pytest.mark.parametrize("target", ["shard", "scores"])
    def test_damaged_binary_state_restarts_from_head(
        self, stream_path, serve_config, offline_reference, tmp_path,
        target, damage,
    ):
        ckpt = tmp_path / f"{target}-{damage}"
        serve_stream(
            stream_path, ckpt, config=serve_config, batch_size=BATCH,
            max_batches=2, n_shards=2,
        )
        checkpoint = ServeCheckpoint(ckpt)
        path = (
            checkpoint.shard_path(2, 1)
            if target == "shard"
            else checkpoint.scores_path(2)
        )
        if damage == "bit_flip":
            data = bytearray(path.read_bytes())
            data[data.index(b"repro.") + 2] ^= 0x10
            path.write_bytes(bytes(data))
        else:
            tear_file(path, keep_fraction=0.5 if damage == "truncated" else 0.0)
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = serve_stream(
                stream_path, ckpt, config=serve_config, batch_size=BATCH,
                n_shards=2,
            )
        assert not result.resumed
        assert registry.counter_value(obs_metrics.SERVE_CURSOR_INVALID) == 1
        assert result.fingerprint() == offline_reference.fingerprint()

    def test_changed_config_restarts_from_head(
        self, stream_path, serve_config, tmp_path, caplog
    ):
        ckpt = tmp_path / "reconfig"
        serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            max_batches=3,
        )
        with caplog.at_level(logging.WARNING, logger="repro.serve.loop"):
            result = serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                beta=0.7,
            )
        assert not result.resumed
        assert result.finished


class TestFaultyWorkers:
    def test_crashed_shard_worker_is_retried(
        self, stream_path, serve_config, offline_reference, tmp_path
    ):
        result = serve_stream(
            stream_path,
            tmp_path / "faulty",
            config=serve_config,
            batch_size=BATCH,
            n_shards=2,
            parallel=True,
            fault_plan=FaultPlan(crashes=((0, 0),)),
        )
        assert result.finished
        assert result.fingerprint() == offline_reference.fingerprint()

    def test_erroring_worker_then_crash_then_resume(
        self, stream_path, serve_config, offline_reference, full_run, tmp_path
    ):
        ckpt = tmp_path / "faulty-crash"
        hook, seen = _crash_on(3)
        with pytest.raises(_Boom):
            serve_stream(
                stream_path,
                ckpt,
                config=serve_config,
                batch_size=BATCH,
                n_shards=2,
                parallel=True,
                fault_plan=FaultPlan(errors=((1, 0),)),
                on_state_written=hook,
            )
        resumed = serve_stream(
            stream_path,
            ckpt,
            config=serve_config,
            batch_size=BATCH,
            n_shards=2,
            parallel=True,
        )
        assert resumed.resumed
        assert resumed.batches_reworked == 1
        assert (
            seen["n"] + resumed.batches_this_run
            == full_run.batches_this_run + 1
        )
        assert resumed.fingerprint() == offline_reference.fingerprint()


class TestValidation:
    def test_bad_batch_size(self, stream_path, serve_config, tmp_path):
        with pytest.raises(ConfigError, match="batch_size"):
            serve_stream(
                stream_path, tmp_path / "x", config=serve_config, batch_size=0
            )

    def test_bad_n_shards(self, stream_path, serve_config, tmp_path):
        with pytest.raises(ConfigError, match="n_shards"):
            serve_stream(
                stream_path, tmp_path / "x", config=serve_config, n_shards=0
            )

    def test_bad_max_batches(self, stream_path, serve_config, tmp_path):
        with pytest.raises(ConfigError, match="max_batches"):
            serve_stream(
                stream_path,
                tmp_path / "x",
                config=serve_config,
                max_batches=0,
            )
