"""The headline invariant: served == offline batch sweep, bit for bit."""

from __future__ import annotations

import math

import pytest

from repro.serve import (
    offline_sweep,
    offline_sweep_stream,
    score_fingerprint,
    serve_stream,
)

BATCH = 200


def _assert_tables_identical(result, reference):
    assert result.scores.keys() == reference.scores.keys()
    for cid, stability in result.scores.items():
        expected = reference.scores[cid]
        assert stability == expected or (
            math.isnan(stability) and math.isnan(expected)
        )
    assert result.flags == reference.flags
    assert result.alarm_windows == reference.alarm_windows


class TestParity:
    @pytest.mark.parametrize(
        ("n_shards", "interrupted"), [(1, False), (3, False), (3, True)]
    )
    def test_serve_matches_offline(
        self,
        stream_path,
        serve_config,
        offline_reference,
        tmp_path,
        n_shards,
        interrupted,
    ):
        def serve(max_batches=None):
            return serve_stream(
                stream_path,
                tmp_path / "ckpt",
                config=serve_config,
                batch_size=BATCH,
                n_shards=n_shards,
                max_batches=max_batches,
            )

        if interrupted:
            # Stop after two batches; the rerun resumes the sharded state.
            assert not serve(max_batches=2).finished
        result = serve()
        assert result.finished
        assert result.resumed == interrupted
        _assert_tables_identical(result, offline_reference)
        assert result.fingerprint() == offline_reference.fingerprint()

    def test_batch_size_never_changes_scores(
        self, stream_path, serve_config, offline_reference, tmp_path
    ):
        for batch_size in (50, 1000):
            result = serve_stream(
                stream_path,
                tmp_path / f"ckpt-{batch_size}",
                config=serve_config,
                batch_size=batch_size,
            )
            assert result.fingerprint() == offline_reference.fingerprint()

    def test_offline_sweep_stream_matches_in_memory(
        self,
        serve_dataset,
        day_ordered_baskets,
        stream_path,
        serve_config,
        offline_reference,
    ):
        in_memory = offline_sweep(
            day_ordered_baskets, serve_dataset.calendar, config=serve_config
        )
        assert in_memory.fingerprint() == offline_reference.fingerprint()

    def test_beta_changes_the_fingerprint(
        self, stream_path, serve_config, offline_reference
    ):
        stricter = offline_sweep_stream(
            stream_path, config=serve_config, beta=0.9
        )
        # Stabilities are beta-independent; alarms are not.
        assert sum(stricter.flags.values()) != sum(
            offline_reference.flags.values()
        )
        assert stricter.fingerprint() != offline_reference.fingerprint()


class TestFingerprint:
    def test_nan_aware_and_order_insensitive(self):
        a = score_fingerprint(
            {1: math.nan, 2: 0.5}, {1: False, 2: True}, {2: ((3, 0.5),)}
        )
        b = score_fingerprint(
            {2: 0.5, 1: math.nan}, {2: True, 1: False}, {2: ((3, 0.5),)}
        )
        assert a == b

    def test_sensitive_to_each_component(self):
        base = score_fingerprint({1: 0.5}, {1: False}, {})
        assert score_fingerprint({1: 0.6}, {1: False}, {}) != base
        assert score_fingerprint({1: 0.5}, {1: True}, {}) != base
        assert (
            score_fingerprint({1: 0.5}, {1: False}, {1: ((2, 0.5),)}) != base
        )

    def test_repr_precision_floats(self):
        x = 0.1 + 0.2  # 0.30000000000000004: must not collapse to 0.3
        assert score_fingerprint({1: x}, {1: False}, {}) != score_fingerprint(
            {1: 0.3}, {1: False}, {}
        )
