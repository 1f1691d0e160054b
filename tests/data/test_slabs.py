"""Tests for repro.data.slabs — the out-of-core slab data plane.

Three contracts are pinned here:

* **bit-identity** — a slab store built from a basket stream holds
  byte-for-byte the columns :meth:`PopulationFrame.from_log` builds in
  RAM (also over generated logs, bucket counts, shard sizes and chunk
  splits), and every registered engine produces bit-identical scores on
  the mmap-backed frame (including sharded slab-reference workers and
  checkpoint-resumed evaluation sweeps);
* **durability** — a torn, stale or version-incompatible store raises a
  typed :class:`~repro.errors.SlabStoreError` instead of being mapped;
* **bounded descriptors** — the build's open spill files do not grow
  with the shard count.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.config import ExperimentConfig
from repro.core.batch import stability_matrix
from repro.core.engines import available_engines
from repro.core.model import StabilityModel
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.data.population import PopulationFrame, csr_from_triples
from repro.data.slabs import (
    SLAB_STORE_VERSION,
    build_slab_store,
    chunks_from_baskets,
    ensure_slab_store,
    open_slab_store,
)
from repro.data.transactions import TransactionLog
from repro.errors import SlabStoreError
from repro.eval.protocol import EvaluationProtocol
from repro.obs import MetricsRegistry, use_metrics
from repro.obs.metrics import SLAB_STORE_HITS, SLAB_STORE_MISSES
from repro.runtime.faults import FaultPlan

_COLUMNS = (
    "customer_ids",
    "basket_offsets",
    "basket_days",
    "basket_monetary",
    "pair_offsets",
    "pair_items",
    "triple_offsets",
    "triple_window",
    "item_vocab",
)


def _grid(dataset):
    return ExperimentConfig(window_months=2).grid(dataset.calendar)


def _build(dataset, directory, **kwargs):
    kwargs.setdefault("customers_per_shard", 5)
    kwargs.setdefault("n_buckets", 3)
    return build_slab_store(
        chunks_from_baskets(dataset.log, chunk_baskets=64),
        _grid(dataset),
        directory,
        fingerprint=dataset.bundle.fingerprint(),
        **kwargs,
    )


@pytest.fixture()
def store(tiny_dataset, tmp_path):
    return _build(tiny_dataset, tmp_path / "store")


class TestBuildAndOpen:
    def test_columns_bit_identical_to_from_log(self, tiny_dataset, store):
        reference = PopulationFrame.from_log(
            tiny_dataset.log, _grid(tiny_dataset)
        )
        frame = PopulationFrame.from_slabs(store)
        for name in _COLUMNS:
            ours, theirs = getattr(frame, name), getattr(reference, name)
            assert ours.dtype == theirs.dtype, name
            assert np.array_equal(ours, theirs), name

    def test_frame_remembers_store_path(self, store):
        frame = store.frame()
        assert frame.store_path == str(store.directory)
        assert frame.log is None

    def test_grid_roundtrips_through_manifest(self, tiny_dataset, store):
        assert store.grid() == _grid(tiny_dataset)

    def test_shard_bounds_cover_population(self, store):
        bounds = store.shard_bounds()
        assert bounds[0][0] == 0
        assert bounds[-1][1] == store.n_customers
        assert all(lo < hi for lo, hi in bounds)
        assert all(
            prev_hi == lo
            for (__, prev_hi), (lo, __) in zip(bounds, bounds[1:])
        )

    def test_single_shard_build_matches_many_shard_build(
        self, tiny_dataset, tmp_path
    ):
        one = _build(tiny_dataset, tmp_path / "one", customers_per_shard=10_000)
        many = _build(tiny_dataset, tmp_path / "many", customers_per_shard=2)
        for name in _COLUMNS:
            assert np.array_equal(one.column(name), many.column(name)), name

    def test_empty_stream_builds_empty_store(self, tiny_dataset, tmp_path):
        store = build_slab_store(
            iter(()), _grid(tiny_dataset), tmp_path / "empty", fingerprint="e"
        )
        assert store.n_customers == 0
        assert store.shard_bounds() == []
        frame = store.frame()
        assert frame.n_customers == 0
        assert len(frame.basket_offsets) == 1  # CSR leading zero survives

    def test_chunking_is_invisible(self, tiny_dataset, tmp_path):
        coarse = build_slab_store(
            chunks_from_baskets(tiny_dataset.log, chunk_baskets=10_000),
            _grid(tiny_dataset),
            tmp_path / "coarse",
            fingerprint="c",
        )
        fine = build_slab_store(
            chunks_from_baskets(tiny_dataset.log, chunk_baskets=1),
            _grid(tiny_dataset),
            tmp_path / "fine",
            fingerprint="c",
        )
        for name in _COLUMNS:
            assert np.array_equal(coarse.column(name), fine.column(name)), name


class TestDescriptorBound:
    @pytest.mark.skipif(os.name != "posix", reason="needs RLIMIT_NOFILE")
    def test_build_fits_under_a_low_descriptor_limit(self, tmp_path):
        # 2,000 customers at 10 per shard make 200 shards: one open handle
        # per shard spill file (two kinds) would need ~400 descriptors.
        script = textwrap.dedent(
            """
            import resource, sys
            from pathlib import Path

            __, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            resource.setrlimit(resource.RLIMIT_NOFILE, (min(256, hard), hard))

            from repro.config import ExperimentConfig
            from repro.data.calendar import StudyCalendar
            from repro.data.slabs import build_slab_store
            from repro.synth.stream import synthetic_slab_stream

            calendar = StudyCalendar.paper()
            store = build_slab_store(
                synthetic_slab_stream(2000, calendar.n_days, seed=1),
                ExperimentConfig().grid(calendar),
                Path(sys.argv[1]),
                fingerprint="descriptor-bound",
                customers_per_shard=10,
            )
            print(store.n_customers)
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            capture_output=True,
            text=True,
            timeout=240,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.split() == ["2000"]


class TestEnsure:
    def test_miss_builds_then_hit_reuses(self, tiny_dataset, tmp_path):
        fingerprint = tiny_dataset.bundle.fingerprint()
        grid = _grid(tiny_dataset)
        registry = MetricsRegistry()
        with use_metrics(registry):
            first = ensure_slab_store(
                tmp_path, tiny_dataset.log, grid, fingerprint
            )
            second = ensure_slab_store(
                tmp_path, tiny_dataset.log, grid, fingerprint
            )
        assert first.directory == second.directory
        assert registry.counter(SLAB_STORE_MISSES).value == 1
        assert registry.counter(SLAB_STORE_HITS).value == 1

    def test_torn_store_is_rebuilt(self, tiny_dataset, tmp_path):
        fingerprint = tiny_dataset.bundle.fingerprint()
        grid = _grid(tiny_dataset)
        store = ensure_slab_store(tmp_path, tiny_dataset.log, grid, fingerprint)
        (store.directory / "pair_items.bin").unlink()
        registry = MetricsRegistry()
        with use_metrics(registry):
            rebuilt = ensure_slab_store(
                tmp_path, tiny_dataset.log, grid, fingerprint
            )
        assert registry.counter(SLAB_STORE_MISSES).value == 1
        assert (rebuilt.directory / "pair_items.bin").exists()


class TestTypedErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SlabStoreError, match="cannot read manifest"):
            open_slab_store(tmp_path / "nowhere")

    def test_corrupt_manifest_json(self, store):
        (store.directory / "manifest.json").write_text("{not json")
        with pytest.raises(SlabStoreError, match="not valid JSON"):
            open_slab_store(store.directory)

    def test_foreign_schema(self, store):
        (store.directory / "manifest.json").write_text(
            json.dumps({"schema": "something-else"})
        )
        with pytest.raises(SlabStoreError, match="not a slab-store manifest"):
            open_slab_store(store.directory)

    def test_version_bump_refuses_to_open(self, store):
        manifest = json.loads((store.directory / "manifest.json").read_text())
        manifest["version"] = SLAB_STORE_VERSION + 1
        (store.directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SlabStoreError, match="rebuild the store"):
            open_slab_store(store.directory)

    def test_missing_column_set(self, store):
        manifest = json.loads((store.directory / "manifest.json").read_text())
        del manifest["columns"]["pair_items"]
        (store.directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SlabStoreError, match="manifests columns"):
            open_slab_store(store.directory)

    def test_truncated_column_file(self, store):
        path = store.directory / "basket_days.bin"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SlabStoreError, match="torn"):
            open_slab_store(store.directory)

    def test_missing_column_file(self, store):
        (store.directory / "triple_window.bin").unlink()
        with pytest.raises(SlabStoreError, match="missing"):
            open_slab_store(store.directory)


#: Item ids for both csr_from_triples paths: small non-negative ids pack
#: into one int64 key, negative ids and ids near 2**61 take the lexsort.
_ITEM_IDS = st.one_of(
    st.integers(0, 12),
    st.integers(-3, -1),
    st.integers(2**40, 2**40 + 3),
    st.integers(2**61, 2**61 + 3),
)


@st.composite
def _triples(draw):
    n_customers = draw(st.integers(1, 6))
    n_windows = draw(st.integers(1, 5))
    catalog = draw(st.lists(_ITEM_IDS, min_size=1, max_size=6))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_customers - 1),
                st.sampled_from(catalog),
                st.integers(0, n_windows - 1),
            ),
            max_size=40,
        )
    )
    return rows, n_customers, n_windows


def _grid_with_off_grid_days() -> WindowGrid:
    # Days 0-9 fall before the first window and days >= 50 after the last.
    return WindowGrid(boundaries=(10, 20, 35, 50))


#: (customer, day, items) receipts in stream order.  Days 15 and 30 recur
#: (same-day receipts); day 2**62 overflows the packed (row, day) key.
_RECEIPTS = st.lists(
    st.tuples(
        st.integers(-4, 6),
        st.one_of(st.integers(0, 60), st.sampled_from([15, 30, 2**62])),
        st.frozensets(_ITEM_IDS, max_size=4),
    ),
    min_size=1,
    max_size=40,
)


class TestSortBasedBuildProperties:
    @settings(max_examples=60, deadline=None)
    @given(_triples())
    def test_csr_from_triples_matches_sorted_set(self, drawn):
        rows, n_customers, n_windows = drawn
        cust, items, window = (
            np.array([row[k] for row in rows], dtype=np.int64) for k in range(3)
        )
        pair_offsets, pair_items, triple_offsets, triple_window = csr_from_triples(
            cust, items, window, n_customers, n_windows
        )

        triples = sorted(set(rows))
        pairs = sorted({(c, i) for c, i, __ in triples})
        assert pair_items.tolist() == [i for __, i in pairs]
        assert triple_window.tolist() == [w for __, __, w in triples]
        assert pair_offsets.tolist() == [
            sum(1 for c, __ in pairs if c < row) for row in range(n_customers + 1)
        ]
        assert triple_offsets.tolist() == [
            *(sum(1 for t in triples if t[:2] < pair) for pair in pairs),
            len(triples),
        ]
        for column in (pair_offsets, pair_items, triple_offsets, triple_window):
            assert column.dtype == np.int64

    @settings(max_examples=60, deadline=None)
    @given(
        receipts=_RECEIPTS,
        n_buckets=st.integers(1, 8),
        customers_per_shard=st.integers(1, 6),
        chunk_baskets=st.integers(1, 12),
    )
    @example(  # a customer whose only receipts are off-grid, same-day pairs
        receipts=[
            (-2, 3, frozenset({1})),
            (-2, 55, frozenset({2})),
            (5, 15, frozenset({1, 2})),
            (5, 15, frozenset({3})),
            (1, 30, frozenset()),
            (5, 12, frozenset({2})),
        ],
        n_buckets=2,
        customers_per_shard=1,
        chunk_baskets=1,
    )
    @example(  # day 2**62 in a 2-customer shard: (row, day) overflows one key
        receipts=[
            (3, 2**62, frozenset({1})),
            (1, 40, frozenset({2})),
            (3, 12, frozenset({2})),
            (1, 2**62, frozenset()),
        ],
        n_buckets=1,
        customers_per_shard=2,
        chunk_baskets=3,
    )
    def test_store_matches_from_log_byte_for_byte(
        self, receipts, n_buckets, customers_per_shard, chunk_baskets
    ):
        # Monetary values number the receipts in stream order, so a
        # reordering of same-day receipts shows in basket_monetary.
        baskets = [
            Basket(customer_id=c, day=d, items=items, monetary=float(n))
            for n, (c, d, items) in enumerate(receipts)
        ]
        grid = _grid_with_off_grid_days()
        reference = PopulationFrame.from_log(TransactionLog(baskets), grid)
        with tempfile.TemporaryDirectory() as tmp:
            store = build_slab_store(
                chunks_from_baskets(baskets, chunk_baskets=chunk_baskets),
                grid,
                Path(tmp) / "store",
                fingerprint="property",
                customers_per_shard=customers_per_shard,
                n_buckets=n_buckets,
            )
            frame = store.frame()
            for name in store.manifest["columns"]:
                ours, theirs = getattr(frame, name), getattr(reference, name)
                assert ours.dtype == theirs.dtype, name
                assert ours.tobytes() == theirs.tobytes(), name
            del frame, store


def _assert_trajectories_bit_identical(reference, other):
    assert other.customers() == reference.customers()
    for customer in reference.customers():
        ref_t = reference.trajectory(customer)
        other_t = other.trajectory(customer)
        for k in range(reference.n_windows):
            a, b = ref_t.at(k), other_t.at(k)
            for field in ("stability", "kept_mass", "total_mass"):
                x, y = getattr(a, field), getattr(b, field)
                assert (math.isnan(x) and math.isnan(y)) or x == y, (
                    customer,
                    k,
                    field,
                )


class TestEngineBitIdentity:
    @pytest.fixture()
    def frames(self, tiny_dataset, store):
        reference = PopulationFrame.from_log(
            tiny_dataset.log, _grid(tiny_dataset)
        )
        return reference, store.frame()

    def test_every_engine_matches_in_ram(self, tiny_dataset, frames):
        in_ram, slab = frames
        for backend in available_engines():
            config = ExperimentConfig(window_months=2, backend=backend)
            reference = StabilityModel.from_config(
                tiny_dataset.calendar, config
            ).fit(in_ram)
            mmapped = StabilityModel.from_config(
                tiny_dataset.calendar, config
            ).fit(slab)
            _assert_trajectories_bit_identical(reference, mmapped)

    def test_sharded_slab_reference_workers_match_serial(self, frames):
        in_ram, slab = frames
        serial = stability_matrix(in_ram, alpha=2.0, n_jobs=1)
        sharded = stability_matrix(slab, alpha=2.0, n_jobs=2)
        assert np.array_equal(serial.customer_ids, sharded.customer_ids)
        for field in ("stability", "kept_mass", "total_mass"):
            ours = np.asarray(getattr(sharded, field))
            theirs = np.asarray(getattr(serial, field))
            assert ours.tobytes() == theirs.tobytes(), field

    def test_sharded_slab_fit_survives_retry_and_degrade(
        self, frames, tmp_path, monkeypatch
    ):
        # Workers write their rows into a result file: a crashed, failed
        # or timed-out attempt, its retry and the in-process fallback must
        # all land the same bytes, and the file's directory must not
        # outlive the fit, even while a timed-out worker still sleeps.
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        in_ram, slab = frames
        serial = stability_matrix(in_ram, alpha=2.0, n_jobs=1)
        for plan, timeout in (
            (FaultPlan(crashes=((0, 0),), errors=((1, 0),)), None),
            (FaultPlan(slow=((0, 0, 3.0), (1, 0, 3.0))), 1.0),
        ):
            sharded = stability_matrix(
                slab, alpha=2.0, n_jobs=2, retries=0,
                shard_timeout=timeout, fault_plan=plan,
            )
            assert sharded.execution.n_degraded == 2
            for field in ("stability", "kept_mass", "total_mass"):
                ours = np.asarray(getattr(sharded, field))
                theirs = np.asarray(getattr(serial, field))
                assert ours.tobytes() == theirs.tobytes(), field
            assert list(scratch.iterdir()) == []
            retried = stability_matrix(
                slab, alpha=2.0, n_jobs=2, retries=1,
                shard_timeout=timeout, fault_plan=plan,
            )
            assert retried.execution.n_retried == 2
            assert retried.execution.n_degraded == 0
            assert retried.stability.tobytes() == serial.stability.tobytes()
            assert list(scratch.iterdir()) == []

    def test_out_of_core_kernel_chunks_per_store_shard(self, frames):
        # customers_per_shard=5 on 24 customers -> the serial slab fit
        # must walk multiple chunks and still match bit-for-bit.
        in_ram, slab = frames
        serial = stability_matrix(in_ram, alpha=2.0)
        chunked = stability_matrix(slab, alpha=2.0)
        assert (
            np.asarray(chunked.stability).tobytes()
            == np.asarray(serial.stability).tobytes()
        )


class _InterruptingModel:
    """Delegates to a fitted model, dying after ``fail_after`` score calls."""

    def __init__(self, model, fail_after):
        self._model = model
        self._remaining = fail_after

    def __getattr__(self, name):
        return getattr(self._model, name)

    def churn_scores(self, window_index, customers=None):
        if self._remaining <= 0:
            raise KeyboardInterrupt
        self._remaining -= 1
        return self._model.churn_scores(window_index, customers)


class TestCheckpointResumedSweep:
    def test_resumed_slab_sweep_matches_in_ram_reference(
        self, tiny_dataset, store, tmp_path
    ):
        bundle = tiny_dataset.bundle
        config = ExperimentConfig(window_months=2, backend="batch")
        grid = config.grid(bundle.calendar)
        ids = bundle.cohorts.all_customers()

        reference_model = StabilityModel.from_config(
            bundle.calendar, config
        ).fit(PopulationFrame.from_log(bundle.log, grid))
        reference = EvaluationProtocol(
            bundle, config=config
        ).evaluate_stability_model(reference_model, ids)

        slab_frame = store.frame()
        slab_model = StabilityModel.from_config(bundle.calendar, config).fit(
            slab_frame
        )
        n_cells = len(
            EvaluationProtocol(bundle, config=config).evaluation_windows(
                slab_model
            )
        )
        assert n_cells >= 4
        checkpoint_dir = tmp_path / "journal"

        interrupted = EvaluationProtocol(
            bundle,
            config=config,
            checkpoint_dir=checkpoint_dir,
            frame=slab_frame,
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.evaluate_stability_model(
                _InterruptingModel(slab_model, n_cells // 2), ids
            )

        resumed = EvaluationProtocol(
            bundle,
            config=config,
            checkpoint_dir=checkpoint_dir,
            frame=slab_frame,
        ).evaluate_stability_model(slab_model, ids)
        assert resumed == reference

    def test_injected_frame_grid_must_match(self, tiny_dataset, store):
        from repro.errors import ConfigError

        bundle = tiny_dataset.bundle
        mismatched = ExperimentConfig(window_months=4, backend="batch")
        with pytest.raises(ConfigError, match="grid"):
            EvaluationProtocol(
                bundle, config=mismatched, frame=store.frame()
            )

    def test_injected_frame_is_served_to_scorers(self, tiny_dataset, store):
        bundle = tiny_dataset.bundle
        config = ExperimentConfig(window_months=2, backend="batch")
        protocol = EvaluationProtocol(
            bundle, config=config, frame=store.frame()
        )
        assert protocol.frame().store_path == str(store.directory)
