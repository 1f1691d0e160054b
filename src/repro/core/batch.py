"""Population-scale batched stability engine.

The second implementation of the paper's stability definition, built for
whole-population throughput rather than per-customer clarity:

* the transaction log is encoded **once** into flat columnar arrays
  (:meth:`~repro.data.transactions.TransactionLog.to_columnar`), then
  windowed and deduplicated into ``(customer, item, window)`` presence
  triples grouped CSR-style by ``(customer, item)`` pair — the
  :class:`~repro.data.population.PopulationFrame` data plane, which
  since its promotion to :mod:`repro.data` also feeds the evaluation
  protocol and the RFM baselines;
* significance and stability for **all customers × all windows** come out
  of a handful of numpy segment operations
  (:func:`stability_matrix`): per-pair shifted cumulative presence
  counts, the log-space saturated exponential rule (identical to
  :class:`~repro.core.significance.ExponentialSignificance`), and
  empty-segment-safe ``reduceat`` sums over the customer axis;
* the customer axis shards across worker processes (``n_jobs``) for
  multi-core fits, behind the fault-isolating
  :func:`~repro.runtime.executor.run_sharded` protocol: a shard whose
  worker dies (OOM kill, pickling failure, timeout) is retried with
  backoff and finally recomputed serially in-process, so the fit always
  completes with bit-identical results and an attached
  :class:`~repro.runtime.executor.ExecutionReport`;
* a frame memory-mapped from an on-disk slab store
  (:meth:`PopulationFrame.from_slabs`, ``store_path`` set) fits
  **out-of-core**: the serial path runs the kernel one store shard at a
  time so the dense per-shard matrices are the only transient
  allocation, and the sharded path sends workers a slab *reference*
  (store path + customer row range) instead of a pickled frame — each
  worker maps the store itself and writes its rows into one result
  file, keeping payloads and per-process RSS flat as the population grows.

Only the exponential significance and the ``"paper"`` counting scheme
are supported; anything else stays on the flexible incremental engine.
Exact agreement with the incremental engine is pinned by differential
tests.
"""

from __future__ import annotations

import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.significance import validate_alpha
from repro.data.population import PopulationFrame
from repro.errors import ConfigError
from repro.obs import span, timed_stage
from repro.obs.metrics import STAGE_NORMALIZE, STAGE_SIGNIFICANCE
from repro.runtime.executor import ExecutionReport, run_sharded
from repro.runtime.faults import FaultPlan

__all__ = [
    "PopulationFrame",
    "BatchStability",
    "stability_matrix",
    "significance_from_counts",
]

#: Saturation cap matching ExponentialSignificance._MAX_LOG.
_MAX_LOG = 700.0


def significance_from_counts(
    counts: np.ndarray, n_prior_windows: int | np.ndarray, alpha: float = 2.0
) -> np.ndarray:
    """Exponential significance from prior-presence counts, vectorised.

    ``counts[i]`` is ``c`` for one item; ``n_prior_windows`` is ``k``
    (scalar or per-element), so ``l = k - c`` and the margin is
    ``c - l = 2c - k``.  The score is computed in log space with the same
    saturation cap as the scalar rule, and is 0 where ``c == 0``.

    This is the one significance kernel shared by the batch engine, the
    single-window population scorer and the streaming monitor's window
    close.
    """
    counts = np.asarray(counts, dtype=np.float64)
    margin = 2.0 * counts - np.asarray(n_prior_windows, dtype=np.float64)
    significance = np.exp(np.minimum(margin * math.log(alpha), _MAX_LOG))
    return np.where(counts > 0.0, significance, 0.0)


def _segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum ``values`` over contiguous row segments ``[offsets[i], offsets[i+1])``.

    Empty segments sum to 0 (plain ``np.add.reduceat`` would repeat the
    boundary row instead).  Each segment is summed independently
    left-to-right, so huge (saturated) values in one customer cannot
    contaminate another's sum — which a cumsum-and-subtract scheme would
    do through catastrophic cancellation.
    """
    starts = offsets[:-1]
    out_shape = (len(starts),) + values.shape[1:]
    out = np.zeros(out_shape, dtype=np.float64)
    # reduceat over the non-empty starts only: segments tile the row axis,
    # so each non-empty start's successor in the index list is exactly its
    # own end (empty segments collapse to the same boundary), and the last
    # one runs to the end of the array.  Feeding empty starts to reduceat
    # instead would repeat boundary rows and corrupt neighbouring sums.
    nonempty = starts < offsets[1:]
    if nonempty.any():
        out[nonempty] = np.add.reduceat(values, starts[nonempty], axis=0)
    return out


@dataclass(frozen=True)
class BatchStability:
    """Stability of every customer at every window, plus the evidence sums.

    ``stability``, ``kept_mass`` and ``total_mass`` all have shape
    ``(n_customers, n_windows)``; row order matches
    ``population.customer_ids``.  Stability is NaN where undefined (no
    prior significance mass), matching the incremental engine.

    ``execution`` carries the resilient executor's
    :class:`~repro.runtime.executor.ExecutionReport` for sharded fits
    (``None`` for the serial path, which has no workers to isolate).
    """

    population: PopulationFrame
    stability: np.ndarray
    kept_mass: np.ndarray
    total_mass: np.ndarray
    execution: ExecutionReport | None = None

    @property
    def customer_ids(self) -> np.ndarray:
        return self.population.customer_ids

    def row_of(self, customer_id: int) -> int:
        row = int(np.searchsorted(self.customer_ids, customer_id))
        if row >= len(self.customer_ids) or self.customer_ids[row] != customer_id:
            raise ConfigError(f"customer {customer_id} not in the batch result")
        return row


def _stability_kernel(
    population: PopulationFrame, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense per-shard kernel: ``(stability, kept, total)`` matrices.

    The two stages are individually timed (spans + stage histograms)
    when telemetry is on; inside a sharded fit those spans are recorded
    in the worker and merged back by the resilient executor.
    """
    n_pairs, n_windows = population.n_pairs, population.n_windows
    with timed_stage(
        STAGE_SIGNIFICANCE, pairs=n_pairs, windows=n_windows
    ):
        presence = np.zeros((n_pairs, n_windows), dtype=np.float64)
        if n_pairs:
            presence[population.pair_rows(), population.triple_window] = 1.0
        prior = np.zeros_like(presence)
        prior[:, 1:] = np.cumsum(presence, axis=1)[:, :-1]
        window_index = np.arange(n_windows, dtype=np.float64)
        significance = significance_from_counts(prior, window_index, alpha)
    with timed_stage(STAGE_NORMALIZE, customers=population.n_customers):
        total = _segment_sum(significance, population.pair_offsets)
        kept = _segment_sum(significance * presence, population.pair_offsets)
        with np.errstate(invalid="ignore", divide="ignore"):
            stability = np.where(total > 0.0, kept / total, np.nan)
    return stability, kept, total


def _shard_worker(
    args: tuple[PopulationFrame, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    population, alpha = args
    return _stability_kernel(population, alpha)


def _stack_parts(
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-shard ``(stability, kept, total)`` row blocks."""
    return (
        np.vstack([p[0] for p in parts]),
        np.vstack([p[1] for p in parts]),
        np.vstack([p[2] for p in parts]),
    )


def _clip_bounds(
    bounds: list[tuple[int, int]], lo: int, hi: int
) -> list[tuple[int, int]]:
    """The store shard ranges intersected with customer rows ``[lo, hi)``."""
    clipped = [
        (max(b_lo, lo), min(b_hi, hi))
        for b_lo, b_hi in bounds
        if min(b_hi, hi) > max(b_lo, lo)
    ]
    return clipped or ([(lo, hi)] if hi > lo else [])


def _out_of_core_kernel(
    population: PopulationFrame, alpha: float, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel over rows ``[lo, hi)`` of a slab-backed frame, chunked.

    Runs one store shard at a time so the dense significance/presence
    matrices — the fit's dominant allocation — never exceed one shard's
    worth; the memory-mapped columns page in and out underneath.  Row
    blocks concatenate to exactly the single-kernel result because
    customers are independent and :func:`_segment_sum` reduces each
    customer's segment in isolation.
    """
    from repro.data.slabs import open_slab_store

    assert population.store_path is not None
    store = open_slab_store(population.store_path)
    bounds = _clip_bounds(store.shard_bounds(), lo, hi)
    if not bounds:
        return _stability_kernel(population.shard(lo, hi), alpha)
    return _stack_parts(
        [
            _stability_kernel(population.shard(b_lo, b_hi), alpha)
            for b_lo, b_hi in bounds
        ]
    )


def _slab_shard_worker(args: tuple[str, str, int, int, float]) -> None:
    """Worker entry for slab-reference tasks: map the store, fit a range.

    The task is ``(store_path, out_path, lo, hi, alpha)`` — a few hundred
    bytes on the wire regardless of population size.  The worker
    memory-maps the store itself and chunks over its shard layout, so
    worker RSS is bounded by one store shard, not the task's whole row
    range.  Its rows go straight into the fit's ``(3, customers,
    windows)`` result file at ``out_path``, not back through the
    executor's result pipe: the pipe's reader thread would unpickle every
    block into its own malloc arena, where how much stays resident after
    the fit depends on thread timing.
    """
    store_path, out_path, lo, hi, alpha = args
    from repro.data.slabs import open_slab_store

    out = np.load(out_path, mmap_mode="r+")
    frame = open_slab_store(store_path).frame()
    for block, rows in zip(out, _out_of_core_kernel(frame, alpha, lo, hi), strict=True):
        block[lo:hi] = rows
    out.flush()


def _resolve_n_jobs(n_jobs: int | None) -> int:
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return int(n_jobs)


def _row_ranges(n_customers: int, n_jobs: int) -> list[tuple[int, int]]:
    """Contiguous non-empty ``[lo, hi)`` customer-row ranges, one per job."""
    bounds = np.linspace(0, n_customers, n_jobs + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:], strict=True) if hi > lo]


def _shard_tasks(
    population: PopulationFrame, alpha: float, n_jobs: int
) -> list[tuple[PopulationFrame, float]]:
    ranges = _row_ranges(population.n_customers, n_jobs)
    return [(population.shard(lo, hi), alpha) for lo, hi in ranges]


def stability_matrix(
    population: PopulationFrame,
    alpha: float = 2.0,
    n_jobs: int | None = 1,
    retries: int = 2,
    shard_timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
) -> BatchStability:
    """Stability of all customers at all windows in batched numpy ops.

    With ``n_jobs > 1`` the customer axis is split into contiguous shards
    computed in worker processes (``n_jobs = -1`` uses every core).
    Sharding is exact: customers are independent, so the result is
    identical to the single-process kernel.

    Sharded fits run under the resilient protocol of
    :func:`~repro.runtime.executor.run_sharded`: a shard whose worker
    dies or exceeds ``shard_timeout`` is retried up to ``retries`` times
    with backoff and finally recomputed serially in-process, so the fit
    always completes with bit-identical results; what the runtime had to
    absorb is attached as ``BatchStability.execution``.  ``fault_plan``
    deterministically injects worker faults for tests
    (:class:`~repro.runtime.faults.FaultPlan`).
    """
    validate_alpha(alpha)
    n_jobs = _resolve_n_jobs(n_jobs)
    n_customers = population.n_customers
    slab_backed = population.store_path is not None
    with span("fit.batch", customers=n_customers, n_jobs=n_jobs):
        if n_jobs <= 1 or n_customers < 2 * n_jobs:
            if slab_backed:
                stability, kept, total = _out_of_core_kernel(
                    population, alpha, 0, n_customers
                )
            else:
                stability, kept, total = _stability_kernel(population, alpha)
            return BatchStability(population, stability, kept, total)
        if not slab_backed:
            shards = _shard_tasks(population, alpha, n_jobs)
            parts, report = run_sharded(
                _shard_worker,
                shards,
                max_workers=len(shards),
                retries=retries,
                timeout=shard_timeout,
                fault_plan=fault_plan,
            )
            stability, kept, total = _stack_parts(parts)
            return BatchStability(population, stability, kept, total, execution=report)
        with tempfile.TemporaryDirectory(prefix="repro-fit-") as scratch:
            out_path = os.path.join(scratch, "fit.npy")
            shape = (3, n_customers, population.n_windows)
            np.lib.format.open_memmap(out_path, "w+", np.float64, shape)
            _, report = run_sharded(
                _slab_shard_worker,
                [
                    (population.store_path, out_path, lo, hi, alpha)
                    for lo, hi in _row_ranges(n_customers, n_jobs)
                ],
                max_workers=n_jobs,
                retries=retries,
                timeout=shard_timeout,
                fault_plan=fault_plan,
            )
            stability, kept, total = np.load(out_path)
    return BatchStability(population, stability, kept, total, execution=report)


def _stability_matrix_bare(
    population: PopulationFrame, alpha: float = 2.0, n_jobs: int = 2
) -> BatchStability:
    """The pre-resilience sharded fit: bare ``ProcessPoolExecutor.map``.

    Kept (private) as the benchmarking baseline the resilient executor's
    fault-free overhead is measured against; one dead worker aborts the
    whole fit here.
    """
    validate_alpha(alpha)
    shards = _shard_tasks(population, alpha, _resolve_n_jobs(n_jobs))
    with ProcessPoolExecutor(max_workers=len(shards)) as executor:
        parts = list(executor.map(_shard_worker, shards))
    return BatchStability(population, *_stack_parts(parts))
