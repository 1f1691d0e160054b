"""The benchmark's workloads: set-up, timed operations, checks, metrics.

Each workload takes the seed, builds its inputs from it (the set-up),
then repeats its operations until the time budget is spent.  Every
operation is checked outside its timed region; an operation that raises
or returns a wrong result is counted as failed, never fatal.

* ``serve-commit-heavy`` and ``serve-commit-light`` replay one recorded
  paper-scenario stream through :func:`repro.serve.serve_stream` into a
  fresh checkpoint directory (closed loop: the loop reads the next day
  batch only after the previous checkpoint batch committed), then
  reopen the finished checkpoint ("rescore").  They differ only in
  ``batch_size``: 2,000 baskets gives ~32 commits; a batch larger than
  the stream gives one data commit plus the final seal.
* ``offline-score-100k`` builds a slab store from 100,000 synthetic
  customers, opens it and fits it (``n_jobs=2``), then rescores the
  existing store (open + fit).

The layer names used for spans and per-layer metrics are the repo's
module names; the README in this directory maps each per-layer metric
to the end-to-end metric it should move.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import hashlib
import resource
import shutil
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

import numpy as np

import repro.core.batch as batch
import repro.data.slabs as slabs
import repro.serve.loop as serve_loop
from repro.config import ExperimentConfig
from repro.core.engines import FitSpec, IncrementalEngine
from repro.data.calendar import StudyCalendar
from repro.data.population import PopulationFrame
from repro.serve import ServeCheckpoint, ShardedMonitorPool
from repro.synth.scenarios import paper_scenario
from repro.synth.stream import record_stream, synthetic_slab_stream
from spans import Recorder, latency_summary, median, patched, per_root

# Workload shapes.  The serve stream is the paper scenario at its default
# 600 customers: small enough that a run fits several replays (on a
# shared 2-CPU host the speed drifts by 10-40% within minutes, so one
# replay per run is too noisy), large enough that checkpoints dominate
# the heavy replay.
# 100k is the population scale the slab plane was built for.
SERVE_LOYAL = 300
SERVE_CHURNERS = 300
HEAVY_BATCH_SIZE = 2000
N_SHARDS = 2
OFFLINE_CUSTOMERS = 100_000
#: 100 slab chunks per build, so the per-chunk latency supports p80.
CHUNK_CUSTOMERS = 1000
#: Never more worker processes than the 2 CPUs the benchmark targets.
FIT_JOBS = 2
#: Set-ups per run; ``setup_s`` is their median.  Recording the serve
#: stream costs ~5 s, generating the slab stream ~1.5 s.
SERVE_SETUPS = 2
OFFLINE_SETUPS = 3
#: Rescores after every replay / score pass (each is short, so several
#: per run steady the rescore median).
SERVE_RESCORES = 5
OFFLINE_RESCORES = 3
#: The incremental reference engine is per-customer Python, so it
#: checks a sample: this many ranges of this many consecutive customers.
SAMPLE_RANGES = 4
SAMPLE_WIDTH = 50
#: The repo's tolerance between the incremental and batch engines.
ENGINE_TOLERANCE = 1e-12

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "score_customers_per_s": "customers/s",
    "rescore_customers_per_s": "customers/s",
    "batch_latency_p50_ms": "ms",
    "batch_latency_p80_ms": "ms",
}

PER_LAYER_UNITS = {
    "synth.stream.parse_s": "s",
    "serve.pool.process_batch_s": "s",
    "serve.pool.process_batch_calls": "count",
    "serve.pool.finish_s": "s",
    "serve.pool.snapshot_s": "s",
    "serve.checkpoint.write_state_s": "s",
    "serve.checkpoint.commit_s": "s",
    "serve.checkpoint.bytes_per_commit": "bytes",
    "serve.checkpoint.self_s": "s",
    "serve.wall_s": "s",
    "serve.checkpoint.share": "ratio",
    "serve.loop.other_s": "s",
    "serve.state_customers": "count",
    "core.streaming.offline_sweep_s": "s",
    "synth.slab_stream.gen_s": "s",
    "data.slabs.build_s": "s",
    "data.slabs.store_bytes": "bytes",
    "data.slabs.open_s": "s",
    "core.batch.fit_s": "s",
    "runtime.executor.run_s": "s",
    "runtime.executor.retried": "count",
    "runtime.executor.degraded": "count",
}

#: Spans whose self time is checkpoint work in a serve replay.
CHECKPOINT_SPANS = (
    "serve.pool.snapshot",
    "serve.checkpoint.write_state",
    "serve.checkpoint.commit",
)


@dataclass
class Tally:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its waited-for
    children (the fit's worker processes).

    Every timed metric reads this clock, not the wall clock: on a shared
    host the wall time of the same operation varies by a factor of two
    between runs, as other tenants take the CPUs (steal, which a Linux
    guest with paravirtual steal accounting keeps out of task CPU time)
    or the disk.  Time spent waiting for the disk (fsync) is therefore
    not in the timed metrics; the per-layer spans and the ``*_wall_*``
    extras are wall time and show it.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    recorder: Recorder
    tally: Tally = field(default_factory=Tally)
    #: Wall time of every operation that completed, by label.
    walls: dict[str, list[float]] = field(default_factory=dict)

    def run_op(
        self,
        label: str,
        operation: Callable[[], Any],
        check: Callable[[Any], list[str]] | None = None,
    ) -> tuple[float | None, Any]:
        """Time ``operation`` (CPU seconds, see :func:`cpu_clock`) inside
        a span named ``label``, then check its result untimed.  Without
        ``check`` the caller records the outcome later.  A raise counts
        as a failed operation."""
        start_wall, start_cpu = perf_counter(), cpu_clock()
        try:
            with self.recorder.span(label):
                result = operation()
        except Exception:
            self.tally.record(label, [traceback.format_exc().strip()])
            return None, None
        cpu = cpu_clock() - start_cpu
        self.walls.setdefault(label, []).append(perf_counter() - start_wall)
        if check is not None:
            self.tally.record(label, check(result))
        return cpu, result

    def median_wall(self, label: str) -> float:
        return median(self.walls.get(label, []))


@dataclass
class Measured:
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    #: Printed and saved, but not part of the driver-facing metric set.
    extras: dict[str, Any]
    #: CPU time of each main operation (replay / score pass).
    op_cpu: list[float]


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _status_mb(field: str) -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/self/status has no {field}")


class PeakRss:
    """Peak resident memory an interval adds to this process (Linux).

    :meth:`start` hands freed memory back to the OS, resets the kernel's
    high-water mark (``clear_refs`` mode 5) and notes the resident size;
    :meth:`added_mb` is the high-water mark since then minus that size.
    Measuring the addition leaves out what the set-up left resident,
    whose amount depends on allocator fragmentation and so on the seed.
    """

    def __init__(self) -> None:
        self.base_mb = 0.0

    def start(self) -> None:
        gc.collect()
        with contextlib.suppress(OSError, AttributeError):
            ctypes.CDLL("libc.so.6").malloc_trim(0)
        Path("/proc/self/clear_refs").write_text("5")
        self.base_mb = _status_mb("VmRSS")

    def added_mb(self) -> float:
        return _status_mb("VmHWM") - self.base_mb


def _tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
def record_paper_stream(path: Path, seed: int, loyal: int, churners: int) -> int:
    """Record the paper scenario as a stream file; returns its baskets."""
    dataset = paper_scenario(n_loyal=loyal, n_churners=churners, seed=seed)
    baskets = sorted(dataset.log, key=lambda b: (b.day, b.customer_id))
    record_stream(
        baskets,
        path,
        calendar=dataset.calendar,
        meta={"seed": seed, "n_loyal": loyal, "n_churners": churners},
    )
    return len(baskets)


class DayBatchLatency:
    """Ingest-to-durable latency of every day batch of a replay, on the
    CPU clock: from the moment the loop reads the day off the stream to
    the end of the cursor commit that covers it."""

    def __init__(self) -> None:
        self.read_at: list[float] = []
        self.commits: list[tuple[float, int]] = []

    def patches(self) -> list[tuple[Any, str, Any]]:
        replay, commit = serve_loop.replay_stream, ServeCheckpoint.commit

        def stamped_replay(*args: Any, **kwargs: Any) -> Any:
            for day_batch in replay(*args, **kwargs):
                self.read_at.append(cpu_clock())
                yield day_batch

        def stamped_commit(checkpoint: ServeCheckpoint, cursor: Any) -> Path:
            path = commit(checkpoint, cursor)
            self.commits.append((cpu_clock(), cursor.day_batches_consumed))
            return path

        return [
            (serve_loop, "replay_stream", stamped_replay),
            (ServeCheckpoint, "commit", stamped_commit),
        ]

    def samples_ms(self) -> list[float]:
        samples = []
        for index, read_at in enumerate(self.read_at):
            durable_at = next(t for t, consumed in self.commits if consumed > index)
            samples.append((durable_at - read_at) * 1e3)
        return samples


def _serve_layer_patches(
    recorder: Recorder, written: list[int]
) -> list[tuple[Any, str, Any]]:
    replay = serve_loop.replay_stream
    pool, checkpoint = ShardedMonitorPool, ServeCheckpoint
    return [
        (
            serve_loop,
            "replay_stream",
            lambda *a, **k: recorder.wrap_iter(replay(*a, **k), "synth.stream.parse"),
        ),
        (pool, "process_batch", recorder.wrap(pool.process_batch, "serve.pool.process_batch")),
        (pool, "snapshot_shards", recorder.wrap(pool.snapshot_shards, "serve.pool.snapshot")),
        (pool, "finish", recorder.wrap(pool.finish, "serve.pool.finish")),
        (
            checkpoint,
            "write_state",
            recorder.wrap(
                checkpoint.write_state,
                "serve.checkpoint.write_state",
                after=lambda directory: written.append(_tree_bytes(directory)),
            ),
        ),
        (
            checkpoint,
            "commit",
            recorder.wrap(
                checkpoint.commit,
                "serve.checkpoint.commit",
                after=lambda cursor_path: written.append(cursor_path.stat().st_size),
            ),
        ),
    ]


def serve_problems(
    result: Any, fingerprint: str, n_baskets: int, *, rescore: bool = False
) -> list[str]:
    """Why a served result is wrong (empty when it is right)."""
    problems = []
    if not result.finished:
        problems.append("run did not finish")
    if result.counters.ingested != n_baskets:
        problems.append(f"ingested {result.counters.ingested} of {n_baskets} baskets")
    if result.fingerprint() != fingerprint:
        problems.append(
            f"score fingerprint {result.fingerprint()} != offline {fingerprint}"
        )
    if rescore and result.batches_this_run != 0:
        problems.append(f"rescore re-served {result.batches_this_run} batches")
    return problems


def serve_workload(
    ctx: Context,
    *,
    heavy: bool,
    loyal: int = SERVE_LOYAL,
    churners: int = SERVE_CHURNERS,
) -> Measured:
    recorder = ctx.recorder
    stream = ctx.workdir / "stream.jsonl"
    setup_times = []
    for _ in range(SERVE_SETUPS):
        start = cpu_clock()
        with recorder.span("synth.record"):
            n_baskets = record_paper_stream(stream, ctx.seed, loyal, churners)
        setup_times.append(cpu_clock() - start)
    batch_size = HEAVY_BATCH_SIZE if heavy else n_baskets + 1

    written: list[int] = []
    layer_patches = _serve_layer_patches(recorder, written) if recorder.enabled else []
    with patched(layer_patches):
        with recorder.span("core.streaming.offline_sweep"):
            reference = serve_loop.offline_sweep_stream(stream)
        fingerprint = reference.fingerprint()
        n_customers = len(reference.scores)

        def check(result: Any) -> list[str]:
            return serve_problems(result, fingerprint, n_baskets)

        def check_rescore(result: Any) -> list[str]:
            return serve_problems(result, fingerprint, n_baskets, rescore=True)

        replay_cpu: list[float] = []
        rescore_cpu: list[float] = []
        latencies: list[float] = []
        state_customers: list[int] = []
        rss = PeakRss()
        rss.start()
        start = perf_counter()
        replays = 0
        while replays == 0 or perf_counter() - start < ctx.seconds:
            checkpoint_dir = ctx.workdir / f"checkpoint-{replays}"
            replays += 1

            def serve(directory: Path = checkpoint_dir) -> Any:
                return serve_loop.serve_stream(
                    stream, directory, batch_size=batch_size, n_shards=N_SHARDS
                )

            probe = DayBatchLatency()
            with patched(probe.patches()):
                cpu, result = ctx.run_op("serve.replay", serve, check)
            if cpu is None:
                continue
            replay_cpu.append(cpu)
            latencies.extend(probe.samples_ms())
            state_customers.append(len(result.scores))
            for _ in range(SERVE_RESCORES):
                cpu, _ = ctx.run_op("serve.rescore", serve, check_rescore)
                if cpu is not None:
                    rescore_cpu.append(cpu)
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        peak = rss.added_mb()

    latency = latency_summary(latencies)
    end_to_end = {
        "setup_s": median(setup_times),
        "peak_rss_mb": peak,
        "score_customers_per_s": n_customers / median(replay_cpu),
        "rescore_customers_per_s": n_customers / median(rescore_cpu),
        "batch_latency_p50_ms": latency["p50"],
        "batch_latency_p80_ms": latency["p80"],
    }
    layer_counts = {
        "serve.checkpoint.bytes_per_commit": _bytes_per_commit(recorder, written),
        "serve.state_customers": median(state_customers),
    }
    extras = {
        "serve_baskets_per_s": n_baskets / median(replay_cpu),
        "score_wall_customers_per_s": n_customers / ctx.median_wall("serve.replay"),
        "rescore_wall_customers_per_s": n_customers / ctx.median_wall("serve.rescore"),
        "baskets": n_baskets,
        "customers": n_customers,
        "batch_size": batch_size,
        "replays": len(replay_cpu),
        "rescores": len(rescore_cpu),
        "batch_latency_samples": latency["n"],
        "batch_latency_supported_pct": latency["supported_pct"],
        "setup_samples_s": setup_times,
    }
    return Measured(
        end_to_end,
        per_layer_metrics(recorder, layer_counts),
        extras,
        replay_cpu,
    )


def _bytes_per_commit(recorder: Recorder, written: list[int]) -> float:
    commits = sum(1 for s in recorder.spans if s.name == "serve.checkpoint.commit")
    return sum(written) / commits if commits else 0.0


# ----------------------------------------------------------------------
# Offline workload
# ----------------------------------------------------------------------
def fit_digest(fit: Any) -> str:
    """Digest of every array a fit produces (bit-identity checks)."""
    digest = hashlib.sha256()
    for array in (fit.customer_ids, fit.stability, fit.kept_mass, fit.total_mass):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def in_ram_reference(store: Any, alpha: float) -> Any:
    """Fit of the store's columns copied into RAM, in four shards to
    bound kernel temporaries (customers are independent, so the
    stacked shards equal one whole-population fit)."""
    frame = PopulationFrame(
        grid=store.grid(),
        **{name: np.array(store.column(name)) for name in store.manifest["columns"]},
    )
    n = frame.n_customers
    bounds = np.linspace(0, n, 5).astype(int)
    parts = [
        batch.stability_matrix(frame.shard(int(lo), int(hi)), alpha=alpha, n_jobs=1)
        for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
        if hi > lo
    ]
    return batch.BatchStability(
        frame,
        np.vstack([p.stability for p in parts]),
        np.vstack([p.kept_mass for p in parts]),
        np.vstack([p.total_mass for p in parts]),
    )


def incremental_problems(
    reference: Any, config: ExperimentConfig, seed: int
) -> list[str]:
    """Compare sampled customers against the incremental engine."""
    frame = reference.population
    n = frame.n_customers
    width = min(SAMPLE_WIDTH, n)
    starts = np.random.default_rng(seed).integers(0, n - width + 1, SAMPLE_RANGES)
    spec = FitSpec(significance=config.significance())
    problems = []
    for lo in sorted(int(s) for s in starts):
        shard = frame.shard(lo, lo + width)
        trajectories = IncrementalEngine().fit(shard, spec).trajectories or {}
        got = np.array(
            [
                [record.stability for record in trajectories[int(cid)].records]
                for cid in shard.customer_ids
            ]
        )
        want = reference.stability[lo : lo + width]
        same_nan = np.array_equal(np.isnan(got), np.isnan(want))
        if not same_nan or np.nanmax(np.abs(got - want), initial=0.0) > ENGINE_TOLERANCE:
            problems.append(f"customers {lo}..{lo + width} differ from the incremental engine")
    return problems


def _offline_layer_patches(recorder: Recorder) -> list[tuple[Any, str, Any]]:
    return [
        (slabs, "build_slab_store", recorder.wrap(slabs.build_slab_store, "data.slabs.build")),
        (slabs, "open_slab_store", recorder.wrap(slabs.open_slab_store, "data.slabs.open")),
        (batch, "stability_matrix", recorder.wrap(batch.stability_matrix, "core.batch.fit")),
        (
            batch,
            "run_sharded",
            recorder.wrap(batch.run_sharded, "runtime.executor.run_sharded"),
        ),
    ]


def offline_workload(ctx: Context, *, customers: int = OFFLINE_CUSTOMERS) -> Measured:
    recorder = ctx.recorder
    calendar = StudyCalendar.paper()
    config = ExperimentConfig()
    grid = config.grid(calendar)
    setup_times = []
    chunks: list[Any] = []
    for _ in range(OFFLINE_SETUPS):
        chunks = []  # release the previous copy before generating again
        start = cpu_clock()
        with recorder.span("synth.slab_stream.gen"):
            chunks = list(
                synthetic_slab_stream(
                    customers, calendar.n_days, seed=ctx.seed, chunk_customers=CHUNK_CUSTOMERS
                )
            )
        setup_times.append(cpu_clock() - start)
    basket_rows = sum(len(chunk.basket_customer) for chunk in chunks)
    store_dir = ctx.workdir / "store"

    # Each fit's digest is compared with the in-RAM reference after the
    # timed loop, so the reference's memory stays out of peak_rss_mb.
    fits: list[tuple[str, str, list[str]]] = []
    score_cpu: list[float] = []
    rescore_cpu: list[float] = []
    latencies: list[float] = []
    store_bytes: list[int] = []
    rss = PeakRss()
    executions: list[Any] = []

    def keep(label: str, fit: Any, problems: list[str]) -> None:
        fits.append((label, fit_digest(fit), problems))
        if fit.execution is not None:
            executions.append(fit.execution)

    with patched(_offline_layer_patches(recorder) if recorder.enabled else []):
        rss.start()
        start = perf_counter()
        passes = 0
        while passes == 0 or perf_counter() - start < ctx.seconds:
            passes += 1
            shutil.rmtree(store_dir, ignore_errors=True)
            read_at: list[float] = []

            def stamped_chunks(read_at: list[float] = read_at) -> Any:
                for chunk in chunks:
                    read_at.append(cpu_clock())
                    yield chunk

            def score(read_at: list[float] = read_at) -> Any:
                built = slabs.build_slab_store(
                    stamped_chunks(read_at), grid, store_dir, fingerprint=f"perfbench-{ctx.seed}"
                )
                durable_at = cpu_clock()
                store = slabs.open_slab_store(store_dir)
                fit = batch.stability_matrix(store.frame(), alpha=config.alpha, n_jobs=FIT_JOBS)
                return built, durable_at, fit

            def rescore() -> Any:
                store = slabs.open_slab_store(store_dir)
                return batch.stability_matrix(store.frame(), alpha=config.alpha, n_jobs=FIT_JOBS)

            cpu, result = ctx.run_op("offline.score", score)
            if cpu is None:
                continue
            built, durable_at, fit = result
            score_cpu.append(cpu)
            latencies.extend((durable_at - t) * 1e3 for t in read_at)
            store_bytes.append(
                sum(int(spec["nbytes"]) for spec in built.manifest["columns"].values())
            )
            problems = []
            if built.n_customers != customers:
                problems.append(f"store holds {built.n_customers} of {customers} customers")
            rows = int(built.manifest["columns"]["basket_days"]["rows"])
            if rows != basket_rows:
                problems.append(f"store holds {rows} of {basket_rows} baskets")
            keep("offline.score", fit, problems)
            del built, fit, result
            for _ in range(OFFLINE_RESCORES):
                cpu, fit = ctx.run_op("offline.rescore", rescore)
                if cpu is not None:
                    rescore_cpu.append(cpu)
                    keep("offline.rescore", fit, [])
                del fit
        peak = rss.added_mb()
    chunks = []  # free the inputs before the reference fit

    if fits:
        reference = in_ram_reference(slabs.open_slab_store(store_dir), config.alpha)
        expected = fit_digest(reference)
        for label, digest, problems in fits:
            if digest != expected:
                problems = [*problems, "fit differs from the in-RAM fit of the same columns"]
            ctx.tally.record(label, problems)
        ctx.tally.record(
            "incremental sample", incremental_problems(reference, config, ctx.seed)
        )
    shutil.rmtree(store_dir, ignore_errors=True)

    latency = latency_summary(latencies)
    end_to_end = {
        "setup_s": median(setup_times),
        "peak_rss_mb": peak,
        "score_customers_per_s": customers / median(score_cpu),
        "rescore_customers_per_s": customers / median(rescore_cpu),
        "batch_latency_p50_ms": latency["p50"],
        "batch_latency_p80_ms": latency["p80"],
    }
    layer_counts = {
        "data.slabs.store_bytes": median(store_bytes),
        "runtime.executor.retried": sum(e.n_retried for e in executions),
        "runtime.executor.degraded": sum(e.n_degraded for e in executions),
    }
    extras = {
        "score_wall_customers_per_s": customers / ctx.median_wall("offline.score"),
        "rescore_wall_customers_per_s": customers / ctx.median_wall("offline.rescore"),
        "customers": customers,
        "baskets": basket_rows,
        "score_passes": len(score_cpu),
        "rescores": len(rescore_cpu),
        "batch_latency_samples": latency["n"],
        "batch_latency_supported_pct": latency["supported_pct"],
        "setup_samples_s": setup_times,
    }
    return Measured(
        end_to_end,
        per_layer_metrics(recorder, layer_counts),
        extras,
        score_cpu,
    )


# ----------------------------------------------------------------------
# Per-layer metrics from the spans
# ----------------------------------------------------------------------
def per_layer_metrics(recorder: Recorder, counts: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, as the median over operations of the
    layer's self time in one operation.  Layers a workload does not
    exercise read 0."""
    spans = recorder.spans
    replays = per_root(spans, "serve.replay")
    scores = per_root(spans, "offline.score")
    rescores = per_root(spans, "offline.rescore")

    def self_s(rows: list[dict[str, Any]], name: str) -> float:
        return median(row["self"].get(name, 0.0) for row in rows) if rows else 0.0

    def wall_s(name: str) -> float:
        durations = [s.duration for s in spans if s.name == name]
        return median(durations) if durations else 0.0

    checkpoint = [sum(row["self"].get(n, 0.0) for n in CHECKPOINT_SPANS) for row in replays]
    metrics = {
        "synth.stream.parse_s": self_s(replays, "synth.stream.parse"),
        "serve.pool.process_batch_s": self_s(replays, "serve.pool.process_batch"),
        "serve.pool.process_batch_calls": (
            median(row["calls"].get("serve.pool.process_batch", 0) for row in replays)
            if replays
            else 0
        ),
        "serve.pool.finish_s": self_s(replays, "serve.pool.finish"),
        "serve.pool.snapshot_s": self_s(replays, "serve.pool.snapshot"),
        "serve.checkpoint.write_state_s": self_s(replays, "serve.checkpoint.write_state"),
        "serve.checkpoint.commit_s": self_s(replays, "serve.checkpoint.commit"),
        "serve.checkpoint.bytes_per_commit": 0.0,
        "serve.checkpoint.self_s": median(checkpoint) if replays else 0.0,
        "serve.wall_s": median(row["wall"] for row in replays) if replays else 0.0,
        "serve.checkpoint.share": (
            median(c / row["wall"] for c, row in zip(checkpoint, replays, strict=True))
            if replays
            else 0.0
        ),
        "serve.loop.other_s": self_s(replays, "serve.replay"),
        "serve.state_customers": 0,
        "core.streaming.offline_sweep_s": wall_s("core.streaming.offline_sweep"),
        "synth.slab_stream.gen_s": wall_s("synth.slab_stream.gen"),
        "data.slabs.build_s": self_s(scores, "data.slabs.build"),
        "data.slabs.store_bytes": 0,
        "data.slabs.open_s": self_s(rescores, "data.slabs.open"),
        "core.batch.fit_s": self_s(rescores, "core.batch.fit"),
        "runtime.executor.run_s": self_s(rescores, "runtime.executor.run_sharded"),
        "runtime.executor.retried": 0,
        "runtime.executor.degraded": 0,
    }
    metrics.update(counts)
    return metrics


#: ``serve-commit-light`` runs but is not in BENCHMARK.json: a third
#: listed workload would not fit the benchmark's time budget on a loaded
#: host (see README.md).  It stays runnable because it shows the
#: checkpoint share when commits are few.
WORKLOADS: dict[str, Callable[[Context], Measured]] = {
    "serve-commit-heavy": lambda ctx: serve_workload(ctx, heavy=True),
    "offline-score-100k": offline_workload,
    "serve-commit-light": lambda ctx: serve_workload(ctx, heavy=False),
}
