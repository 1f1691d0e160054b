"""Pinning soak results: the ``BENCH_serve.json`` artifact.

The soak harness's measurements (latency quantiles, throughput, fault
ledger, SLO verdicts) are pinned the same way the scaling benches pin
theirs: a JSON artifact refreshed key-by-key through
:func:`repro.eval.benchmarking.merge_scaling_json`, so the ``soak``
scenario can be regenerated without discarding whatever other scenarios
later benches add to the same file.

:func:`live_plane_overhead` extends the PR-4 telemetry contract to the
live plane: one serve pass with the full publisher/window/flight stack
attached must stay **bit-identical** in scores to a bare pass and cost
less than the pinned overhead budget in hot-path time; the verdict
lands in the artifact's ``telemetry_plane`` scenario.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from repro.errors import SoakError
from repro.eval.benchmarking import merge_scaling_json, noise_floored_overhead
from repro.obs import FlightRecorder, MetricsPublisher, MetricsRegistry, use_metrics
from repro.serve.loop import serve_stream
from repro.soak.harness import SoakReport

__all__ = [
    "BENCH_SERVE_NAME",
    "write_bench",
    "render_soak",
    "live_plane_overhead",
    "TELEMETRY_OVERHEAD_BUDGET_PCT",
]

#: The pinned hot-path budget for the live plane, in percent of bare
#: serve time — the same <3% contract PR 4 pinned for the base
#: telemetry spine.
TELEMETRY_OVERHEAD_BUDGET_PCT = 3.0

#: Canonical artifact name (committed at the repo root, refreshed by
#: ``make soak-smoke`` and uploaded by the CI ``soak-smoke`` job).
BENCH_SERVE_NAME = "BENCH_serve.json"


def write_bench(report: SoakReport, path: str | Path) -> dict:
    """Merge the report's ``soak`` scenario into the bench artifact.

    Returns the full merged payload (other top-level scenarios, if any,
    are preserved).
    """
    return merge_scaling_json(Path(path), {"soak": report.to_payload()})


def live_plane_overhead(
    stream_path: str | Path,
    *,
    batch_size: int = 64,
    repeats: int = 5,
    interval_s: float = 0.0,
    budget_pct: float = TELEMETRY_OVERHEAD_BUDGET_PCT,
) -> dict[str, object]:
    """Measure the live telemetry plane's cost on one serve pass.

    Serves ``stream_path`` to completion ``repeats`` times bare and
    ``repeats`` times with the full plane attached — a recording
    registry, a :class:`~repro.obs.export.MetricsPublisher` publishing
    every batch (``interval_s=0`` is the worst case: no tick is ever
    skipped), a JSONL stream sink and a flight recorder.  Scores must
    be bit-identical across the two modes; a fingerprint mismatch
    raises :class:`~repro.errors.SoakError` because that is a
    correctness bug, not a performance number.

    The overhead number is **not** a difference of whole-run wall
    clocks: on a shared box those carry ±5-10% of scheduler/throttle
    noise, far beyond the 3% budget being certified.  The plane's only
    hot-path addition is :meth:`~repro.obs.export.MetricsPublisher.
    tick` (plus two gauge sets inside it), and the publisher accrues
    exactly that time in ``tick_seconds``.  Each plane-on run therefore
    gives a bare time ``wall - tick_seconds`` and a plane time ``wall``,
    and the two series go through the shared noise rule,
    :func:`~repro.eval.benchmarking.noise_floored_overhead`.  The
    off-mode runs still serve two purposes: the fingerprint parity check
    and the reported ``off_s`` baseline.

    Returns the ``telemetry_plane`` scenario payload:
    ``{off_s, on_s, tick_s, overhead_pct, raw_overhead_pct,
    noise_floor_pct, noise_dominated, budget_pct, ok, fingerprint}``.
    """
    stream = Path(stream_path)
    scratch = Path(tempfile.mkdtemp(prefix="repro-plane-bench-"))
    off_times: list[float] = []
    on_times: list[float] = []
    tick_times: list[float] = []
    fingerprints: set[str] = set()
    try:
        # One untimed pass warms the page cache and import state; modes
        # interleave per repeat so drift hits both sides alike.
        serve_stream(stream, scratch / "warmup", batch_size=batch_size)
        for repeat in range(repeats):
            for mode in ("off", "on"):
                checkpoint_dir = scratch / f"{mode}-{repeat:02d}"
                publisher = None
                registry: MetricsRegistry | None = None
                if mode == "on":
                    registry = MetricsRegistry()
                    publisher = MetricsPublisher(
                        flight=FlightRecorder(checkpoint_dir / "flight"),
                        stream_path=checkpoint_dir / "metrics-stream.jsonl",
                        interval_s=interval_s,
                    )
                started = time.perf_counter()
                if registry is not None and publisher is not None:
                    with use_metrics(registry):
                        result = serve_stream(
                            stream,
                            checkpoint_dir,
                            batch_size=batch_size,
                            publisher=publisher,
                        )
                else:
                    result = serve_stream(
                        stream, checkpoint_dir, batch_size=batch_size
                    )
                elapsed = time.perf_counter() - started
                if publisher is not None:
                    on_times.append(elapsed)
                    tick_times.append(publisher.tick_seconds)
                else:
                    off_times.append(elapsed)
                fingerprints.add(result.fingerprint())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if len(fingerprints) != 1:
        raise SoakError(
            "live plane changed the served scores: "
            f"fingerprints {sorted(fingerprints)}"
        )
    verdict = noise_floored_overhead(
        [wall - tick for wall, tick in zip(on_times, tick_times, strict=True)],
        on_times,
    )
    return {
        "stream": str(stream),
        "batch_size": batch_size,
        "repeats": repeats,
        "off_s": min(off_times),
        "on_s": min(on_times),
        "tick_s": min(tick_times),
        **verdict,
        "budget_pct": budget_pct,
        "ok": verdict["overhead_pct"] < budget_pct,
        "fingerprint": next(iter(fingerprints)),
    }


def render_soak(report: SoakReport) -> str:
    """Human-readable one-screen summary of a soak report."""
    lines = [
        f"soak: {'PASSED' if report.passed else 'FAILED'}",
        f"  stream: {report.stream} ({report.stream_fingerprint})",
        f"  loops: {len(report.loops)} x {report.n_batches_per_loop} "
        f"batch(es) ({report.baskets_per_loop} baskets/loop), "
        f"{report.legs} leg(s)",
        f"  faults injected: {report.faults_injected}",
    ]
    for loop in report.loops:
        for fault in loop.faults:
            lines.append(
                f"    loop {loop.loop_index} batch {fault.batch} "
                f"{fault.site}: "
                f"{'injected' if fault.injected else 'MISSED'}, "
                f"rework={fault.rework_batches} — {fault.detail}"
            )
    lines.append(
        f"  latency ms: p50={report.latency_ms['p50']:.1f} "
        f"p95={report.latency_ms['p95']:.1f} "
        f"p99={report.latency_ms['p99']:.1f} "
        f"max={report.latency_ms['max']:.1f} "
        f"(n={int(report.latency_ms['count'])})"
    )
    lines.append(
        f"  throughput: {report.throughput_baskets_s:.1f} baskets/s "
        f"over {report.elapsed_s:.1f}s"
    )
    for name, verdict in report.slo.items():
        lines.append(
            f"  SLO {name}: {'ok' if verdict['ok'] else 'VIOLATED'} "
            f"({verdict})"
        )
    parity = all(loop.parity_ok for loop in report.loops)
    lines.append(
        f"  parity vs offline sweep: {'ok' if parity else 'BROKEN'} "
        f"({report.reference_fingerprint})"
    )
    for violation in report.violations:
        lines.append(f"  violation: {violation}")
    return "\n".join(lines)
