"""repro.soak — chaos/soak harness for the serving layer.

Replays recorded basket streams (:mod:`repro.synth.stream`) against
:mod:`repro.serve` under a frozen :class:`SoakPlan` (loops or wall-clock
duration, optional basket-rate cap, latency/throughput SLO budgets)
while a deterministic :class:`ChaosSchedule` — ``(batch, site)`` cells,
the serving-layer generalisation of
:class:`~repro.runtime.faults.FaultPlan`'s ``(shard, attempt)`` cells —
injects kill/resume legs, torn checkpoint files and transient
checkpoint-I/O errors mid-soak.

After every fault the harness verifies the runbook invariants (resume
succeeds, rework stays within the per-site bound, cumulative counters
never regress) and after every loop it checks score-fingerprint parity
with the offline sweep.  Results — p50/p95/p99 per-batch score latency,
throughput, the fault ledger and SLO verdicts — are pinned as the
``soak`` scenario of ``BENCH_serve.json``.

Layout
------
:mod:`repro.soak.plan`
    :class:`SoakPlan` and :class:`ChaosSchedule` (validated, frozen).
:mod:`repro.soak.harness`
    :func:`run_soak` and the report dataclasses.
:mod:`repro.soak.bench`
    ``BENCH_serve.json`` writer and the human-readable renderer.
"""

from repro.soak.bench import (
    BENCH_SERVE_NAME,
    TELEMETRY_OVERHEAD_BUDGET_PCT,
    live_plane_overhead,
    render_soak,
    write_bench,
)
from repro.soak.harness import (
    FaultOutcome,
    LoopOutcome,
    SimulatedKill,
    SoakReport,
    run_soak,
    stream_shape,
)
from repro.soak.plan import (
    CHAOS_SITES,
    SITE_CKPT_IO,
    SITE_KILL_RESUME,
    SITE_TEAR_CURSOR,
    SITE_TEAR_STATE,
    ChaosCell,
    ChaosSchedule,
    SoakPlan,
)

__all__ = [
    "BENCH_SERVE_NAME",
    "TELEMETRY_OVERHEAD_BUDGET_PCT",
    "live_plane_overhead",
    "render_soak",
    "write_bench",
    "FaultOutcome",
    "LoopOutcome",
    "SimulatedKill",
    "SoakReport",
    "run_soak",
    "stream_shape",
    "CHAOS_SITES",
    "SITE_CKPT_IO",
    "SITE_KILL_RESUME",
    "SITE_TEAR_CURSOR",
    "SITE_TEAR_STATE",
    "ChaosCell",
    "ChaosSchedule",
    "SoakPlan",
]
