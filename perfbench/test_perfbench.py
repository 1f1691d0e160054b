"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run the real workload code on tiny inputs, so they take seconds.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import time

import pytest

import run

run.use_checkout_source()

import workloads  # noqa: E402
from spans import Recorder, Span, latency_summary, per_root, self_times  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
TINY = {
    "serve-commit-heavy": lambda ctx: workloads.serve_workload(
        ctx, heavy=True, loyal=4, churners=4
    ),
    "serve-commit-light": lambda ctx: workloads.serve_workload(
        ctx, heavy=False, loyal=4, churners=4
    ),
    "offline-score-100k": lambda ctx: workloads.offline_workload(ctx, customers=400),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run the CLI's code path on tiny inputs, writing under tmp_path."""
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)

    def go(name: str, trace: bool) -> dict:
        return run.run_workload(name, seed=3, seconds=0.0, trace=trace)

    return go


# ----------------------------------------------------------------------
# A corrupted result counts as a failure
# ----------------------------------------------------------------------
def test_corrupted_serve_result_counts_as_failure(tiny, monkeypatch):
    serve_stream = workloads.serve_loop.serve_stream

    def corrupted(*args, **kwargs):
        result = serve_stream(*args, **kwargs)
        first = min(result.scores)
        return dataclasses.replace(
            result, scores={**result.scores, first: result.scores[first] + 1e-9}
        )

    monkeypatch.setattr(workloads.serve_loop, "serve_stream", corrupted)
    record = tiny("serve-commit-heavy", trace=False)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert not record["correct"]
    assert "fingerprint" in record["problems"][0]


def test_corrupted_offline_fit_counts_as_failure(tiny, monkeypatch):
    stability_matrix = workloads.batch.stability_matrix

    def corrupted(population, alpha=2.0, n_jobs=1, **kwargs):
        fit = stability_matrix(population, alpha=alpha, n_jobs=n_jobs, **kwargs)
        if n_jobs > 1:  # the timed fits; the in-RAM reference is serial
            fit.kept_mass[0, 0] += 1.0
        return fit

    monkeypatch.setattr(workloads.batch, "stability_matrix", corrupted)
    record = tiny("offline-score-100k", trace=False)
    # Every timed fit fails; the incremental sample check still passes.
    assert record["failed"] == record["attempted"] - 1
    assert any("in-RAM" in problem for problem in record["problems"])


def test_raising_operation_counts_as_failure(tmp_path):
    ctx = workloads.Context(1, 0.0, tmp_path, Recorder("t", enabled=False))

    def boom():
        raise OSError("disk full")

    cpu, result = ctx.run_op("op", boom)
    assert (cpu, result) == (None, None)
    assert (ctx.tally.attempted, ctx.tally.failed) == (1, 1)
    assert "disk full" in ctx.tally.problems[0]


def _spin(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_cpu_clock_counts_waited_for_workers(tmp_path):
    """The fit's CPU time is spent in worker processes; the timed
    operation must include it once the workers are joined."""
    ctx = workloads.Context(1, 0.0, tmp_path, Recorder("t", enabled=False))

    def in_worker():
        worker = multiprocessing.get_context("spawn").Process(target=_spin, args=(0.3,))
        worker.start()
        worker.join(timeout=60)
        return worker

    start_own = time.process_time()
    cpu, worker = ctx.run_op("op", in_worker)
    assert not worker.is_alive() and worker.exitcode == 0
    assert cpu >= 0.25
    assert time.process_time() - start_own < 0.2
    assert len(ctx.walls["op"]) == 1


def test_serve_problems_names_each_mismatch(tmp_path):
    stream = tmp_path / "stream.jsonl"
    n_baskets = workloads.record_paper_stream(stream, seed=5, loyal=3, churners=3)
    reference = workloads.serve_loop.offline_sweep_stream(stream)
    result = workloads.serve_loop.serve_stream(stream, tmp_path / "ckpt", batch_size=50)
    fingerprint = reference.fingerprint()
    assert workloads.serve_problems(result, fingerprint, n_baskets) == []
    unfinished = dataclasses.replace(result, finished=False)
    assert workloads.serve_problems(unfinished, fingerprint, n_baskets) == ["run did not finish"]
    assert workloads.serve_problems(result, fingerprint, n_baskets + 1)[0].startswith("ingested")


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def test_percentile_rule_reports_sample_count():
    summary = latency_summary([float(v) for v in range(1, 53)])
    assert summary["n"] == 52
    # 52 samples: p80 leaves 10.4 beyond it, so it is supported.
    assert summary["supported_pct"] == pytest.approx(100 * 42 / 52)
    assert summary["supported_pct"] >= 80
    assert (summary["p50"], summary["p80"]) == (26.0, 42.0)


def test_percentile_rule_with_few_samples():
    assert latency_summary([float(v) for v in range(20)])["supported_pct"] == 50.0
    few = latency_summary([3.0, 1.0, 2.0])
    assert few["n"] == 3
    assert few["supported_pct"] == 0.0
    assert (few["p50"], few["p80"]) == (2.0, 3.0)


# ----------------------------------------------------------------------
# Self time over nested spans
# ----------------------------------------------------------------------
def test_self_time_over_nested_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "a.inner", 2.0, 3.0, 1, "r"),
        Span(3, "b", 5.0, 9.0, 0, "r"),
        Span(4, "b.inner", 5.0, 6.0, 3, "r"),
        Span(5, "b.inner", 5.5, 7.0, 3, "r"),  # overlaps its sibling
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.5})
    (row,) = per_root(spans, "root")
    assert row["wall"] == 10.0
    assert row["self"]["b.inner"] == pytest.approx(2.5)
    assert row["calls"]["b.inner"] == 2


def test_recorder_nests_and_wraps():
    recorder = Recorder("t")

    def leaf():
        return 7

    wrapped = recorder.wrap(leaf, "leaf")
    with recorder.span("root"):
        assert wrapped() == 7
        assert list(recorder.wrap_iter([1, 2], "item")) == [1, 2]
    names = {s.id: s.name for s in recorder.spans}
    parents = {s.name: names.get(s.parent) for s in recorder.spans}
    assert parents == {"leaf": "root", "item": "root", "root": None}
    # two items plus the exhausting next()
    assert sum(s.name == "item" for s in recorder.spans) == 3
    (row,) = per_root(recorder.spans, "root")
    assert sum(row["self"].values()) == pytest.approx(row["wall"])


# ----------------------------------------------------------------------
# Printed metric names match BENCHMARK.json
# ----------------------------------------------------------------------
def test_unit_tables_match_benchmark_json():
    for section, units in (
        ("end_to_end", workloads.END_TO_END_UNITS),
        ("per_layer", workloads.PER_LAYER_UNITS),
    ):
        assert [(m["name"], m["unit"]) for m in SPEC[section]] == list(units.items())
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == list(workloads.WORKLOADS)[: len(listed)]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metric_names_match_benchmark_json(tiny, capsys, name, trace):
    record = tiny(name, trace)
    run.report(record)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    for metric in section:
        assert any(line.split()[:1] == [metric["name"]] for line in lines[:-1])
