"""Run the repo benchmark.

One workload, as the benchmark contract runs it::

    python3 perfbench/run.py --workload serve-commit-heavy --seed 1 --seconds 10 --trace 0

prints every metric by name and unit, saves the result with its
provenance under ``perfbench/out/results/`` and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs with spans around each layer
and reports the per-layer metrics (spans saved as JSONL beside it).

Every workload, untraced ``--repeats`` times and then traced once, with
medians, quartiles and the tracing overhead::

    python3 perfbench/run.py --workload all --seed 1 --seconds 10

It must run from a full checkout: it scores the ``repro`` package under
``src/`` and exits non-zero when that package is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload: str, seed: int) -> dict[str, Any]:
    """Host, versions and source identity of a run.  Outside a git
    checkout ``git_sha`` is null and ``source_digest`` (SHA-256 over
    ``src/repro``) identifies the code."""
    import numpy

    toplevel = _git("rev-parse", "--show-toplevel")
    in_git = toplevel is not None and Path(toplevel).resolve() == ROOT
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))
        if in_git
        else None,
        "source_digest": digest.hexdigest()[:16],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload in this process; the saved result record."""
    from spans import Recorder
    from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS, Context

    run_id = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(seed, seconds, workdir, Recorder(run_id, enabled=trace))
    try:
        measured = WORKLOADS[name](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values, units = (
        (measured.per_layer, PER_LAYER_UNITS) if trace else (measured.end_to_end, END_TO_END_UNITS)
    )
    if not all(math.isfinite(values[key]) for key in units):
        for problem in ctx.tally.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        raise SystemExit(f"perfbench: {name} completed no operation; no result")
    record = {
        "provenance": provenance(name, seed),
        "seconds": seconds,
        "trace": trace,
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "problems": ctx.tally.problems,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
        "extras": measured.extras,
        "op_cpu_s": measured.op_cpu,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        ctx.recorder.write_jsonl(results / f"{run_id}.spans.jsonl")
    return record


def report(record: dict[str, Any]) -> None:
    """Human-readable lines, then the contract's one-line JSON result."""
    prov = record["provenance"]
    git = prov["git_sha"] or "not a git checkout"
    if prov["git_dirty"]:
        git += " (dirty)"
    print(
        f"perfbench {prov['workload']} seed={prov['seed']} trace={int(record['trace'])} "
        f"host={prov['host']} nproc={prov['nproc']} python={prov['python']} "
        f"numpy={prov['numpy']} git={git} source={prov['source_digest']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6f} {metric['unit']}")
    for name, value in record["extras"].items():
        print(f"  {name:<36} {value}")
    print(f"  fail_ratio                           {record['failed']}/{record['attempted']}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    result = {key: record[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = record["metrics"]
    print(json.dumps(result), flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any] | None:
    """One run in a fresh process, as the contract runs it (so no run
    inherits another's heap); its saved record, or None if it failed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if subprocess.run(argv, stdout=subprocess.DEVNULL).returncode != 0:
        return None
    return json.loads((OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").read_text())


def run_all(names: list[str], seed: int, seconds: float, repeats: int) -> int:
    """Every workload untraced ``repeats`` times (seeds seed, seed+1, ...)
    and traced once, one process after another; medians, quartiles and
    tracing overhead."""
    summary: dict[str, Any] = {"provenance": provenance("all", seed), "workloads": {}}
    ok = True
    for name in names:
        runs = [run_child(name, seed + i, seconds, trace=False) for i in range(repeats)]
        traced = run_child(name, seed, seconds, trace=True)
        if traced is None or None in runs:
            print(f"== {name}: a run failed; its errors are above", file=sys.stderr)
            ok = False
            continue
        ok &= all(r["correct"] for r in [*runs, traced])
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            q1, q2, q3 = quartiles([r["metrics"][metric]["value"] for r in runs])
            metrics[metric] = {"median": q2, "q1": q1, "q3": q3, "unit": first["unit"]}
        # Overhead: traced minus untraced CPU time of the same operation,
        # on the first seed.  It is noise unless it exceeds the spread
        # (max - min) of the untraced runs' times; tracing only adds
        # work, so a negative overhead is always noise.
        untraced = [statistics.median(r["op_cpu_s"]) for r in runs]
        traced_cpu = statistics.median(traced["op_cpu_s"])
        overhead = traced_cpu - untraced[0]
        summary["workloads"][name] = {
            "end_to_end": metrics,
            "per_layer": traced["metrics"],
            "fail_ratio": f"{sum(r['failed'] for r in [*runs, traced])}/"
            f"{sum(r['attempted'] for r in [*runs, traced])}",
            "trace_overhead_s": overhead,
            "trace_overhead_pct": 100.0 * overhead / untraced[0],
            "trace_overhead_is_noise": overhead <= max(untraced) - min(untraced),
            "untraced_cpu_s": untraced,
            "traced_cpu_s": traced_cpu,
        }
        print(f"== {name} ({repeats} untraced runs, 1 traced)")
        for metric, stats in metrics.items():
            print(
                f"  {metric:<36} median {stats['median']:>14.4f} "
                f"IQR [{stats['q1']:.4f}, {stats['q3']:.4f}] {stats['unit']}"
            )
        for metric, value in traced["metrics"].items():
            print(f"  {metric:<36} {value['value']:>21.6f} {value['unit']}")
        entry = summary["workloads"][name]
        label = "noise" if entry["trace_overhead_is_noise"] else "measured"
        print(
            f"  trace overhead {overhead:+.3f} s ({entry['trace_overhead_pct']:+.1f}%, "
            f"{label}); fail_ratio {entry['fail_ratio']}"
        )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"summary: {OUT / 'summary.json'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text())
    use_checkout_source()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeats", type=int, default=3, help="untraced runs per workload with --workload all"
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        names = [w["name"] for w in spec["workloads"]]
        return run_all(names, args.seed, args.seconds, args.repeats)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
