"""Closed-loop runner shared by every workload: set-up, timed passes, checks, report.

One run is one process and one workload, so no run inherits another's
leaked state (Spark broadcasts are never released by the program, and
the Python heap only grows). Within a run:

1. ``start`` (the Spark cold start and warm-up job; nothing locally), then
   the workload's set-up repeated until ``SETUP_BUDGET_S`` has passed —
   ``setup_s`` is the median repetition plus the one-off start;
2. passes — every operation once, one at a time — until ``seconds`` have
   passed (at least ``MIN_PASSES``); each operation is timed alone, and
   the workload's ``warmup_passes`` first passes are checked but not timed;
3. the peak resident memory of this process, read before any reference is
   built;
4. references and a check of every operation's output, untimed; an
   operation that raised or whose output fails its check is failed.

Traced runs alternate untraced and traced passes: end-to-end figures come
from the untraced ones, per-layer figures from the traced ones, and the
difference of their medians is the tracing overhead.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from perfbench.layers import METRICS, median_of, pass_metrics, setup_metrics
from perfbench.tracing import Tracer, instrument, rss_mb

SETUP_BUDGET_S = 1.5
MIN_SETUPS, MAX_SETUPS = 3, 200
MIN_PASSES = 3  # timed passes, after the workload's warm-up passes
MIN_TRACED_PASSES = 4  # two untraced and two traced, after the warm-up passes


@dataclass
class OpRecord:
    pass_no: int
    name: str
    label: str
    seconds: float | None  # None when the operation raised
    output: object = None
    error: str | None = None
    counters: dict = field(default_factory=dict)


def make_workload(name: str, seed: int, trace: bool, root: Path, scratch: Path):
    """Construct a workload by name; Spark is imported only for ``spark_mc``."""
    if name == "mc_table1":
        from perfbench.local import MCTable1

        return MCTable1(seed, trace)
    if name == "celf_table2":
        from perfbench.local import CELFTable2

        return CELFTable2(seed)
    if name == "spark_mc":
        from perfbench.spark_mc import SparkMC

        cores = min(4, len(os.sched_getaffinity(0)))
        return SparkMC(seed, root / "src", scratch, cores)
    raise ValueError(f"unknown workload {name!r}")


def _slope(ys: list[float]) -> float:
    """Least-squares slope of ``ys`` against 0..len-1 (0 for fewer than two points)."""
    n = len(ys)
    if n < 2:
        return 0.0
    xm, ym = (n - 1) / 2, sum(ys) / n
    return sum((x - xm) * (y - ym) for x, y in enumerate(ys)) / sum((x - xm) ** 2 for x in range(n))


def drift_report(passes: list[dict]) -> dict:
    """Whether wall time or resident memory trends upward across the passes of one run."""
    out = {}
    for key in sorted({k for p in passes for k in p} - {"warmup", "traced", "spans"}):
        ys = [p[key] for p in passes if key in p]
        slope = _slope(ys)
        out[key] = {"first": ys[0], "last": ys[-1], "slope_per_pass": slope,
                    "trends_up": slope > 0 and ys[-1] > ys[0] * 1.05}
    return out


def host_probe_s() -> float:
    """Seconds for a fixed pure-Python loop: shows host slow-downs across passes."""
    t0 = perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i
    return perf_counter() - t0


def provenance(root: Path, workload, args: dict) -> dict:
    import numpy
    import pyspark

    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
    )
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "src_sha256": digest.hexdigest(),  # identifies the program when there is no git
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "spark_master": None,
        **args,
        **workload.provenance(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, scratch: Path) -> dict:
    """Run one workload and return the full report (the printed result is its ``result``)."""
    tracer = Tracer(enabled=trace)
    workload = make_workload(name, seed, trace, root, scratch)
    records: list[OpRecord] = []
    passes: list[dict] = []
    try:
        one_off = workload.start(tracer)
        setup_reps, setup_layers = [], []
        deadline = perf_counter() + SETUP_BUDGET_S
        while len(setup_reps) < MIN_SETUPS or (
            perf_counter() < deadline and len(setup_reps) < MAX_SETUPS
        ):
            lo = len(tracer.spans)
            t0 = perf_counter()
            workload.setup(tracer)
            setup_reps.append(perf_counter() - t0)
            setup_layers.append(setup_metrics(tracer.spans, lo, len(tracer.spans)))

        warm = workload.warmup_passes
        min_passes = warm + (MIN_TRACED_PASSES if trace else MIN_PASSES)
        t_start = perf_counter()
        while len(passes) < min_passes or perf_counter() - t_start < seconds:
            p = len(passes)
            traced = trace and p >= warm and (p - warm) % 2 == 1
            tracer.enabled = traced
            lo = len(tracer.spans)
            with instrument(tracer) if traced else contextlib.nullcontext():
                workload.before_pass(tracer)
                for op_name, fn in workload.ops(tracer):
                    label = f"pb-{p}-{op_name}"
                    workload.begin_op(label)
                    t0 = perf_counter()
                    try:
                        out = fn()
                    except Exception as exc:  # a failed operation is counted, not fatal
                        records.append(OpRecord(p, op_name, label, None, error=repr(exc)))
                    else:
                        records.append(OpRecord(p, op_name, label, perf_counter() - t0, out))
            tracer.enabled = False
            passes.append({
                "warmup": p < warm,
                "traced": traced,
                "wall_s": sum(r.seconds or 0.0 for r in records if r.pass_no == p),
                "rss_mb": rss_mb(),
                "host_probe_s": host_probe_s(),
                "spans": (lo, len(tracer.spans)),
                **workload.drift_probe(),
            })
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        workload.prepare_references()
        for rec in records:
            rec.counters = workload.op_counters(rec.name, rec.label, rec.output
                                                if rec.error is None else None)
            if rec.error is not None:
                continue
            try:
                workload.check(rec.name, rec.output)
            except Exception as exc:  # any check error fails the operation
                rec.error = f"check: {exc!r}"
            if rec.counters.get("spark.failed_tasks"):
                rec.error = rec.error or f"{rec.counters['spark.failed_tasks']} failed Spark tasks"
        computed = workload.computed_counters()
        prov = provenance(root, workload, {"workload": name, "seed": seed,
                                           "seconds": seconds, "trace": trace})
    finally:
        workload.close()

    failed = sum(r.error is not None for r in records)
    untraced = [p for p in passes if not (p["traced"] or p["warmup"])]
    op_medians = operation_medians(name, records, passes)
    report = {
        "provenance": prov,
        "setup_s_reps": setup_reps,
        "one_off_setup_s": one_off,
        "op_medians_s": op_medians,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "drift": drift_report(untraced),
        "failures": [(r.pass_no, r.name, r.error) for r in records if r.error][:20],
    }
    samples = {"setup_s": len(setup_reps), "wall_s": len(untraced), "peak_rss_mb": 1}
    if trace:
        metrics = trace_metrics(workload, tracer, passes, records, setup_layers, one_off, computed)
    else:
        metrics = {
            "setup_s": median(setup_reps) + sum(one_off.values()),
            "wall_s": sum(op_medians.values()),
            "peak_rss_mb": peak_rss_mb,
        }
    report["samples"] = samples
    report["result"] = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    if trace:
        tracer.dump(scratch / f"trace-{name}-s{seed}.json", prov)
    return report


def operation_medians(name: str, records: list[OpRecord], passes: list[dict]) -> dict:
    """Median time of each operation over the untraced timed passes."""
    times: dict[str, list[float]] = {r.name: [] for r in records}
    for r in records:
        timed = not (passes[r.pass_no]["traced"] or passes[r.pass_no]["warmup"])
        # a wrong answer still has a time; an operation that raised has none
        if timed and r.seconds is not None:
            times[r.name].append(r.seconds)
    if not all(times.values()):
        raise RuntimeError(f"{name}: an operation raised in every timed pass: "
                           f"{[r.error for r in records if r.error][:3]}")
    return {op: median(ts) for op, ts in times.items()}


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    return END_TO_END_UNITS.get(metric) or METRICS[metric].unit


def trace_metrics(workload, tracer, passes, records, setup_layers, one_off, computed) -> dict:
    """Every per-layer metric: median over traced passes, set-up layers over repetitions."""
    per_pass = []
    for p, info in enumerate(passes):
        if not info["traced"]:
            continue
        row = pass_metrics(tracer.spans, *info["spans"])
        for rec in records:
            if rec.pass_no == p:
                for k, v in rec.counters.items():
                    row[k] = row.get(k, 0) + v
        per_pass.append(row)
    metrics = dict.fromkeys(METRICS, 0.0)
    metrics.update(median_of(setup_layers))
    metrics.update(median_of(per_pass))
    metrics["graphs.edges"] = workload.edges
    metrics["spark.cold_start_s"] = one_off.get("spark.cold_start_s", 0.0)
    coins = computed.get("kernel.coins", 0)
    metrics["kernel.coins"] = coins
    metrics["kernel.bytes_computed"] = 24 * coins
    busy = metrics[workload.coins_time_metric]
    metrics["kernel.coins_per_s"] = coins / busy if busy > 0 else 0.0
    walls = {t: [p["wall_s"] for p in passes if p["traced"] == t and not p["warmup"]]
             for t in (True, False)}
    metrics["trace.overhead_s"] = median(walls[True]) - median(walls[False])
    return metrics


def format_report(name: str, report: dict) -> list[str]:
    """Human-readable lines: each metric with unit and sample count, fail ratio, drift."""
    res, samples = report["result"], report["samples"]
    prov = report["provenance"]
    lines = [f"perfbench {name} seed={prov['seed']} trace={int(prov['trace'])} "
             f"passes={len(report['passes'])}"]
    for k, m in res["metrics"].items():
        n = samples.get(k)
        lines.append(f"  {k:<24} {m['value']:>14.6g} {m['unit']:<6}"
                     + (f" (median of {n})" if n and n > 1 else " (1 sample)" if n else ""))
    lines.append(f"  {'fail_ratio':<24} {res['failed'] / res['attempted']:>14.6g} ratio "
                 f" ({res['failed']}/{res['attempted']} operations)")
    for f in report["failures"]:
        lines.append(f"  FAILED pass {f[0]} {f[1]}: {f[2]}")
    for k, d in report["drift"].items():
        lines.append(f"  drift {k}: {d['first']:.4g} -> {d['last']:.4g} "
                     f"(slope {d['slope_per_pass']:+.3g}/pass, trends_up={d['trends_up']})")
    lines.append("  provenance " + json.dumps(prov, sort_keys=True))
    return lines
