"""Layer-to-metric map and the per-layer numbers a traced run derives from spans.

``LAYERS`` is the record later changes cite: for each layer of ``repro``
(named after its module), the per-layer metrics it owns, the end-to-end
metric each should move, and on which workloads. ``BENCHMARK.json`` lists
the same per-layer names with unit and direction (``test_perfbench``
keeps the two in step); its schema has no room for the mapping itself,
so the mapping lives here.

All per-layer values are per pass (one run of every operation of the
workload), taken as the median over traced passes; set-up values are the
median over set-up repetitions. Counts marked "computed" are derived from
outputs in an untimed pass, not measured inside the program. A layer a
workload never calls reports 0 there — which is also the prediction for
a change to that layer on that workload.
"""
from __future__ import annotations

from dataclasses import dataclass
from statistics import median

from perfbench.tracing import self_times

ALL = ("mc_table1", "celf_table2", "spark_mc")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str


@dataclass(frozen=True)
class Layer:
    module: str
    metrics: tuple[Metric, ...]
    moves: str  # end-to-end metric this layer should move
    on: tuple[str, ...]  # workloads where it should move it


LAYERS: tuple[Layer, ...] = (
    Layer("repro.graphs", (
        Metric("graphs.generate_s", "s", "lower", "generator calls per set-up"),
        Metric("graphs.csr_build_s", "s", "lower", "build_csr calls per set-up"),
        Metric("graphs.weights_s", "s", "lower", "edge_weights calls per set-up"),
        Metric("graphs.edges", "count", "higher", "directed edges built per set-up"),
    ), "setup_s", ALL),
    Layer("repro.diffusion.csr_engine (construction)", (
        Metric("engine.construct_s", "s", "lower", "engine constructors per set-up"),
    ), "setup_s", ALL),
    Layer("repro.diffusion.csr_engine (kernel: run, run_many)", (
        Metric("kernel.calls", "count", "lower", "run + run_many calls in the benchmark process"),
        Metric("kernel.trials", "count", "higher", "trials simulated by those calls"),
        Metric("kernel.s", "s", "lower", "time inside those calls"),
        Metric("kernel.self_s", "s", "lower", "kernel.s minus rng.s inside it"),
        Metric("kernel.lt_s", "s", "lower", "kernel.s spent on LT engines"),
        Metric("kernel.coins", "count", "lower",
               "computed: sum of out-degree over activated nodes, per trial, from run()"),
        Metric("kernel.coins_per_s", "1/s", "higher",
               "kernel.coins over the time of the operations that flipped them"),
        Metric("kernel.bytes_computed", "B", "lower",
               "computed: 24 B per examined edge (int64 target, float64 weight, float64 uniform)"),
    ), "wall_s", ("mc_table1", "celf_table2")),
    Layer("repro.diffusion.rng (as csr_engine binds it)", (
        Metric("rng.calls", "count", "lower", "uniforms + uniforms_mixed + trial_bases calls"),
        Metric("rng.ids", "count", "lower", "ids or trial seeds hashed by those calls"),
        Metric("rng.s", "s", "lower", "time inside those calls"),
    ), "wall_s", ("mc_table1", "celf_table2")),
    Layer("repro.im.spread", (
        Metric("spread.sigma_calls", "count", "lower", "calls of the make_sigma callable"),
        Metric("spread.sigma_s", "s", "lower", "time inside those calls"),
        Metric("spread.overhead_s", "s", "lower", "spread.sigma_s minus kernel time inside it"),
    ), "wall_s", ("celf_table2",)),
    Layer("repro.im.celf", (
        Metric("celf.first_pass_evals", "count", "lower", "sigma calls in CELF's local first pass"),
        Metric("celf.first_pass_s", "s", "lower", "time of those calls"),
        Metric("celf.lazy_evals", "count", "lower", "sigma calls in the lazy re-evaluations"),
        Metric("celf.lazy_s", "s", "lower", "time of those calls"),
        Metric("celf.self_s", "s", "lower", "celf() time minus its sigma calls (heap work)"),
        Metric("celf.pick_ratio", "ratio", "higher", "seeds picked over lazy evaluations"),
    ), "wall_s", ("celf_table2", "spark_mc")),
    Layer("repro.diffusion.spark_engine + repro.im.spread.marginal_gains_spark", (
        Metric("spark.cold_start_s", "s", "lower", "SparkSession creation, JVM launch included"),
        Metric("spark.noop_job_s", "s", "lower",
               "a mapInPandas job that does nothing: the per-job floor"),
        Metric("spark.jobs", "count", "lower",
               "jobs in the operations' job groups (statusTracker)"),
        Metric("spark.tasks", "count", "lower", "tasks run by those jobs"),
        Metric("spark.failed_tasks", "count", "lower", "failed tasks; also counted in fail_ratio"),
        Metric("spark.broadcast_bytes", "B", "lower",
               "computed: nbytes of every broadcast payload"),
        Metric("spark.fanout_s", "s", "lower", "SparkTrialEngine.run_many calls"),
        Metric("spark.fanout_trials", "count", "higher", "trials fanned out"),
        Metric("spark.collect_rows", "count", "lower", "rows collected to the Spark driver"),
        Metric("spark.first_pass_s", "s", "lower", "marginal_gains_spark(...).toPandas()"),
    ), "setup_s (cold start) and wall_s; failed_tasks also fail_ratio", ("spark_mc",)),
    Layer("repro.analysis", (
        Metric("analysis.activations_s", "s", "lower",
               "run_trials_df(output='activations'), cached and counted"),
        Metric("analysis.activation_rows", "count", "lower", "activation rows produced"),
        Metric("analysis.join_pairs", "count", "lower",
               "computed: rows x (max_t + 1), the size of the time-grid non-equi join"),
        Metric("analysis.heatmap_s", "s", "lower", "activation_counts_df(...).toPandas()"),
        Metric("analysis.timeseries_s", "s", "lower", "mean_active_over_time_df(...).toPandas()"),
    ), "wall_s", ("spark_mc",)),
    Layer("perfbench tracing itself", (
        Metric("trace.overhead_s", "s", "lower",
               "traced pass wall minus untraced pass wall (medians)"),
        Metric("trace.spans", "count", "lower", "spans recorded per traced pass"),
    ), "none (reported so tracing cost is visible)", ALL),
)

METRICS: dict[str, Metric] = {m.name: m for layer in LAYERS for m in layer.metrics}

SETUP_SPANS = {
    "graphs.generate": "graphs.generate_s",
    "graphs.csr_build": "graphs.csr_build_s",
    "graphs.weights": "graphs.weights_s",
    "engine.construct": "engine.construct_s",
}

PASS_SPANS = {
    "spark.fanout": "spark.fanout_s",
    "spark.first_pass": "spark.first_pass_s",
    "spark.noop_job": "spark.noop_job_s",
    "analysis.activations": "analysis.activations_s",
    "analysis.heatmap": "analysis.heatmap_s",
    "analysis.timeseries": "analysis.timeseries_s",
}


def setup_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer set-up times of one set-up repetition (spans ``lo..hi-1``)."""
    out = dict.fromkeys(SETUP_SPANS.values(), 0.0)
    for name, start, end, _parent, _attrs in spans[lo:hi]:
        if name in SETUP_SPANS:
            out[SETUP_SPANS[name]] += end - start
    return out


def pass_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (spans ``lo..hi-1``)."""
    own = self_times(spans, lo, hi)
    out = dict.fromkeys(
        ["kernel.calls", "kernel.trials", "kernel.s", "kernel.self_s", "kernel.lt_s",
         "rng.calls", "rng.ids", "rng.s",
         "spread.sigma_calls", "spread.sigma_s", "spread.overhead_s",
         "celf.first_pass_evals", "celf.first_pass_s", "celf.lazy_evals", "celf.lazy_s",
         "celf.self_s", *PASS_SPANS.values()],
        0.0,
    )
    picks = 0
    for i in range(lo, hi):
        name, start, end, _parent, attrs = spans[i]
        dur = end - start
        if name == "kernel":
            out["kernel.calls"] += 1
            out["kernel.trials"] += attrs["trials"]
            out["kernel.s"] += dur
            out["kernel.self_s"] += own[i - lo]
            if attrs["model"] == "lt":
                out["kernel.lt_s"] += dur
        elif name == "rng":
            out["rng.calls"] += 1
            out["rng.ids"] += attrs["ids"]
            out["rng.s"] += dur
        elif name == "spread.sigma":
            out["spread.sigma_calls"] += 1
            out["spread.sigma_s"] += dur
            out["spread.overhead_s"] += own[i - lo]
            phase = "first_pass" if attrs["phase"] == "first" else "lazy"
            out[f"celf.{phase}_evals"] += 1
            out[f"celf.{phase}_s"] += dur
        elif name == "celf":
            out["celf.self_s"] += own[i - lo]
            picks += attrs["k"]
        elif name in PASS_SPANS:
            out[PASS_SPANS[name]] += dur
    out["celf.pick_ratio"] = picks / max(1.0, out["celf.lazy_evals"])
    out["trace.spans"] = hi - lo
    return out


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median of equally keyed dicts."""
    return {k: float(median(r[k] for r in rows)) for k in rows[0]} if rows else {}
