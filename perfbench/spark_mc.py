"""The ``spark_mc`` workload: trial fan-out, Spark-backed CELF and the analytics.

The session uses the settings of the repository's test fixture (Arrow on,
auto-broadcast joins off, 64 shuffle partitions) on ``local[N]`` with N at
most the core count, plus the hygiene a benchmark needs: ``src`` exported
on ``PYTHONPATH`` so Python workers can import ``repro``, no console
progress bar on stdout, every scratch file under the output directory, a
warm-up job before timing, and one job group per operation.
"""
from __future__ import annotations

import os
import subprocess
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
import pandas as pd

from perfbench.checks import CheckFailed, check_celf, check_fanout, check_gains
from perfbench.local import (
    CELF_D,
    CELF_K,
    CELF_MC,
    N_SEED_NODES,
    Seeds,
    sigma_for_celf,
)
from perfbench.tracing import Tracer, rss_mb
from repro.analysis import activation_counts_df, mean_active_over_time_df
from repro.bench.harness import pick_seed_nodes
from repro.diffusion import CSREngine, PurePythonEngine
from repro.diffusion.spark_engine import SparkTrialEngine, run_trials_df
from repro.graphs import build_csr, edge_weights, facebook_like, random_regular
from repro.im.celf import celf
from repro.im.spread import estimate_spread, make_sigma, marginal_gains_spark, trial_seed_block
from repro.oracle import assert_equivalent

FANOUT_TRIALS = 1000  # per EWM, on the Facebook graph
ANALYTICS_TRIALS = 200  # activation table on Facebook/WC
SAMPLED_GAINS = 5  # first-pass gains recomputed locally
FANOUT_EWMS = ("TV", "WC")
CELF_N = 1000  # Spark-backed CELF graph: repro.bench.table2 bench_params() n
FIRST_PASS_EWM = "TV"  # few lazy re-evaluations, so the Spark first pass dominates

HEATMAP_SQL = """
SELECT n.node, COALESCE(a.c, 0) AS activations, COALESCE(a.c, 0) / {trials} AS frequency
FROM nodes n LEFT JOIN (SELECT node, COUNT(*) AS c FROM act GROUP BY node) a ON n.node = a.node
"""
TIMESERIES_SQL = """
SELECT g.t AS time, COUNT(*) / {trials} AS mean_active
FROM grid g JOIN act a ON a.time <= g.t GROUP BY g.t
"""


def _payload_bytes(*arrays) -> int:
    return int(sum(np.asarray(a).nbytes for a in arrays))


class SparkMC:
    """Three operations on the Spark backend, timed from the Spark driver process."""

    name = "spark_mc"
    coins_time_metric = "spark.fanout_s"
    warmup_passes = 1  # the first pass runs ~1.5x slower (JIT, first broadcasts)

    def __init__(self, seed: int, src: Path, scratch: Path, cores: int) -> None:
        self.seeds = Seeds.from_workload_seed(seed)
        self.src, self.scratch, self.cores = src, scratch, cores
        self.fanout_block = trial_seed_block(self.seeds.trial_base, FANOUT_TRIALS)
        self.analytics_block = self.fanout_block[:ANALYTICS_TRIALS]
        self.celf_block = trial_seed_block(self.seeds.trial_base, CELF_MC)
        self.spark = None

    # -- session -----------------------------------------------------------
    def start(self, tracer: Tracer) -> dict[str, float]:
        """Cold-start the session and run one warm-up job; both count as set-up."""
        tmp = self.scratch / "spark-tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        paths = [str(self.src), *filter(None, [os.environ.get("PYTHONPATH")])]
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
        os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
        os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master local[{self.cores}] --driver-memory 2g "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
        )
        from pyspark.sql import SparkSession

        t0 = perf_counter()
        with tracer.span("spark.cold_start"):
            self.spark = (
                SparkSession.builder.appName("perfbench")
                .config("spark.sql.shuffle.partitions", "64")
                .config("spark.sql.execution.arrow.pyspark.enabled", "true")
                .config("spark.sql.autoBroadcastJoinThreshold", -1)
                .config("spark.ui.showConsoleProgress", "false")
                .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
                .getOrCreate()
            )
        cold = perf_counter() - t0
        self.sc = self.spark.sparkContext
        self.sc.setLogLevel("ERROR")
        # Warm-up: a tiny fan-out, so workers have imported repro before timing.
        t0 = perf_counter()
        self.begin_op("pb-warmup")
        tiny = build_csr(random_regular(20, 2, seed=0))
        SparkTrialEngine(self.spark, tiny, edge_weights(tiny, "WC")).run_many(
            [0], range(2 * self.cores)
        )
        return {"spark.cold_start_s": cold, "spark.warmup_s": perf_counter() - t0}

    def close(self) -> None:
        """Stop the session and wait for the JVM (and with it the Python workers) to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()  # the JVM exits on EOF from its parent
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self.spark = None

    # -- set-up and operations ---------------------------------------------
    def setup(self, tracer: Tracer) -> None:
        with tracer.span("graphs.generate"):
            fb_edges = facebook_like(seed=self.seeds.graph)
            rr_edges = random_regular(CELF_N, CELF_D, seed=self.seeds.graph)
        with tracer.span("graphs.csr_build"):
            self.fb, self.rr = build_csr(fb_edges), build_csr(rr_edges)
        with tracer.span("graphs.weights"):
            self.fb_w = {ewm: edge_weights(self.fb, ewm, seed=self.seeds.weight)
                         for ewm in FANOUT_EWMS}
            self.rr_w = edge_weights(self.rr, FIRST_PASS_EWM, seed=self.seeds.weight)
        with tracer.span("engine.construct"):
            self.fanout = {ewm: SparkTrialEngine(self.spark, self.fb, w)
                           for ewm, w in self.fb_w.items()}
            self.lazy_engine = CSREngine(self.rr, self.rr_w)
        self.fb_seeds = pick_seed_nodes(self.fb.n, N_SEED_NODES, seed=self.seeds.nodes)
        self.sigma = make_sigma(self.lazy_engine, self.celf_block)
        self.edges = self.fb.m + self.rr.m

    def before_pass(self, tracer: Tracer) -> None:
        """In traced passes, time one no-op job: the per-job floor."""
        if not tracer.enabled:
            return
        from pyspark.sql.types import LongType, StructField, StructType

        self.begin_op("pb-noop")
        schema = StructType([StructField("trial", LongType(), False)])
        one = self.spark.createDataFrame(pd.DataFrame({"trial": pd.Series([0], dtype="int64")}))
        with tracer.span("spark.noop_job"):
            one.repartition(self.cores).mapInPandas(lambda it: it, schema).collect()

    def begin_op(self, label: str) -> None:
        self.sc.setJobGroup(label, f"perfbench {label}")

    def ops(self, tracer: Tracer) -> list[tuple[str, Callable]]:
        def fanout(ewm: str):
            with tracer.span("spark.fanout"):
                return self.fanout[ewm].run_many(self.fb_seeds, self.fanout_block)

        def spark_celf():
            candidates = range(self.rr.n)
            with tracer.span("spark.first_pass"):
                gains_pdf = marginal_gains_spark(
                    self.spark, self.rr, self.rr_w, candidates, self.celf_block
                ).toPandas()
            gains = dict(zip(gains_pdf["candidate"].tolist(), gains_pdf["sigma_hat"].tolist()))
            sigma = sigma_for_celf(tracer, self.sigma, 0)
            with tracer.span("celf", k=CELF_K):
                return gains, celf(sigma, candidates, CELF_K, initial_gains=gains)

        def analytics():
            with tracer.span("analysis.activations"):
                act = run_trials_df(
                    self.spark, self.fb, self.fb_w["WC"], self.fb_seeds,
                    self.analytics_block, output="activations",
                ).cache()
                rows = act.count()
            try:
                with tracer.span("analysis.heatmap"):
                    heat = activation_counts_df(
                        self.spark, self.fb, act, ANALYTICS_TRIALS
                    ).toPandas()
                with tracer.span("analysis.timeseries"):
                    curve = mean_active_over_time_df(self.spark, act, ANALYTICS_TRIALS).toPandas()
            finally:
                act.unpersist()
            return rows, heat, curve

        return [
            *[(f"fanout-{ewm}", lambda ewm=ewm: fanout(ewm)) for ewm in FANOUT_EWMS],
            (f"celf-{FIRST_PASS_EWM}", spark_celf),
            ("analytics", analytics),
        ]

    # -- references and checks ---------------------------------------------
    def prepare_references(self) -> None:
        self.begin_op("pb-checks")
        outdeg = self.fb.out_degree()
        self.fanout_ref: dict[str, dict[int, int]] = {}
        self.coins = 0
        act_rows = []
        for ewm, w in self.fb_w.items():
            eng = CSREngine(self.fb, w)
            ref = {}
            for i, t in enumerate(self.fanout_block.tolist()):
                res = eng.run(self.fb_seeds, t)
                nodes = res.active_nodes
                ref[t] = nodes.size
                self.coins += int(outdeg[nodes].sum())
                if ewm == "WC" and i < ANALYTICS_TRIALS:
                    act_rows.append(pd.DataFrame({
                        "trial": np.full(nodes.size, t, np.int64), "node": nodes.astype(np.int64),
                        "time": res.activation_time[nodes].astype(np.int32)}))
            self.fanout_ref[ewm] = ref
        self.act_ref = pd.concat(act_rows, ignore_index=True)
        rng = np.random.default_rng(self.seeds.nodes)
        sample = rng.choice(self.rr.n, SAMPLED_GAINS, replace=False).tolist()
        self.gains_ref = {int(c): self.sigma([int(c)]) for c in sample}
        self.pure = PurePythonEngine(self.rr, self.rr_w)
        self.sigma_ref: dict[tuple, float] = {}
        self.first_seeds: list[int] | None = None

    def check(self, name: str, output) -> None:
        if name.startswith("fanout-"):
            check_fanout(output, self.fanout_ref[name.split("-")[1]])
        elif name.startswith("celf-"):
            gains, res = output
            check_gains(gains, self.rr.n, self.gains_ref)
            key = tuple(sorted(res.seeds))
            if key not in self.sigma_ref:
                self.sigma_ref[key] = estimate_spread(self.pure, res.seeds, self.celf_block)
            if self.first_seeds is None:
                self.first_seeds = list(res.seeds)
            check_celf(res.seeds, res.sigma_values[-1], k=CELF_K, n=self.rr.n,
                       sigma_reference=self.sigma_ref[key], sigma_csr=self.sigma(res.seeds),
                       expected_seeds=self.first_seeds)
        else:
            rows, heat, curve = output
            if rows != len(self.act_ref):
                raise CheckFailed(f"{rows} activation rows, local engine gives {len(self.act_ref)}")
            nodes = pd.DataFrame({"node": np.arange(self.fb.n, dtype=np.int64)})
            grid = pd.DataFrame({"t": np.arange(int(self.act_ref["time"].max()) + 1)})
            trials = float(ANALYTICS_TRIALS)
            assert_equivalent(self.spark.createDataFrame(heat), HEATMAP_SQL.format(trials=trials),
                              nodes=nodes, act=self.act_ref)
            assert_equivalent(self.spark.createDataFrame(curve),
                              TIMESERIES_SQL.format(trials=trials), grid=grid, act=self.act_ref)

    def op_counters(self, name: str, label: str, output) -> dict[str, float]:
        """Job accounting from statusTracker; payload and row counts when ``output`` exists."""
        tracker = self.sc.statusTracker()
        jobs = tasks = failed = 0
        for job_id in tracker.getJobIdsForGroup(label):
            info = tracker.getJobInfo(job_id)
            jobs += 1
            for stage_id in (info.stageIds if info else []):
                stage = tracker.getStageInfo(stage_id)
                if stage:
                    tasks += stage.numCompletedTasks + stage.numFailedTasks
                    failed += stage.numFailedTasks
        graph = (self.fb.indptr, self.fb.indices)
        out = {"spark.jobs": jobs, "spark.tasks": tasks, "spark.failed_tasks": failed}
        if output is None:
            return out
        if name.startswith("fanout-"):
            ewm = name.split("-")[1]
            out["spark.broadcast_bytes"] = _payload_bytes(*graph, self.fb_w[ewm], self.fb_seeds)
            out["spark.fanout_trials"] = FANOUT_TRIALS
            out["spark.collect_rows"] = len(output)
        elif name.startswith("celf-"):
            out["spark.broadcast_bytes"] = _payload_bytes(
                self.rr.indptr, self.rr.indices, self.rr_w, self.celf_block)
            out["spark.collect_rows"] = len(output[0])
        else:
            rows, heat, curve = output
            out["spark.broadcast_bytes"] = _payload_bytes(*graph, self.fb_w["WC"], self.fb_seeds)
            out["spark.collect_rows"] = len(heat) + len(curve)
            out["analysis.activation_rows"] = rows
            out["analysis.join_pairs"] = rows * len(curve)
        return out

    def computed_counters(self) -> dict[str, float]:
        return {"kernel.coins": self.coins}

    def drift_probe(self) -> dict[str, float]:
        """Resident memory of the JVM, where unreleased broadcasts would pile up."""
        from pyspark import SparkContext

        proc = getattr(SparkContext._gateway, "proc", None)
        return {"jvm_rss_mb": rss_mb(proc.pid)} if proc is not None else {}

    def provenance(self) -> dict:
        return {
            "seeds": vars(self.seeds),
            "spark_master": self.sc.master,
            "spark_version": self.spark.version,
            "fanout_trials": FANOUT_TRIALS,
            "analytics_trials": ANALYTICS_TRIALS,
            "celf": {"mc_trials": CELF_MC, "k": CELF_K, "ewm": FIRST_PASS_EWM},
            "graphs": {g.name: {"n": g.n, "m": g.m} for g in (self.fb, self.rr)},
        }
