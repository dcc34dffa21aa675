"""Spark-parallel diffusion engines (S9, S10 in DESIGN.md).

Two complementary designs:

* **Trial fan-out** (:func:`run_trials_df`, :class:`SparkTrialEngine`):
  the paper's stated future-work direction ("improve the performance of
  CyNetDiff by adding parallelism"). Monte-Carlo trials are independent,
  so a DataFrame of trial seeds is partitioned across executors and each
  partition runs the compiled CSR kernel locally via Arrow-backed
  ``mapInPandas``. The CSR arrays are shipped once per executor with
  ``SparkContext.broadcast`` (deliberate and documented: the graph is the
  shared read-only operand; the session fixture's disabled
  *auto*-broadcast join threshold concerns relational joins, not this).
  Because coins are counter-based (``repro.diffusion.rng``), the result
  of trial ``t`` is bit-identical to a local engine run with
  ``trial_seed=t`` regardless of partitioning.

* **DataFrame frontier engine** (:func:`frontier_reachability_df`):
  diffusion expressed as iterative relational joins under Catalyst, over
  a *live-edge* realization (Kempe et al.): activated nodes are exactly
  the nodes reachable from the seeds through live edges. Each BFS round
  is ``frontier JOIN edges`` + anti-join against the active set; the
  DuckDB oracle checks it against a ``WITH RECURSIVE`` reachability
  query. For IC, :func:`sample_live_edges` uses the same coin stream as
  the engines, so per-trial results are bit-identical to them too.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import IntegerType, LongType, StructField, StructType

from repro.diffusion.common import validate_model, validate_seeds
from repro.diffusion.csr_engine import CSREngine
from repro.diffusion.rng import STREAM_IC_COIN, STREAM_LT_PICK, uniforms
from repro.graphs.csr import CSRGraph

SUMMARY_SCHEMA = StructType(
    [
        StructField("trial", LongType(), False),
        StructField("num_active", LongType(), False),
        StructField("num_iterations", LongType(), False),
    ]
)

ACTIVATION_SCHEMA = StructType(
    [
        StructField("trial", LongType(), False),
        StructField("node", LongType(), False),
        StructField("time", IntegerType(), False),
    ]
)


def _trial_seeds_df(spark: SparkSession, trial_seeds) -> DataFrame:
    """Trial seeds as a one-column DataFrame spread over the default parallelism."""
    seeds = [int(t) for t in trial_seeds]
    num_part = max(1, min(len(seeds), spark.sparkContext.defaultParallelism))
    return spark.createDataFrame(
        pd.DataFrame({"trial": pd.Series(seeds, dtype="int64")})
    ).repartition(num_part)


def run_trials_df(
    spark: SparkSession,
    csr: CSRGraph,
    weights: np.ndarray,
    seeds,
    trial_seeds,
    *,
    model: str = "ic",
    output: str = "summary",
) -> DataFrame:
    """Fan Monte-Carlo trials over Spark partitions.

    Args:
        output: ``"summary"`` -> (trial, num_active, num_iterations);
            ``"activations"`` -> one row per activated node
            (trial, node, time), the input to heatmap/timeseries analytics.

    Returns a lazily-evaluated DataFrame; each partition instantiates one
    :class:`CSREngine` from the broadcast CSR arrays and loops its trials.
    """
    model = validate_model(model)
    seeds = validate_seeds(csr.n, seeds)
    if output not in ("summary", "activations"):
        raise ValueError(f"output must be summary|activations, got {output!r}")
    payload = spark.sparkContext.broadcast(
        {
            "n": csr.n,
            "indptr": csr.indptr,
            "indices": csr.indices,
            "weights": np.asarray(weights, np.float64),
            "seeds": seeds,
            "model": model,
        }
    )
    want_summary = output == "summary"

    def run_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        p = payload.value
        engine = CSREngine(
            CSRGraph(n=p["n"], indptr=p["indptr"], indices=p["indices"]),
            p["weights"],
            model=p["model"],
        )
        for batch in batches:
            trials = batch["trial"].tolist()
            if want_summary:
                # Per-trial results are still needed for num_iterations,
                # so the per-trial kernel runs here; counts cross-check
                # run_many in tests.
                rows = [(t, engine.run(p["seeds"], int(t))) for t in trials]
                yield pd.DataFrame(
                    {
                        "trial": [t for t, _ in rows],
                        "num_active": [r.num_active for _, r in rows],
                        "num_iterations": [r.num_iterations for _, r in rows],
                    }
                )
            else:
                for trial in trials:
                    res = engine.run(p["seeds"], int(trial))
                    nodes = res.active_nodes
                    yield pd.DataFrame(
                        {
                            "trial": np.full(nodes.size, trial, np.int64),
                            "node": nodes.astype(np.int64),
                            "time": res.activation_time[nodes].astype(np.int32),
                        }
                    )

    schema = SUMMARY_SCHEMA if want_summary else ACTIVATION_SCHEMA
    return _trial_seeds_df(spark, trial_seeds).mapInPandas(run_partition, schema)


class SparkTrialEngine:
    """Engine-protocol adapter running batches of trials through Spark.

    ``run_many(seeds, trial_seeds)`` returns the per-trial summary as
    pandas; ``spread(seeds, trial_seeds)`` is the Monte-Carlo influence
    estimate used by the Spark CELF backend and by Table 1's extra column.
    """

    kind = "spark"

    def __init__(
        self, spark: SparkSession, csr: CSRGraph, weights: np.ndarray, *, model: str = "ic"
    ) -> None:
        self.spark = spark
        self.csr = csr
        self.weights = np.asarray(weights, np.float64)
        self.model = validate_model(model)

    def run_many(self, seeds, trial_seeds) -> pd.DataFrame:
        """Collect (trial, num_active, num_iterations), ordered by trial."""
        df = run_trials_df(
            self.spark, self.csr, self.weights, seeds, trial_seeds, model=self.model
        )
        return df.toPandas().sort_values("trial").reset_index(drop=True)

    def spread(self, seeds, trial_seeds) -> float:
        """Mean number of activated nodes across trials."""
        return float(self.run_many(seeds, trial_seeds)["num_active"].mean())


def sample_live_edges(
    csr: CSRGraph, weights: np.ndarray, trial_seed: int, *, model: str = "ic"
) -> np.ndarray:
    """Sample a live-edge realization, ``(k, 2)`` directed edges.

    IC: edge e is live iff its shared-stream coin is below its weight —
    the *same* coin the simulation engines flip, so reachability over
    this realization equals their per-trial output exactly.

    LT: each node picks at most one incoming edge (edge e with
    probability w_e), per Kempe et al.'s live-edge theorem; equality with
    the threshold engines is distributional, not per-trial.
    """
    model = validate_model(model)
    w = np.asarray(weights, np.float64)
    if model == "ic":
        eids = np.arange(csr.m, dtype=np.int64)
        live = uniforms(STREAM_IC_COIN, trial_seed, eids) < w
        return csr.edge_array()[live]
    rev = csr.reverse()
    u_pick = uniforms(STREAM_LT_PICK, trial_seed, np.arange(csr.n, dtype=np.int64))
    picked: list[tuple[int, int]] = []
    for v in range(csr.n):
        eids, srcs = rev.in_edges(v)
        if eids.size == 0:
            continue
        cum = np.cumsum(w[eids])
        j = int(np.searchsorted(cum, u_pick[v], side="right"))
        if j < eids.size:
            picked.append((int(srcs[j]), v))
    return np.asarray(picked, np.int64).reshape(-1, 2)


def frontier_reachability_df(
    spark: SparkSession, live_edges: DataFrame, seeds
) -> DataFrame:
    """BFS reachability as iterative DataFrame joins: returns (node, time).

    ``live_edges`` must have columns (src, dst). Each round shuffles
    ``frontier JOIN edges ON node = src``, deduplicates, anti-joins the
    active set, and localCheckpoints to truncate lineage. Terminates when
    a round adds no nodes; output rows are every reachable node with its
    BFS depth (seeds at time 0).
    """
    edges = live_edges.select(
        F.col("src").cast("long"), F.col("dst").cast("long")
    )
    seeds_pdf = pd.DataFrame({"node": pd.Series(sorted({int(s) for s in seeds}), dtype="int64")})
    active = (
        spark.createDataFrame(seeds_pdf)
        .withColumn("time", F.lit(0).cast("int"))
        .localCheckpoint(eager=True)
    )
    frontier = active.select("node")
    t = 0
    while True:
        nxt = (
            frontier.join(edges, frontier.node == edges.src)
            .select(F.col("dst").alias("node"))
            .distinct()
            .join(active.select("node"), "node", "left_anti")
            .localCheckpoint(eager=True)
        )
        if nxt.count() == 0:
            break
        t += 1
        active = active.union(
            nxt.withColumn("time", F.lit(t).cast("int"))
        ).localCheckpoint(eager=True)
        frontier = nxt.select("node")
    return active
