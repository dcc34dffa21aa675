"""Per-node activation frequencies across trials (Figure 2's data).

The paper colors each node by how many of many simulations activated it
(seed nodes come out at frequency 1.0). Input is the exploded activation
table from :func:`repro.diffusion.spark_engine.run_trials_df` with
``output="activations"``; it is left-joined onto a node table built from
``spark.range(n)``, so never-activated nodes appear too. The aggregation
is a plain relational job that the DuckDB oracle verifies in tests.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.csr import CSRGraph


def activation_counts_df(
    spark: SparkSession, csr: CSRGraph, activations: DataFrame, n_trials: int
) -> DataFrame:
    """(node, activations, frequency) for all n nodes, zeros included.

    ``frequency`` = activations / n_trials, the heatmap color intensity;
    nodes never activated appear with zero so a rendering layer sees the
    whole graph.
    """
    counts = activations.groupBy("node").agg(F.count("*").alias("activations"))
    return (
        spark.range(csr.n)
        .withColumnRenamed("id", "node")
        .join(counts, "node", "left")
        .select(
            "node",
            F.coalesce("activations", F.lit(0)).alias("activations"),
            (F.coalesce("activations", F.lit(0)) / F.lit(float(n_trials))).alias(
                "frequency"
            ),
        )
    )
