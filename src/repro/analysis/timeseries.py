"""Mean activated nodes over time (Figure 3's data).

For each iteration t, the mean over trials of the *cumulative* number of
nodes activated by iteration t (the paper plots exactly this curve per
seed set, averaged over 1,000 simulations). Computed relationally from
the exploded activation table as one lazy aggregation: activations per
time step, then a running sum over the steps. Oracle-verified.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F


def mean_active_over_time_df(
    spark: SparkSession, activations: DataFrame, n_trials: int
) -> DataFrame:
    """(time, mean_active) for t = 0 .. max activation time, ordered by time.

    Trials that finished before t contribute their final count (a cascade
    that stops stays at its plateau), so the value at t is the number of
    activations with ``time <= t`` over all trials divided by n_trials: a
    running sum of the per-step counts. No gap filling is needed: a node
    activated at step t > 0 always has an activator at step t - 1, so each
    trial's times run 0..T and the grouped times are exactly 0..max_t. The
    window has no partition key, which is fine: it sees one row per step.
    Nothing runs until the result is consumed; ``spark`` is unused.
    """
    upto_now = Window.orderBy("time").rowsBetween(Window.unboundedPreceding, Window.currentRow)
    return (
        activations.groupBy("time")
        .count()
        .select(
            F.col("time").cast("long").alias("time"),
            (F.sum("count").over(upto_now) / F.lit(float(n_trials))).alias("mean_active"),
        )
        .orderBy("time")
    )
