"""Analytics tests (S14): heatmap + activation curves, oracle-checked."""
import numpy as np
import pandas as pd
import pytest

from repro.analysis import activation_counts_df, mean_active_over_time_df
from repro.diffusion import make_engine
from repro.diffusion.spark_engine import run_trials_df
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights
from repro.im.spread import trial_seed_block
from repro.oracle import assert_equivalent

N_TRIALS = 20
SEEDS = [0, 4, 9]


@pytest.fixture(scope="module")
def workload(spark):
    csr = build_csr(erdos_renyi(100, 0.05, seed=4))
    w = edge_weights(csr, "WC")
    block = trial_seed_block(21, N_TRIALS)
    act = run_trials_df(spark, csr, w, SEEDS, block, output="activations")
    act_pdf = act.toPandas()
    return csr, w, block, act_pdf


def test_heatmap_counts_against_oracle(spark, workload):
    csr, _, _, act_pdf = workload
    nodes_pdf = pd.DataFrame({"node": np.arange(csr.n, dtype=np.int64)})
    got = activation_counts_df(
        spark, csr, spark.createDataFrame(act_pdf), N_TRIALS
    )
    assert_equivalent(
        got,
        f"""
        SELECT n.node,
               COALESCE(a.c, 0) AS activations,
               COALESCE(a.c, 0) / {float(N_TRIALS)} AS frequency
        FROM nodes n
        LEFT JOIN (SELECT node, COUNT(*) AS c FROM act GROUP BY node) a
          ON n.node = a.node
        """,
        nodes=nodes_pdf,
        act=act_pdf,
    )


def test_heatmap_seeds_always_active(spark, workload):
    csr, _, _, act_pdf = workload
    got = (
        activation_counts_df(spark, csr, spark.createDataFrame(act_pdf), N_TRIALS)
        .toPandas()
        .set_index("node")
    )
    # the paper: "seed nodes appear completely red, as they were always active"
    for s in SEEDS:
        assert got.loc[s, "frequency"] == pytest.approx(1.0)


def test_heatmap_covers_all_nodes(spark, workload):
    csr, _, _, act_pdf = workload
    got = activation_counts_df(
        spark, csr, spark.createDataFrame(act_pdf), N_TRIALS
    ).toPandas()
    assert sorted(got["node"]) == list(range(csr.n))
    assert (got["frequency"] <= 1.0).all() and (got["frequency"] >= 0.0).all()


def test_heatmap_matches_local_counts(spark, workload):
    csr, w, block, act_pdf = workload
    engine = make_engine("csr", csr, w)
    counts = np.zeros(csr.n, np.int64)
    for t in block.tolist():
        counts[engine.run(SEEDS, int(t)).active_nodes] += 1
    got = (
        activation_counts_df(spark, csr, spark.createDataFrame(act_pdf), N_TRIALS)
        .toPandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert np.array_equal(got["activations"].to_numpy(), counts)


def test_timeseries_against_oracle(spark, workload):
    _, _, _, act_pdf = workload
    max_t = int(act_pdf["time"].max())
    grid = pd.DataFrame({"t": range(max_t + 1)})
    got = mean_active_over_time_df(spark, spark.createDataFrame(act_pdf), N_TRIALS)
    assert_equivalent(
        got,
        f"""
        SELECT g.t AS time, COUNT(*) / {float(N_TRIALS)} AS mean_active
        FROM grid g JOIN act a ON a.time <= g.t
        GROUP BY g.t
        """,
        grid=grid,
        act=act_pdf,
    )


def test_timeseries_matches_local_curves(spark, workload):
    csr, w, block, act_pdf = workload
    engine = make_engine("csr", csr, w)
    got = (
        mean_active_over_time_df(spark, spark.createDataFrame(act_pdf), N_TRIALS)
        .toPandas()
        .sort_values("time")
    )
    max_t = int(got["time"].max())
    # local recomputation: cumulative active count per trial, padded flat
    acc = np.zeros(max_t + 1)
    for ts in block.tolist():
        r = engine.run(SEEDS, int(ts))
        cum = r.cumulative_active()
        padded = np.concatenate([cum, np.full(max_t + 1 - len(cum), cum[-1])])
        acc += padded[: max_t + 1]
    assert np.allclose(got["mean_active"].to_numpy(), acc / N_TRIALS)


def test_timeseries_monotone_and_bounded(spark, workload):
    csr, _, _, act_pdf = workload
    got = (
        mean_active_over_time_df(spark, spark.createDataFrame(act_pdf), N_TRIALS)
        .toPandas()
        .sort_values("time")
    )
    vals = got["mean_active"].to_numpy()
    assert (np.diff(vals) >= 0).all()
    assert vals[0] == pytest.approx(len(SEEDS))  # t=0: exactly the seeds
    assert vals[-1] <= csr.n


def test_timeseries_is_lazy(spark, workload):
    _, _, _, act_pdf = workload
    act = spark.createDataFrame(act_pdf)
    sc = spark.sparkContext
    group = "test-timeseries-lazy"
    sc.setJobGroup(group, "building the curve must not run a job")
    try:
        curve = mean_active_over_time_df(spark, act, N_TRIALS)
        assert [(f.name, f.dataType.simpleString()) for f in curve.schema.fields] == [
            ("time", "bigint"),
            ("mean_active", "double"),
        ]
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


def test_timeseries_rows_are_every_step_in_order(spark, workload):
    _, _, _, act_pdf = workload
    got = mean_active_over_time_df(spark, spark.createDataFrame(act_pdf), N_TRIALS).toPandas()
    assert got["time"].tolist() == list(range(int(act_pdf["time"].max()) + 1))
