"""Spark trial fan-out tests (S9): bit-equality with local engines."""
import numpy as np
import pandas as pd
import pytest
from pyspark import TaskContext
from pyspark.broadcast import Broadcast

from repro.diffusion import CSREngine, make_engine
from repro.diffusion.common import trial_keys
from repro.diffusion.spark_engine import SparkTrialEngine, run_trials_df
from repro.graphs.csr import CSRGraph, build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights, normalize_for_lt
from repro.im.spread import marginal_gains_spark, trial_seed_block


@pytest.fixture(scope="module")
def workload():
    csr = build_csr(erdos_renyi(200, 0.03, seed=1))
    return csr, edge_weights(csr, "WC"), [0, 3, 7], trial_seed_block(0, 24)


def test_summary_matches_local_engine_per_trial(spark, workload):
    csr, w, seeds, block = workload
    local = make_engine("csr", csr, w, model="ic")
    pdf = SparkTrialEngine(spark, csr, w, model="ic").run_many(seeds, block)
    assert len(pdf) == len(block)
    for t, na, ni in zip(pdf["trial"], pdf["num_active"], pdf["num_iterations"]):
        r = local.run(seeds, int(t))
        assert r.num_active == na
        assert r.num_iterations == ni


def test_lt_summary_matches_local(spark, workload):
    csr, w, seeds, block = workload
    wlt = normalize_for_lt(csr, w)
    local = make_engine("csr", csr, wlt, model="lt")
    pdf = SparkTrialEngine(spark, csr, wlt, model="lt").run_many(seeds, block[:10])
    for t, na in zip(pdf["trial"], pdf["num_active"]):
        assert local.run(seeds, int(t)).num_active == na


def test_activations_output_matches_local(spark, workload):
    csr, w, seeds, block = workload
    local = make_engine("csr", csr, w, model="ic")
    act = (
        run_trials_df(spark, csr, w, seeds, block[:6], output="activations")
        .toPandas()
        .sort_values(["trial", "node"])
    )
    for t in block[:6].tolist():
        r = local.run(seeds, int(t))
        sub = act[act.trial == t]
        assert np.array_equal(sub["node"].to_numpy(), r.active_nodes)
        assert np.array_equal(
            sub["time"].to_numpy(), r.activation_time[r.active_nodes]
        )


def test_results_independent_of_partitioning(spark, workload):
    """Counter-based coins: the partition layout cannot change results."""
    csr, w, seeds, block = workload
    a = (
        run_trials_df(spark, csr, w, seeds, block)
        .toPandas()
        .sort_values("trial")
        .reset_index(drop=True)
    )
    b = (
        run_trials_df(spark, csr, w, seeds, block)
        .toPandas()
        .sort_values("trial")
        .reset_index(drop=True)
    )
    assert a.equals(b)


def test_spread_is_mean_num_active(spark, workload):
    csr, w, seeds, block = workload
    eng = SparkTrialEngine(spark, csr, w, model="ic")
    pdf = eng.run_many(seeds, block)
    assert eng.spread(seeds, block) == pytest.approx(pdf["num_active"].mean())


def test_invalid_output_mode_rejected(spark, workload):
    csr, w, seeds, block = workload
    with pytest.raises(ValueError):
        run_trials_df(spark, csr, w, seeds, block, output="bogus")


def test_invalid_seeds_rejected_eagerly(spark, workload):
    csr, w, _, block = workload
    with pytest.raises(ValueError):
        run_trials_df(spark, csr, w, [csr.n + 1], block)


def test_summary_schema(spark, workload):
    csr, w, seeds, block = workload
    df = run_trials_df(spark, csr, w, seeds, block[:2])
    assert [f.name for f in df.schema.fields] == [
        "trial",
        "num_active",
        "num_iterations",
    ]


def test_bad_weights_rejected_before_any_job(spark, workload):
    csr, w, seeds, block = workload
    bad = w.copy()
    bad[5] = np.nan
    sc = spark.sparkContext
    group = "test-bad-weights"
    sc.setJobGroup(group, "bad weights must fail on the driver")
    try:
        for start in (
            lambda: run_trials_df(spark, csr, bad, seeds, block),
            lambda: marginal_gains_spark(spark, csr, bad, [0, 1], block),
            lambda: SparkTrialEngine(spark, csr, bad),
        ):
            with pytest.raises(ValueError, match="edge 5"):
                start()
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []
        # The group does see jobs: the same fan-out with good weights runs one.
        run_trials_df(spark, csr, w, seeds, block[:2]).collect()
        assert list(sc.statusTracker().getJobIdsForGroup(group))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


def test_bad_ids_rejected_before_any_job(spark, workload, monkeypatch):
    """Non-integer or out-of-range ids fail on the driver, before any job or broadcast."""
    csr, w, seeds, block = workload
    sc = spark.sparkContext
    group = "test-bad-ids"
    sc.setJobGroup(group, "bad ids must fail on the driver")
    try:
        with SparkTrialEngine(spark, csr, w) as eng:
            made = []
            real = sc.broadcast
            monkeypatch.setattr(sc, "broadcast", lambda value: made.append(value) or real(value))
            for start, match in (
                (lambda: run_trials_df(spark, csr, w, seeds, [1.5, 2.7]), "trial seeds"),
                (lambda: run_trials_df(spark, csr, w, seeds, np.array([1.0])), "trial seeds"),
                (lambda: run_trials_df(spark, csr, w, seeds, [True]), "trial seeds"),
                (lambda: run_trials_df(spark, csr, w, [csr.n], block), "seed out"),
                (lambda: eng.run_many(seeds, [1.5]), "trial seeds"),
                (lambda: eng.gains([], [csr.n], block), "candidate out"),
                (lambda: eng.gains([0.5], [1], block), "seeds must be integers"),
                (lambda: eng.gains([], [1], [2.5]), "trial seeds"),
                (lambda: marginal_gains_spark(spark, csr, w, [1.5], block), "candidates must"),
                (lambda: marginal_gains_spark(spark, csr, w, [500], block), "candidate out"),
                (lambda: marginal_gains_spark(spark, csr, w, [0], [1.5, 2.0]), "trial seeds"),
                (
                    lambda: marginal_gains_spark(spark, csr, w, [1], block, base_seeds=[2.5]),
                    "seeds must be integers",
                ),
            ):
                with pytest.raises(ValueError, match=match):
                    start()
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []
        assert made == []
        # Integer trial seeds, negative ones included, come back as given.
        pdf = run_trials_df(spark, csr, w, seeds, [-3, 5]).toPandas().sort_values("trial")
        assert pdf["trial"].tolist() == [-3, 5]
        local = make_engine("csr", csr, w)
        assert pdf["num_active"].tolist() == [local.run(seeds, t).num_active for t in (-3, 5)]
        assert list(sc.statusTracker().getJobIdsForGroup(group))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


def test_malformed_csr_rejected_before_any_broadcast(spark, monkeypatch):
    """An index past n fails at construction on the driver: no broadcast, no job."""
    csr = CSRGraph(n=3, indptr=np.array([0, 1, 2, 2]), indices=np.array([1, 9]))
    w = np.full(2, 0.5)
    sc = spark.sparkContext
    made = []
    real = sc.broadcast
    monkeypatch.setattr(sc, "broadcast", lambda value: made.append(value) or real(value))
    group = "test-malformed-csr"
    sc.setJobGroup(group, "a malformed CSR must fail on the driver")
    try:
        for start in (
            lambda: SparkTrialEngine(spark, csr, w),
            lambda: run_trials_df(spark, csr, w, [0], [1]),
            lambda: marginal_gains_spark(spark, csr, w, [0], [1]),
        ):
            with pytest.raises(ValueError, match="malformed CSR"):
                start()
        assert made == []
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


def test_engine_broadcasts_its_graph_once(spark, workload, monkeypatch):
    csr, w, seeds, block = workload
    sc = spark.sparkContext
    made = []
    real = sc.broadcast

    def counting(value):
        made.append(value)
        return real(value)

    monkeypatch.setattr(sc, "broadcast", counting)
    eng = SparkTrialEngine(spark, csr, w)
    assert len(made) == 1
    for _ in range(5):
        eng.spread(seeds, block[:4])
    assert len(made) == 1


def test_engine_close_destroys_its_broadcast(spark, workload, monkeypatch):
    csr, w, seeds, block = workload
    sc = spark.sparkContext
    made, destroyed = [], []
    real_broadcast, real_destroy = sc.broadcast, Broadcast.destroy

    def broadcast(value):
        made.append(real_broadcast(value))
        return made[-1]

    def destroy(self, blocking=False):
        destroyed.append(self)
        real_destroy(self, blocking)

    monkeypatch.setattr(sc, "broadcast", broadcast)
    monkeypatch.setattr(Broadcast, "destroy", destroy)
    with SparkTrialEngine(spark, csr, w) as eng:
        for _ in range(3):
            eng.spread(seeds, block[:4])
        assert destroyed == []
    assert len(made) == 1 and destroyed == made
    eng.close()  # a second close destroys nothing
    assert len(destroyed) == 1
    with pytest.raises(ValueError, match="closed"):
        eng.spread(seeds, block[:4])


def test_empty_trial_block_gives_empty_frame(spark, workload):
    csr, w, seeds, _ = workload
    eng = SparkTrialEngine(spark, csr, w)
    pdf = eng.run_many(seeds, [])
    assert len(pdf) == 0
    assert {"trial", "num_active"} <= set(pdf.columns)
    assert np.isnan(eng.spread(seeds, []))


def test_no_candidates_gives_empty_gains(spark, workload):
    csr, w, _, block = workload
    pdf = marginal_gains_spark(spark, csr, w, [], block[:4]).toPandas()
    assert len(pdf) == 0
    assert list(pdf.columns) == ["candidate", "sigma_hat"]


def test_one_trial_block_matches_local(spark, workload):
    """Fewer trials than defaultParallelism: one partition, same result."""
    csr, w, seeds, block = workload
    pdf = SparkTrialEngine(spark, csr, w).run_many(seeds, block[:1])
    r = make_engine("csr", csr, w).run(seeds, int(block[0]))
    assert pdf["trial"].tolist() == [int(block[0])]
    assert pdf["num_active"].tolist() == [r.num_active]
    assert pdf["num_iterations"].tolist() == [r.num_iterations]


def test_block_sizes_split_evenly_and_match_local(spark, workload):
    """Every block size from 1 to defaultParallelism + 1, then 10 and 1000
    keys: each of ``_map``'s p = min(k, defaultParallelism) partitions gets
    ⌊k/p⌋ or ⌈k/p⌉ keys and every key appears once; up to
    defaultParallelism + 1, trials and candidate gains equal the local
    engine's one by one."""
    csr, w, seeds, _ = workload
    par = spark.sparkContext.defaultParallelism
    local = CSREngine(csr, w)
    gain_trials = trial_seed_block(3, 8)

    def partition_keys(engine, keys):
        yield pd.DataFrame({"pid": TaskContext.get().partitionId(), "key": keys})

    with SparkTrialEngine(spark, csr, w) as eng:
        for size in [*range(1, par + 2), 10, 1000]:
            if size <= par + 1:
                block = trial_seed_block(size, size)
                pdf = eng.run_many(seeds, block)
                want = dict(
                    zip(trial_keys(block).view(np.int64).tolist(), local.run_many(seeds, block))
                )
                assert dict(zip(pdf["trial"].tolist(), pdf["num_active"].tolist())) == want
                cands = list(range(size))
                assert np.array_equal(
                    eng.gains(seeds[:1], cands, gain_trials),
                    local.gains(seeds[:1], cands, gain_trials),
                )
            keys = np.arange(size, dtype=np.int64)
            got = eng._map(keys, partition_keys, "pid int, key long").toPandas()
            assert sorted(got["key"].tolist()) == keys.tolist()
            p = min(size, par)
            per_part = got.groupby("pid").size()
            assert len(per_part) == p
            assert set(per_part.tolist()) <= {size // p, -(-size // p)}


def test_each_fanout_runs_one_stage(spark, workload):
    """A trial or candidate fan-out is one job of one stage: no shuffle."""
    csr, w, seeds, block = workload
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    try:
        with SparkTrialEngine(spark, csr, w) as eng:
            for group, start in (
                ("test-one-stage-run-many", lambda: eng.run_many(seeds, block)),
                ("test-one-stage-gains", lambda: eng.gains(seeds[:1], range(10), block[:4])),
                (
                    "test-one-stage-trials-df",
                    lambda: run_trials_df(spark, csr, w, seeds, block).collect(),
                ),
            ):
                sc.setJobGroup(group, "a fan-out must run as one stage")
                start()
                jobs = tracker.getJobIdsForGroup(group)
                assert len(jobs) == 1
                assert len(tracker.getJobInfo(jobs[0]).stageIds) == 1
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
