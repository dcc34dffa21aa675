"""Spark IM tests: parallel marginal gains + the Spark CELF backend."""
import pytest

from repro.diffusion import CSREngine, make_engine
from repro.diffusion.spark_engine import SparkTrialEngine
from repro.graphs.csr import build_csr
from repro.graphs.generators import random_regular
from repro.graphs.weights import edge_weights, normalize_for_lt
from repro.im import celf, make_sigma, marginal_gains_spark, trial_seed_block
from repro.im.spread import estimate_spread


@pytest.fixture(scope="module")
def workload():
    csr = build_csr(random_regular(80, 5, seed=1))
    return csr, edge_weights(csr, "TV", seed=2), trial_seed_block(3, 40)


def test_marginal_gains_match_local(spark, workload):
    csr, w, block = workload
    local = make_engine("csr", csr, w)
    got = marginal_gains_spark(spark, csr, w, list(range(20)), block).toPandas()
    assert len(got) == 20
    for c, s in zip(got["candidate"], got["sigma_hat"]):
        assert estimate_spread(local, [int(c)], block) == pytest.approx(s)


def test_marginal_gains_with_base_seeds(spark, workload):
    csr, w, block = workload
    local = make_engine("csr", csr, w)
    got = marginal_gains_spark(
        spark, csr, w, [5, 6, 7], block, base_seeds=[0, 1]
    ).toPandas()
    for c, s in zip(got["candidate"], got["sigma_hat"]):
        assert estimate_spread(local, [0, 1, int(c)], block) == pytest.approx(s)


def test_spark_celf_backend_matches_local(spark, workload):
    """CELF seeded with Spark-computed initial gains == fully-local CELF."""
    csr, w, block = workload
    sigma = make_sigma(make_engine("csr", csr, w), block)
    local_res = celf(sigma, range(csr.n), 4)
    gains_pdf = marginal_gains_spark(
        spark, csr, w, list(range(csr.n)), block
    ).toPandas()
    initial = dict(zip(gains_pdf["candidate"], gains_pdf["sigma_hat"]))
    spark_res = celf(sigma, range(csr.n), 4, initial_gains=initial)
    assert spark_res.seeds == local_res.seeds
    assert spark_res.sigma_values == pytest.approx(local_res.sigma_values)


def test_spark_trial_engine_as_sigma_backend(spark, workload):
    """make_sigma works with the SparkTrialEngine (spread and gains paths)."""
    csr, w, block = workload
    spark_sigma = make_sigma(SparkTrialEngine(spark, csr, w), block[:20])
    local_sigma = make_sigma(make_engine("csr", csr, w), block[:20])
    for s in ([3], [3, 9]):
        assert spark_sigma(s) == pytest.approx(local_sigma(s))
    assert spark_sigma.gains([3], [9, 3]).tolist() == local_sigma.gains([3], [9, 3]).tolist()


def _jobs(spark, group, run) -> int:
    """Number of Spark jobs ``run()`` starts, counted in a job group of its own."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        run()
        return len(sc.statusTracker().getJobIdsForGroup(group))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_gains_is_one_fan_out(spark, workload, model):
    """All candidates cost the jobs of one ``run_many`` call, and the values
    are ``CSREngine.gains``'s exactly, in candidate order, duplicates included."""
    csr, w, block = workload
    if model == "lt":
        w = normalize_for_lt(csr, w)
    cands = [*range(csr.n - 1, -1, -1), 7]
    with SparkTrialEngine(spark, csr, w, model=model) as eng:
        got = []
        fan_out = _jobs(spark, f"test-gains-{model}", lambda: got.extend(eng.gains([2], cands, block)))
        run_many = _jobs(spark, f"test-run-many-{model}", lambda: eng.run_many([2], block))
    assert fan_out == run_many > 0
    assert got == CSREngine(csr, w, model=model).gains([2], cands, block).tolist()
