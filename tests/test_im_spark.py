"""Spark IM tests: parallel marginal gains + the Spark CELF backend."""
import pytest

from repro.diffusion import make_engine
from repro.diffusion.spark_engine import SparkTrialEngine
from repro.graphs.csr import build_csr
from repro.graphs.generators import random_regular
from repro.graphs.weights import edge_weights
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
    assert spark_sigma.gains([3], [9, 3]).tolist() == pytest.approx(
        local_sigma.gains([3], [9, 3]).tolist()
    )
