"""Smoke tests for the DuckDB oracle on the reproduction's own graph tables.

The oracle path is used heavily by the Spark-side analytics tests, so it
is checked here on its own: plain aggregations and joins over the edge
table agree with DuckDB, and a wrong result is caught.
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def graph():
    csr = build_csr(erdos_renyi(300, 0.02, seed=0))
    return csr, edge_weights(csr, "UR", seed=1)


@pytest.fixture(scope="module")
def edges(spark, graph):
    csr, w = graph
    pdf = pd.DataFrame(
        {"eid": range(csr.m), "src": csr.edge_sources(), "dst": csr.indices, "weight": w}
    )
    return spark.createDataFrame(pdf).cache()


def test_edges_rowcount(graph, edges):
    csr, _ = graph
    assert edges.count() == csr.m


def test_simple_aggregation_matches_duckdb(edges):
    got = edges.groupBy("src").agg(
        F.count("*").alias("cnt"), F.round(F.sum("weight"), 2).alias("w")
    )
    assert_equivalent(
        got,
        "SELECT src, COUNT(*) AS cnt, ROUND(SUM(weight), 2) AS w FROM e GROUP BY src",
        e=edges,
    )


def test_join_matches_duckdb(edges):
    a, b = edges.alias("a"), edges.alias("b")
    got = (
        a.join(b, F.col("a.dst") == F.col("b.src"))
        .groupBy(F.col("a.src").alias("node"))
        .agg(F.count("*").alias("two_hop"))
    )
    assert_equivalent(
        got,
        """
        SELECT a.src AS node, COUNT(*) AS two_hop
        FROM e a JOIN e b ON a.dst = b.src
        GROUP BY a.src
        """,
        e=edges,
    )


def test_oracle_catches_wrong_result(edges):
    wrong = edges.groupBy("src").agg((F.count("*") + 1).alias("cnt"))
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong, "SELECT src, COUNT(*) AS cnt FROM e GROUP BY src", e=edges
        )
