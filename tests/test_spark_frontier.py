"""DataFrame frontier engine tests (S10), oracle-checked with DuckDB.

The frontier engine computes reachability over a live-edge realization by
iterative joins; DuckDB verifies it with a ``WITH RECURSIVE`` query over
the same edge and seed tables (the strongest available cross-check of a
Catalyst-driven iterative computation).
"""
import numpy as np
import pandas as pd
import pytest

from repro.diffusion import make_engine
from repro.diffusion.exact import reachable
from repro.diffusion.spark_engine import frontier_reachability_df, sample_live_edges
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights
from repro.im.spread import trial_seed_block
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def workload():
    csr = build_csr(erdos_renyi(150, 0.035, seed=2))
    return csr, edge_weights(csr, "WC"), [0, 5, 11]


# Depth is capped at {n}: live-edge graphs contain cycles, and an
# unbounded (node, time) UNION would recurse forever (time grows along
# every cycle). BFS distance = MIN(time) is unaffected by the cap.
_RECURSIVE_SQL = """
WITH RECURSIVE reach(node, time) AS (
    SELECT node, 0 AS time FROM seeds
    UNION
    SELECT e.dst AS node, r.time + 1 AS time
    FROM reach r JOIN edges e ON e.src = r.node
    WHERE r.time < {n}
)
SELECT node, MIN(time) AS time FROM reach GROUP BY node
"""


@pytest.mark.parametrize("trial_idx", range(4))
def test_frontier_matches_duckdb_recursive(spark, workload, trial_idx):
    csr, w, seeds = workload
    trial = int(trial_seed_block(9, 10)[trial_idx])
    le = sample_live_edges(csr, w, trial, model="ic")
    edges_pdf = pd.DataFrame(le, columns=["src", "dst"])
    seeds_pdf = pd.DataFrame({"node": seeds})
    ledf = spark.createDataFrame(edges_pdf)
    got = frontier_reachability_df(spark, ledf, seeds)
    assert_equivalent(
        got, _RECURSIVE_SQL.format(n=csr.n), edges=edges_pdf, seeds=seeds_pdf
    )


# WC cases keep their bare trial-index ids; UR cascades flood the graph.
_PER_TRIAL_CASES = [pytest.param("WC", i, id=str(i)) for i in range(3)] + [
    pytest.param("UR", i, id=f"UR-{i}") for i in range(3)
]


@pytest.mark.parametrize("ewm, trial_idx", _PER_TRIAL_CASES)
def test_frontier_matches_ic_engine_per_trial(spark, workload, ewm, trial_idx):
    """IC live edges reuse the engines' coin stream, so reachability over
    them reproduces the CSR engine's trial bit-for-bit (times included)."""
    csr, _, seeds = workload
    w = edge_weights(csr, ewm)
    trial = int(trial_seed_block(10, 10)[trial_idx])
    le = sample_live_edges(csr, w, trial, model="ic")
    ledf = spark.createDataFrame(pd.DataFrame(le, columns=["src", "dst"]))
    got = frontier_reachability_df(spark, ledf, seeds).toPandas()
    r = make_engine("csr", csr, w, model="ic").run(seeds, trial)
    if ewm == "UR":
        assert r.num_active > csr.n // 2
    assert set(got["node"]) == set(r.active_nodes.tolist())
    tmap = dict(zip(got["node"], got["time"]))
    for v in r.active_nodes.tolist():
        assert tmap[v] == r.activation_time[v]


def test_frontier_handles_no_live_edges(spark, workload):
    csr, _, seeds = workload
    ledf = spark.createDataFrame([], schema="src long, dst long")
    got = frontier_reachability_df(spark, ledf, seeds).toPandas()
    assert sorted(got["node"]) == sorted(seeds)
    assert (got["time"] == 0).all()


def test_sample_live_edges_ic_rate():
    """Live-edge frequency per edge converges to its weight."""
    csr = build_csr(erdos_renyi(40, 0.1, seed=3))
    w = edge_weights(csr, "UR", seed=4)
    counts = np.zeros(csr.m)
    block = trial_seed_block(11, 800)
    edge_index = {tuple(e): i for i, e in enumerate(csr.edge_array().tolist())}
    for t in block.tolist():
        le = sample_live_edges(csr, w, int(t), model="ic")
        for e in le.tolist():
            counts[edge_index[tuple(e)]] += 1
    freq = counts / len(block)
    assert np.abs(freq - w).max() < 0.08


@pytest.mark.parametrize("bad", [np.nan, 1.5])
@pytest.mark.parametrize("model", ["ic", "lt"])
def test_sample_live_edges_rejects_bad_weights(bad, model):
    csr = build_csr(erdos_renyi(50, 0.1, seed=3))
    with pytest.raises(ValueError, match="edge"):
        sample_live_edges(csr, np.full(csr.m, bad), 1, model=model)


def test_sample_live_edges_lt_at_most_one_per_node():
    csr = build_csr(erdos_renyi(60, 0.08, seed=5))
    w = edge_weights(csr, "WC")
    for t in trial_seed_block(12, 20).tolist():
        le = sample_live_edges(csr, w, int(t), model="lt")
        dsts = le[:, 1]
        assert len(np.unique(dsts)) == len(dsts)


def test_sample_live_edges_lt_pick_rate():
    """Each in-edge of a node is picked with probability equal to its weight."""
    csr = build_csr(erdos_renyi(30, 0.15, seed=6))
    w = edge_weights(csr, "WC")
    counts = np.zeros(csr.m)
    block = trial_seed_block(13, 800)
    edge_index = {tuple(e): i for i, e in enumerate(csr.edge_array().tolist())}
    for t in block.tolist():
        for e in sample_live_edges(csr, w, int(t), model="lt").tolist():
            counts[edge_index[tuple(e)]] += 1
    freq = counts / len(block)
    assert np.abs(freq - w).max() < 0.08


def test_live_edge_reachability_equals_local_bfs(spark, workload):
    """Spark reachability agrees with the plain-Python reachable()."""
    csr, w, seeds = workload
    trial = int(trial_seed_block(14, 1)[0])
    le = sample_live_edges(csr, w, trial, model="ic")
    ledf = spark.createDataFrame(pd.DataFrame(le, columns=["src", "dst"]))
    got = frontier_reachability_df(spark, ledf, seeds).toPandas()
    mask = reachable(csr.n, le, seeds)
    assert set(got["node"]) == set(np.nonzero(mask)[0].tolist())
