"""DataFrame frontier engine tests (S10), oracle-checked with DuckDB.

The frontier engine computes reachability over a live-edge realization by
iterative joins; DuckDB verifies it with a ``WITH RECURSIVE`` query over
the same edge and seed tables (the strongest available cross-check of a
Catalyst-driven iterative computation).
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.diffusion import CSREngine, make_engine
from repro.diffusion.exact import reachable
from repro.diffusion.spark_engine import frontier_reachability_df, sample_live_edges
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights
from repro.im.spread import trial_seed_block
from repro.oracle import assert_equivalent

from tests.helpers import from_edges, small_graphs


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
    got = frontier_reachability_df(spark, ledf, csr.n, seeds)
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
    got = frontier_reachability_df(spark, ledf, csr.n, seeds).toPandas()
    r = make_engine("csr", csr, w, model="ic").run(seeds, trial)
    if ewm == "UR":
        assert r.num_active > csr.n // 2
    assert set(got["node"]) == set(r.active_nodes.tolist())
    tmap = dict(zip(got["node"], got["time"]))
    for v in r.active_nodes.tolist():
        assert tmap[v] == r.activation_time[v]


def _frontier_times(spark, csr, w, seeds, trial) -> dict[int, int]:
    """node -> time from the frontier engine over trial's IC live edges."""
    live = pd.DataFrame(sample_live_edges(csr, w, trial, model="ic"), columns=["src", "dst"])
    ledf = spark.createDataFrame(live, schema="src long, dst long")
    got = frontier_reachability_df(spark, ledf, csr.n, seeds).toPandas()
    return dict(zip(got["node"].tolist(), got["time"].tolist()))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    graph=small_graphs(),
    seeds=st.lists(st.integers(0, 11), min_size=1, max_size=4),
    trial=st.integers(-(2**63), 2**64 - 1),
)
@example(graph=(from_edges(4, []), np.empty(0), "ic"), seeds=[1, 3], trial=5)
@example(  # nodes 3-5 have no edges
    graph=(from_edges(6, [(0, 1), (1, 2), (2, 0)]), np.ones(3), "ic"), seeds=[0, 4], trial=-7
)
def test_frontier_matches_ic_engine_on_small_graphs(spark, graph, seeds, trial):
    """Same nodes and times as ``CSREngine.run`` on the shapes the ER fixture never
    makes: edgeless graphs, isolated nodes, self-loops and parallel edges."""
    csr, w, _ = graph
    seeds = [s % csr.n for s in seeds]
    r = CSREngine(csr, w).run(seeds, trial)
    want = {v: int(r.activation_time[v]) for v in r.active_nodes.tolist()}
    assert _frontier_times(spark, csr, w, seeds, trial) == want


def test_frontier_rejects_non_integer_seeds_before_any_job(spark):
    """``int()`` would run node 0 for 0.7 and node 1 for True; nodes -1 and 7
    are not in the graph 0 -> 1 -> 2, and an empty seed set is no seed set."""
    ledf = spark.createDataFrame([(0, 1), (1, 2)], schema="src long, dst long")
    sc = spark.sparkContext
    group = "test-frontier-bad-seeds"
    sc.setJobGroup(group, "bad seeds must fail before any job")
    try:
        for seeds, match in (
            ([0.7], "seeds must be integers"),
            ([True], "seeds must be integers"),
            ([True, 1], "seeds must be integers"),
            ([-1, 7], "seed out of range"),
            ([], "non-empty"),
        ):
            with pytest.raises(ValueError, match=match):
                frontier_reachability_df(spark, ledf, 3, seeds)
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []
        # The group does see jobs: integer seeds run the search.
        assert frontier_reachability_df(spark, ledf, 3, [1]).count() == 2
        assert list(sc.statusTracker().getJobIdsForGroup(group))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_sample_live_edges_trial_seeds(model):
    """Bools and floats are not trial seeds (True would sample trial 1);
    NumPy and Python integers of equal value sample the same edges."""
    csr = build_csr(erdos_renyi(40, 0.1, seed=3))
    w = edge_weights(csr, "WC")
    for bad in (True, 1.5):
        with pytest.raises(ValueError, match="trial seeds must be integers"):
            sample_live_edges(csr, w, bad, model=model)
    big = 2**63 + 5
    want = sample_live_edges(csr, w, big, model=model)
    assert np.array_equal(sample_live_edges(csr, w, np.uint64(big), model=model), want)


def test_frontier_handles_no_live_edges(spark, workload):
    csr, _, seeds = workload
    ledf = spark.createDataFrame([], schema="src long, dst long")
    got = frontier_reachability_df(spark, ledf, csr.n, seeds).toPandas()
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
    got = frontier_reachability_df(spark, ledf, csr.n, seeds).toPandas()
    mask = reachable(csr.n, le, seeds)
    assert set(got["node"]) == set(np.nonzero(mask)[0].tolist())
