"""pytest-benchmark target for Table 1 — IC run-times per implementation.

One benchmark per (graph, EWM, implementation) cell. Trial count defaults
to ``REPRO_BENCH_TRIALS`` (100; the paper runs 1,000 — ratios between
implementations are what the table reports and are trial-count
invariant). Each cell runs once (``rounds=1``): the workload is itself an
average over many simulations, so pytest-benchmark's multi-round
statistics would only re-measure the same mean.

The Spark Monte-Carlo engine is benchmarked on the Erdős–Rényi rows as
an extra (non-paper) column; at this graph scale its job-scheduling
overhead dominates, which EXPERIMENTS.md discusses.
"""
import pytest

from repro.bench.harness import pick_seed_nodes, run_timed
from repro.bench.table1 import PAPER_N_SEEDS, default_trials, table1_graphs
from repro.diffusion import make_engine
from repro.diffusion.spark_engine import SparkTrialEngine
from repro.graphs.weights import EWM_NAMES, edge_weights
from repro.im.spread import trial_seed_block

GRAPHS = table1_graphs()
TRIALS = default_trials()
ENGINES = ("csr", "pure_python", "ndlib_like")


@pytest.mark.parametrize("ewm", EWM_NAMES)
@pytest.mark.parametrize("gname", list(GRAPHS))
@pytest.mark.parametrize("kind", ENGINES)
def test_table1_cell(benchmark, gname, ewm, kind):
    csr = GRAPHS[gname]
    weights = edge_weights(csr, ewm, seed=11)
    engine = make_engine(kind, csr, weights, model="ic")
    seeds = pick_seed_nodes(csr.n, PAPER_N_SEEDS)
    block = trial_seed_block(0, TRIALS)
    benchmark.extra_info.update(graph=gname, ewm=ewm, engine=kind, trials=TRIALS)
    benchmark.pedantic(
        run_timed, args=(engine, seeds, block), rounds=1, iterations=1
    )


@pytest.mark.parametrize("ewm", EWM_NAMES)
def test_table1_spark_column(benchmark, spark, ewm):
    csr = GRAPHS["Erdős-Rényi"]
    weights = edge_weights(csr, ewm, seed=11)
    engine = SparkTrialEngine(spark, csr, weights, model="ic")
    seeds = pick_seed_nodes(csr.n, PAPER_N_SEEDS)
    block = trial_seed_block(0, TRIALS)
    benchmark.extra_info.update(graph="Erdős-Rényi", ewm=ewm, engine="spark", trials=TRIALS)
    benchmark.pedantic(
        run_timed, args=(engine, seeds, block), rounds=1, iterations=1
    )
