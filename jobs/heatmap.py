"""spark-submit entrypoint for the Figure 2 scenario (heatmap data).

Runs many IC simulations on a graph via the Spark trial fan-out and
prints the per-node activation-frequency table (the data the paper colors
its heatmap with). Figures are out of scope; this produces the numbers.

Usage:
    spark-submit jobs/heatmap.py [--graph facebook|er|ws] [--trials 1000] [--seeds 10]
"""
from __future__ import annotations

import argparse

from repro.analysis import activation_counts_df
from repro.bench.harness import pick_seed_nodes
from repro.bench.table1 import table1_graphs
from repro.diffusion.spark_engine import run_trials_df
from repro.graphs.weights import edge_weights
from repro.im.spread import trial_seed_block
from repro.session import get_session

_GRAPH_KEYS = {"er": "Erdős-Rényi", "ws": "Watts-Strogatz", "facebook": "Facebook"}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", choices=sorted(_GRAPH_KEYS), default="er")
    ap.add_argument("--ewm", choices=["TV", "UR", "WC"], default="WC")
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()
    spark = get_session("heatmap")
    csr = table1_graphs()[_GRAPH_KEYS[args.graph]]
    w = edge_weights(csr, args.ewm, seed=11)
    seeds = pick_seed_nodes(csr.n, args.seeds)
    act = run_trials_df(
        spark, csr, w, seeds, trial_seed_block(0, args.trials), output="activations"
    )
    counts = activation_counts_df(spark, csr, act, args.trials)
    print(f"\nHeatmap data — {csr.name}, {args.ewm}, {args.trials} trials, seeds={seeds.tolist()}")
    counts.orderBy("frequency", ascending=False).show(args.top)
    spark.stop()


if __name__ == "__main__":
    main()
