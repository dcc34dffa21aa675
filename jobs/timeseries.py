"""spark-submit entrypoint for the Figure 3 scenario (activation curves).

Computes the mean number of activated nodes per iteration across many IC
simulations for several seed-set sizes — the data behind the paper's
"mean number of nodes activated over time" plot on a random regular graph.

Usage:
    spark-submit jobs/timeseries.py [--n 5000] [--d 7] [--trials 1000] [--seed-sizes 1,5,10]
"""
from __future__ import annotations

import argparse

from repro.analysis import mean_active_over_time_df
from repro.bench.harness import pick_seed_nodes
from repro.bench.table2 import table2_graph
from repro.diffusion.spark_engine import run_trials_df
from repro.graphs.weights import edge_weights
from repro.im.spread import trial_seed_block
from repro.session import get_session


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--d", type=int, default=7)
    ap.add_argument("--ewm", choices=["TV", "UR", "WC"], default="WC")
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed-sizes", type=str, default="1,5,10")
    args = ap.parse_args()
    spark = get_session("timeseries")
    csr = table2_graph(args.n, args.d, seed=42)
    w = edge_weights(csr, args.ewm, seed=11)
    block = trial_seed_block(0, args.trials)
    for size in (int(s) for s in args.seed_sizes.split(",")):
        seeds = pick_seed_nodes(csr.n, size)
        act = run_trials_df(spark, csr, w, seeds, block, output="activations")
        curve = mean_active_over_time_df(spark, act, args.trials)
        print(f"\nMean activated nodes over time — |S|={size}, {args.ewm}, {args.trials} trials")
        curve.show(50)
    spark.stop()


if __name__ == "__main__":
    main()
