"""spark-submit entrypoint reproducing Table 1 (IC run-time comparison).

Usage:
    spark-submit jobs/table1.py [--trials 1000] [--engines csr,pure_python,ndlib_like,spark]

Defaults to the paper's 1,000 trials and the three paper implementations;
pass ``--engines ...,spark`` to add the Spark Monte-Carlo column. Prints
the markdown table with the paper's ratios alongside ours.
"""
from __future__ import annotations

import argparse

from repro.bench.table1 import PAPER_TRIALS, format_table1, run_table1
from repro.session import get_session


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=PAPER_TRIALS)
    ap.add_argument(
        "--engines", type=str, default="csr,pure_python,ndlib_like"
    )
    args = ap.parse_args()
    engines = tuple(args.engines.split(","))
    spark = get_session("table1") if "spark" in engines else None
    rows = run_table1(trials=args.trials, engines=engines, spark=spark)
    print(f"\nTable 1 — IC, {args.trials} trials, 100 seeds (normalized, fastest=1)\n")
    print(format_table1(rows))
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
