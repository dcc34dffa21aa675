"""spark-submit entrypoint reproducing Table 2 (CELF run-times).

Usage:
    spark-submit jobs/table2.py [--n 5000] [--mc 1000] [--k 10] \
        [--backends csr,pure_python,spark] [--ndlib-estimate]

Defaults to the paper's graph scale (random 7-regular, n=5000) but a
reduced Monte-Carlo sample count; raise ``--mc`` toward the paper's
effective sampling at the cost of wall-clock. ``--ndlib-estimate`` prints
the extrapolated NDlib-backed CELF time reproducing the paper's
"did not finish within 5 minutes" row.
"""
from __future__ import annotations

import argparse

from repro.bench.table2 import (
    PAPER_K,
    PAPER_N,
    PAPER_NDLIB_TIMEOUT_S,
    estimate_ndlib_celf_seconds,
    format_table2,
    run_table2,
    table2_graph,
)
from repro.graphs.weights import edge_weights
from repro.session import get_session


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=PAPER_N)
    ap.add_argument("--mc", type=int, default=100)
    ap.add_argument("--k", type=int, default=PAPER_K)
    ap.add_argument("--backends", type=str, default="csr,pure_python")
    ap.add_argument("--ndlib-estimate", action="store_true")
    args = ap.parse_args()
    backends = tuple(args.backends.split(","))
    spark = get_session("table2") if "spark" in backends else None
    rows = run_table2(backends=backends, n=args.n, k=args.k, mc=args.mc, spark=spark)
    print(
        f"\nTable 2 — CELF, k={args.k}, random 7-regular n={args.n}, "
        f"mc={args.mc} (seconds)\n"
    )
    print(format_table2(rows))
    if args.ndlib_estimate:
        csr = table2_graph(args.n, 7, seed=42)
        for ewm in ("TV", "WC"):
            w = edge_weights(csr, ewm, seed=11)
            est = estimate_ndlib_celf_seconds(csr, w, mc=args.mc)
            verdict = "DNF" if est > PAPER_NDLIB_TIMEOUT_S else "finishes"
            print(
                f"NDlib-like CELF first-pass estimate ({ewm}): {est:.0f}s "
                f"-> {verdict} within the paper's {PAPER_NDLIB_TIMEOUT_S:.0f}s timeout"
            )
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
