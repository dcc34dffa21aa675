"""Table 1 driver — IC run-times across graphs, EWMs, implementations.

Paper workload: the IC model run 1,000 times with 100 seed nodes on three
graphs (Erdős–Rényi, Watts–Strogatz, Facebook) under three edge-weight
models (TV, UR, WC); run-times normalized per row so the fastest
implementation is 1. The paper's reported ratios are in
``PAPER_TABLE1`` for side-by-side recording in EXPERIMENTS.md.

The paper's graph parameters are partly garbled by PDF extraction
("v=2,000 nodes" is legible for the synthetic graphs); the parameters
here are chosen to match that node count and the sparse regimes the row
ratios imply, and the Facebook graph is the synthetic SNAP substitute
(DESIGN.md §4).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bench.harness import BenchResult, normalize_ratios, simple_benchmark
from repro.graphs.csr import CSRGraph, build_csr
from repro.graphs.generators import erdos_renyi, facebook_like, watts_strogatz
from repro.graphs.weights import EWM_NAMES, edge_weights

# Paper Table 1 ratios: {(graph, ewm): {impl: ratio}}.
PAPER_TABLE1 = {
    ("Erdős-Rényi", "TV"): {"csr": 1, "pure_python": 11, "ndlib_like": 194},
    ("Erdős-Rényi", "UR"): {"csr": 1, "pure_python": 12, "ndlib_like": 203},
    ("Erdős-Rényi", "WC"): {"csr": 1, "pure_python": 11, "ndlib_like": 198},
    ("Watts-Strogatz", "TV"): {"csr": 1, "pure_python": 9, "ndlib_like": 283},
    ("Watts-Strogatz", "UR"): {"csr": 1, "pure_python": 11, "ndlib_like": 327},
    ("Watts-Strogatz", "WC"): {"csr": 1, "pure_python": 9, "ndlib_like": 312},
    ("Facebook", "TV"): {"csr": 1, "pure_python": 8, "ndlib_like": 81},
    ("Facebook", "UR"): {"csr": 1, "pure_python": 12, "ndlib_like": 45},
    ("Facebook", "WC"): {"csr": 1, "pure_python": 8, "ndlib_like": 71},
}

PAPER_TRIALS = 1000
PAPER_N_SEEDS = 100


def table1_graphs(*, seed: int = 42) -> dict[str, CSRGraph]:
    """The three benchmark graphs, keyed by their table row label."""
    return {
        "Erdős-Rényi": build_csr(erdos_renyi(2000, 0.01, seed=seed)),
        "Watts-Strogatz": build_csr(watts_strogatz(2000, 10, 0.1, seed=seed)),
        "Facebook": build_csr(facebook_like(seed=seed)),
    }


@dataclass(frozen=True)
class Table1Row:
    """One (graph, EWM) row: raw timings plus paper-style ratios."""

    graph: str
    ewm: str
    results: list[BenchResult]
    ratios: dict[str, int]
    paper_ratios: dict[str, int]


def run_table1(
    *,
    trials: int,
    engines: Sequence[str] = ("csr", "pure_python", "ndlib_like"),
    graphs: dict[str, CSRGraph] | None = None,
    spark=None,
    weight_seed: int = 11,
) -> list[Table1Row]:
    """Produce every Table 1 row (optionally with the extra Spark column)."""
    graphs = graphs if graphs is not None else table1_graphs()
    rows: list[Table1Row] = []
    for gname, csr in graphs.items():
        for ewm in EWM_NAMES:
            w = edge_weights(csr, ewm, seed=weight_seed)
            results = simple_benchmark(
                csr,
                w,
                model="ic",
                engines=engines,
                n_seed_nodes=PAPER_N_SEEDS,
                trials=trials,
                spark=spark,
            )
            rows.append(
                Table1Row(
                    graph=gname,
                    ewm=ewm,
                    results=results,
                    ratios=normalize_ratios(results),
                    paper_ratios=PAPER_TABLE1.get((gname, ewm), {}),
                )
            )
    return rows


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render rows as a markdown table mirroring the paper's layout."""
    engines = [r.name for r in rows[0].results]
    header = (
        "| Graph | EWM | "
        + " | ".join(f"{e} (ours)" for e in engines)
        + " | paper (CyNetDiff / pure Python / NDlib) | fastest secs |"
    )
    sep = "|" + "---|" * (len(engines) + 4)
    lines = [header, sep]
    for r in rows:
        paper = (
            "/".join(str(r.paper_ratios.get(k, "-")) for k in ("csr", "pure_python", "ndlib_like"))
            if r.paper_ratios
            else "-"
        )
        fastest = min(x.seconds for x in r.results)
        ours = " | ".join(str(r.ratios[e]) for e in engines)
        lines.append(f"| {r.graph} | {r.ewm} | {ours} | {paper} | {fastest:.3g} |")
    return "\n".join(lines)
