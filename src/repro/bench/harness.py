"""``simple_benchmark`` — the paper's comparative benchmark function.

Mirrors the demonstration's ``simple_benchmark``: run the same diffusion
workload (model, seed set, trial count) through several implementations
on an arbitrary input graph and report wall-clock seconds and iterations
per second (the "it/s" in the paper's Figure 1 output). Model/engine
construction happens before the clock starts, matching the paper's
methodology where model classes are instantiated once and then advanced
per simulation.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.diffusion import make_engine
from repro.diffusion.spark_engine import SparkTrialEngine
from repro.graphs.csr import CSRGraph
from repro.im.spread import trial_seed_block

# simple_benchmark times each engine RUNS times, or for BUDGET_S seconds if sooner.
RUNS, BUDGET_S = 3, 0.5


@dataclass(frozen=True)
class BenchResult:
    """One implementation's timing on one workload: the median of ``runs`` timings."""

    name: str
    trials: int
    seconds: float
    its_per_sec: float
    mean_spread: float
    runs: int = 1


def pick_seed_nodes(n: int, k: int, *, seed: int = 7) -> np.ndarray:
    """Deterministic k-node seed set (uniform without replacement)."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)


def simple_benchmark(
    csr: CSRGraph,
    weights: np.ndarray,
    *,
    model: str = "ic",
    engines: Sequence[str] = ("csr", "pure_python", "ndlib_like"),
    n_seed_nodes: int = 100,
    trials: int = 100,
    base_seed: int = 0,
    spark=None,
) -> list[BenchResult]:
    """Benchmark several implementations on one (graph, weights) workload.

    ``engines`` may include ``"spark"`` (requires ``spark=`` session).
    Every implementation runs the *same* trial-seed block, so their
    ``mean_spread`` values must agree exactly — the harness asserts this,
    turning every benchmark run into a cross-engine correctness check.
    Each timing is one ``engine.spread`` call over all trials, repeated
    until there are ``RUNS`` timings or ``BUDGET_S`` seconds have passed,
    whichever comes first; ``seconds`` is their median. A cell that takes
    longer than the budget, as interpreted cells do, runs once. Each engine
    runs the trials its own way: the CSR engine in one compiled kernel
    call, the interpreted baselines trial by trial, the Spark engine as
    one fan-out job. That asymmetry is what the paper's CyNetDiff-vs-Python
    comparison measures.
    """
    seeds = pick_seed_nodes(csr.n, n_seed_nodes)
    block = trial_seed_block(base_seed, trials)
    out: list[BenchResult] = []
    spreads: set[float] = set()  # every run's, across engines
    for kind in engines:
        if kind == "spark":
            if spark is None:
                raise ValueError("engines includes 'spark' but no session given")
            engine = SparkTrialEngine(spark, csr, weights, model=model)
        else:
            engine = contextlib.nullcontext(make_engine(kind, csr, weights, model=model))
        times = []
        with engine as eng:  # a Spark engine releases its broadcast on exit
            while len(times) < RUNS and sum(times) < BUDGET_S:
                t0 = time.perf_counter()
                spread = eng.spread(seeds, block)
                times.append(time.perf_counter() - t0)
                spreads.add(spread)
        secs = float(np.median(times))
        out.append(
            BenchResult(
                name=kind,
                trials=trials,
                seconds=secs,
                its_per_sec=trials / secs if secs > 0 else float("inf"),
                mean_spread=spread,
                runs=len(times),
            )
        )
    if len(spreads) != 1:
        raise AssertionError(f"engines disagree on mean spread: {spreads}, {out}")
    return out


def normalize_ratios(results: Sequence[BenchResult]) -> dict[str, int]:
    """Paper-style normalization: fastest implementation = 1, rows rounded."""
    fastest = min(r.seconds for r in results)
    return {r.name: max(1, round(r.seconds / fastest)) for r in results}
