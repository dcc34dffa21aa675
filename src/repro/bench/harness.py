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

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.diffusion import make_engine
from repro.diffusion.spark_engine import SparkTrialEngine
from repro.graphs.csr import CSRGraph
from repro.im.spread import trial_seed_block


@dataclass(frozen=True)
class BenchResult:
    """One implementation's timing on one workload."""

    name: str
    trials: int
    seconds: float
    its_per_sec: float
    mean_spread: float


def pick_seed_nodes(n: int, k: int, *, seed: int = 7) -> np.ndarray:
    """Deterministic k-node seed set (uniform without replacement)."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)


def run_timed(engine, seeds, trial_seeds) -> tuple[float, float]:
    """(seconds, mean_spread) for running all trials on one engine.

    The CSR engine runs all trials in one compiled kernel call (its normal
    operating mode for Monte-Carlo workloads); the interpreted baselines
    loop trial-by-trial, which is all they can do — the same asymmetry
    the paper's CyNetDiff-vs-Python comparison measures.
    """
    t0 = time.perf_counter()
    if isinstance(engine, SparkTrialEngine):
        pdf = engine.run_many(seeds, trial_seeds)
        total = int(pdf["num_active"].sum())
    elif hasattr(engine, "run_many"):
        total = int(engine.run_many(seeds, trial_seeds).sum())
    else:
        total = 0
        for ts in np.asarray(trial_seeds).tolist():
            total += engine.run(seeds, int(ts)).num_active
    dt = time.perf_counter() - t0
    return dt, total / len(trial_seeds)


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
    """
    seeds = pick_seed_nodes(csr.n, n_seed_nodes)
    block = trial_seed_block(base_seed, trials)
    out: list[BenchResult] = []
    for kind in engines:
        if kind == "spark":
            if spark is None:
                raise ValueError("engines includes 'spark' but no session given")
            eng = SparkTrialEngine(spark, csr, weights, model=model)
        else:
            eng = make_engine(kind, csr, weights, model=model)
        secs, spread = run_timed(eng, seeds, block)
        out.append(
            BenchResult(
                name=kind,
                trials=trials,
                seconds=secs,
                its_per_sec=trials / secs if secs > 0 else float("inf"),
                mean_spread=spread,
            )
        )
    spreads = {round(r.mean_spread, 9) for r in out}
    if len(spreads) != 1:
        raise AssertionError(f"engines disagree on mean spread: {out}")
    return out


def normalize_ratios(results: Sequence[BenchResult]) -> dict[str, int]:
    """Paper-style normalization: fastest implementation = 1, rows rounded."""
    fastest = min(r.seconds for r in results)
    return {r.name: max(1, round(r.seconds / fastest)) for r in results}
