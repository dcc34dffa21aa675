"""Frontier-based pure-Python engine (S7) — the paper's hand-written baseline.

Same BFS-frontier algorithm as :mod:`repro.diffusion.csr_engine`, but run
as interpreted Python over list-of-lists adjacency. This is the "fast pure
Python implementation ... written for comparison purposes" from the paper:
it benefits from Observation 1 (work proportional to touched edges) yet
pays the interpreter cost per edge, which is exactly the gap the paper's
Table 1 "pure Python" column measures.
"""
from __future__ import annotations

import numpy as np

from repro.diffusion.common import DiffusionResult, Engine, trial_keys, validate_seeds
from repro.diffusion.rng import (
    STREAM_IC_COIN,
    STREAM_LT_THRESHOLD,
    ScalarCoins,
)
from repro.graphs.csr import CSRGraph


class PurePythonEngine(Engine):
    """IC/LT simulator with interpreted frontier BFS over Python lists."""

    def __init__(self, csr: CSRGraph, weights: np.ndarray, *, model: str = "ic") -> None:
        super().__init__(csr, weights, model=model)
        self.n = csr.n
        # Adjacency as plain Python lists of (dst, eid, weight) built from
        # the CSR so edge ids (hence coins and weights) match every other
        # engine. Built once at model creation, outside per-trial timing.
        wl = self.weights.tolist()
        dsts = csr.indices.tolist()
        ptr = csr.indptr.tolist()
        self.adj: list[list[tuple[int, int, float]]] = [
            [(dsts[e], e, wl[e]) for e in range(ptr[u], ptr[u + 1])] for u in range(csr.n)
        ]

    def run(self, seeds, trial_seed: int) -> DiffusionResult:
        """Run one trial; bit-identical to the CSR engine per trial_seed."""
        seeds = validate_seeds(self.n, seeds)
        trial_seed = int(trial_keys([trial_seed])[0])
        if self.model == "ic":
            return self._run_ic(seeds, trial_seed)
        return self._run_lt(seeds, trial_seed)

    def _run_ic(self, seeds: np.ndarray, trial_seed: int) -> DiffusionResult:
        coins = ScalarCoins(STREAM_IC_COIN, trial_seed)
        act_time = [-1] * self.n
        frontier = seeds.tolist()
        for s in frontier:
            act_time[s] = 0
        t = 0
        while frontier:
            t += 1
            newly: list[int] = []
            for u in frontier:
                for v, eid, w in self.adj[u]:
                    if act_time[v] < 0 and coins.u(eid) < w:
                        act_time[v] = t
                        newly.append(v)
            frontier = newly
        return DiffusionResult(np.asarray(act_time, np.int32))

    def _run_lt(self, seeds: np.ndarray, trial_seed: int) -> DiffusionResult:
        thresholds = ScalarCoins(STREAM_LT_THRESHOLD, trial_seed)
        act_time = [-1] * self.n
        acc = [0.0] * self.n
        frontier = seeds.tolist()
        for s in frontier:
            act_time[s] = 0
        t = 0
        while frontier:
            t += 1
            # Candidates = every inactive node that received weight this
            # round (it may also hold weight from earlier rounds; nodes
            # receiving nothing new cannot newly cross their threshold).
            touched: set[int] = set()
            for u in frontier:
                for v, _eid, w in self.adj[u]:
                    if act_time[v] < 0:
                        acc[v] += w
                        touched.add(v)
            newly: list[int] = []
            for v in sorted(touched):
                if acc[v] >= thresholds.u(v):
                    act_time[v] = t
                    newly.append(v)
            frontier = newly
        return DiffusionResult(np.asarray(act_time, np.int32))
