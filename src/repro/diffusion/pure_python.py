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

from repro.diffusion.common import Engine
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

    def _run(self, seeds: list[int], key: int) -> list[int]:
        """One trial's activation times; bit-identical to the CSR engine per key."""
        ic = self.model == "ic"
        # IC flips one coin per edge tried, LT draws one threshold per node.
        coins = ScalarCoins(STREAM_IC_COIN if ic else STREAM_LT_THRESHOLD, key)
        act_time = [-1] * self.n
        acc = None if ic else [0.0] * self.n
        for s in seeds:
            act_time[s] = 0
        frontier, t = seeds, 0
        while frontier:
            t += 1
            newly: list[int] = []
            if ic:
                for u in frontier:
                    for v, eid, w in self.adj[u]:
                        if act_time[v] < 0 and coins.u(eid) < w:
                            act_time[v] = t
                            newly.append(v)
            else:
                # Candidates = every inactive node that received weight this
                # round (it may also hold weight from earlier rounds; nodes
                # receiving nothing new cannot newly cross their threshold).
                touched: set[int] = set()
                for u in frontier:
                    for v, _eid, w in self.adj[u]:
                        if act_time[v] < 0:
                            acc[v] += w
                            touched.add(v)
                for v in sorted(touched):
                    if acc[v] >= coins.u(v):
                        act_time[v] = t
                        newly.append(v)
            frontier = newly
        return act_time
