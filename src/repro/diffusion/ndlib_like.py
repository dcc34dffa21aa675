"""NDlib-style full-scan engine (S8) — the paper's slow baseline.

Reproduces the cost structure of NDlib's ``DiffusionModel`` as the paper
characterizes it ("NDLIB simulates these models by looping through every
node in each time step"), plus the bookkeeping NDlib's source actually
performs, so the baseline is slow for the *same reasons* NDlib is:

1. **Per-simulation configuration.** NDlib's ``set_initial_status`` walks
   every node and every edge applying the model configuration into nested
   parameter dicts; running N independent simulations re-applies it N
   times. ``_run`` therefore rebuilds the nested params dict each trial.
2. **Full node scan per time step.** Every iteration loops over *all* n
   nodes to find the active ones — a step costs Omega(n) even when one
   node is active.
3. **Status snapshot + delta per time step.** NDlib copies the entire
   status dict at the top of each iteration (``actual_status``), mutates
   the copy, then diffs old vs new status over all nodes
   (``status_delta``) to report the iteration — two more full passes.
4. **NetworkX-style dict-of-dicts adjacency** with per-attempt edge
   parameter lookups keyed by ``(u, v)`` tuples.

Statuses follow NDlib's bookkeeping for IC (susceptible -> active ->
removed; an active node tries its neighbors once, reading the *previous*
iteration's statuses, then retires). Coins come from the shared
counter-based stream, so the final activated set is bit-identical to
every other engine for any ``trial_seed``.

As NDlib's models share one ``DiffusionModel`` iteration and each adds
only its node update, ``_run`` is one trial loop for IC and LT that
branches on the model per active node. ``Engine.run`` and
``Engine.run_many`` check the seeds and trial seeds once per call and
call it per trial.
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

_SUSCEPTIBLE, _ACTIVE, _REMOVED = 0, 1, 2


class NDlibLikeEngine(Engine):
    """IC/LT simulator with NDlib's full-scan/full-copy iteration shape."""

    def __init__(self, csr: CSRGraph, weights: np.ndarray, *, model: str = "ic") -> None:
        super().__init__(csr, weights, model=model)
        self.n = csr.n
        # dict-of-dicts adjacency, as networkx stores graphs: outer dict
        # node -> {neighbor: eid}. Edge weights live in the per-run params
        # dict (see _apply_configuration), as NDlib keeps them. Like
        # NDlib's DiGraph it holds one edge per (u, v) pair, so a parallel
        # edge is rejected rather than silently dropped.
        wl = self.weights.tolist()
        dsts = csr.indices.tolist()
        ptr = csr.indptr.tolist()
        self.adj: dict[int, dict[int, int]] = {}
        self._edge_weights: dict[tuple[int, int], float] = {}
        for u in range(csr.n):
            nbrs = self.adj[u] = {}
            for e in range(ptr[u], ptr[u + 1]):
                if dsts[e] in nbrs:
                    raise ValueError(f"parallel edges are not supported: ({u}, {dsts[e]}) repeats")
                nbrs[dsts[e]] = e
                self._edge_weights[(u, dsts[e])] = wl[e]

    def _apply_configuration(self) -> dict:
        """NDlib ``set_initial_status``: rebuild nested param dicts.

        Walks every node (per-node threshold slot) and every edge
        (per-edge weight) exactly as NDlib applies a ``Configuration`` to
        a model before each simulation. Returned params are what the
        iteration loop reads weights from.
        """
        params: dict = {"nodes": {"threshold": {}}, "edges": {"weight": {}}}
        for u in self.adj:
            params["nodes"]["threshold"][u] = 0.0
        edge_weight = params["edges"]["weight"]
        for u, nbrs in self.adj.items():
            for v in nbrs:
                edge_weight[(u, v)] = self._edge_weights[(u, v)]
        return params

    def _run(self, seeds: list[int], key: int) -> list[int]:
        """One trial's activation times; same activated set as every other engine."""
        ic = self.model == "ic"
        coins = ScalarCoins(STREAM_IC_COIN if ic else STREAM_LT_THRESHOLD, key)
        edge_weight = self._apply_configuration()["edges"]["weight"]
        status = {u: _SUSCEPTIBLE for u in range(self.n)}
        act_time = [-1] * self.n
        acc = None if ic else [0.0] * self.n
        for s in seeds:
            status[s] = _ACTIVE
            act_time[s] = 0
        t = 0
        while True:
            # NDlib iteration: snapshot the whole status dict, scan every
            # node, mutate the snapshot, then diff old vs new.
            actual_status = dict(status)
            touched: set[int] = set()
            for u in range(self.n):
                if status[u] != _ACTIVE:
                    continue
                # An active node tries (IC) or pushes its weight to (LT) its
                # susceptible out-neighbors exactly once, then retires.
                if ic:
                    for v, eid in self.adj[u].items():
                        if status[v] == _SUSCEPTIBLE:
                            if coins.u(eid) < edge_weight[(u, v)]:
                                actual_status[v] = _ACTIVE
                else:
                    for v in self.adj[u]:
                        if status[v] == _SUSCEPTIBLE:
                            acc[v] += edge_weight[(u, v)]
                            touched.add(v)
                actual_status[u] = _REMOVED
            for v in sorted(touched):  # LT threshold tests; empty under IC
                if actual_status[v] == _SUSCEPTIBLE and acc[v] >= coins.u(v):
                    actual_status[v] = _ACTIVE
            # status_delta: full comparison pass over all nodes
            delta = {
                u: actual_status[u]
                for u in status
                if status[u] != actual_status[u]
            }
            newly = [u for u, st in delta.items() if st == _ACTIVE]
            status = actual_status
            if newly:
                t += 1
                for v in newly:
                    act_time[v] = t
            if not any(st == _ACTIVE for st in status.values()):
                break
        return act_time
