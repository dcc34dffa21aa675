"""The two workloads that never start a JVM: ``mc_table1`` and ``celf_table2``.

Both are closed loops: one caller issues one operation at a time through
the public functions of each layer. Graph parameters are those of
``repro.bench.table1.table1_graphs`` and ``repro.bench.table2``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from perfbench.checks import check_celf, check_sampled_counts
from perfbench.tracing import Tracer
from repro.bench.harness import pick_seed_nodes
from repro.diffusion import CSREngine, PurePythonEngine
from repro.graphs import (
    build_csr,
    edge_weights,
    erdos_renyi,
    facebook_like,
    random_regular,
    watts_strogatz,
)
from repro.im.celf import celf
from repro.im.spread import estimate_spread, make_sigma, trial_seed_block

N_SEED_NODES = 100  # Table 1: 100 seed nodes per cell
MC_TRIALS = 100  # trials per cell per operation (Table 1 uses 1,000)
SAMPLED_TRIALS = 4  # trials per cell recomputed by the pure-Python engine
CELF_D, CELF_K, CELF_MC = 7, 10, 50  # repro.bench.table2: degree, seeds, trials per sigma
CELF_GRAPHS, CELF_GRAPH_N = 3, 300  # celf_table2: three graphs per pass


@dataclass(frozen=True)
class Seeds:
    """Everything random in a workload, derived from the one workload seed.

    Workload seed 0 gives the repository defaults: graph 42, weights 11,
    seed nodes 7, trial-seed base 0.
    """

    graph: int
    weight: int
    nodes: int
    trial_base: int

    @classmethod
    def from_workload_seed(cls, seed: int) -> "Seeds":
        s = seed % (1 << 31)
        return cls(graph=42 + s, weight=11 + s, nodes=7 + s, trial_base=s)

    def instance(self, j: int) -> "Seeds":
        """Seeds of the j-th independent input; instance 0 is ``self``."""
        off = j << 32  # above every workload seed, so instances never collide
        return Seeds(self.graph + off, self.weight + off, self.nodes + off, self.trial_base + off)


def sigma_for_celf(tracer: Tracer, sigma: Callable, first_pass_calls: int) -> Callable:
    """``sigma`` as passed into ``celf``; traced, each call is a ``spread.sigma`` span.

    CELF's first pass is its first ``first_pass_calls`` calls (one per
    candidate, or none when the gains come precomputed), which tells the
    two phases apart without touching ``celf`` itself.
    """
    if not tracer.enabled:
        return sigma
    calls = [0]

    def traced(seed_set: Sequence[int]) -> float:
        phase = "first" if calls[0] < first_pass_calls else "lazy"
        calls[0] += 1
        with tracer.span("spread.sigma", phase=phase):
            return sigma(seed_set)

    return traced


def active_out_degree(engine: CSREngine, seeds, trial_seeds) -> int:
    """Sum over trials of out-degree over activated nodes (edges examined), via run()."""
    outdeg = engine.csr.out_degree()
    return sum(
        int(outdeg[engine.run(seeds, int(t)).active_nodes].sum()) for t in trial_seeds
    )


class LocalWorkload:
    """Hooks shared by the local workloads; see ``perfbench.runner``."""

    coins_time_metric = "kernel.s"
    warmup_passes = 0  # a local first pass is no slower than the rest

    def start(self, tracer: Tracer) -> dict[str, float]:
        return {}

    def before_pass(self, tracer: Tracer) -> None:
        pass

    def begin_op(self, label: str) -> None:
        pass

    def op_counters(self, name: str, label: str, output) -> dict[str, float]:
        return {}

    def drift_probe(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class MCTable1(LocalWorkload):
    """``CSREngine.run_many`` over the nine Table 1 IC cells plus LT on WC weights."""

    name = "mc_table1"

    def __init__(self, seed: int, trace: bool) -> None:
        self.seeds = Seeds.from_workload_seed(seed)
        self.trace = trace
        self.block = trial_seed_block(self.seeds.trial_base, MC_TRIALS)

    def setup(self, tracer: Tracer) -> None:
        g = self.seeds.graph
        with tracer.span("graphs.generate"):
            edge_lists = [
                erdos_renyi(2000, 0.01, seed=g),
                watts_strogatz(2000, 10, 0.1, seed=g),
                facebook_like(seed=g),
            ]
        with tracer.span("graphs.csr_build"):
            graphs = [build_csr(e) for e in edge_lists]
        with tracer.span("graphs.weights"):
            weights = [
                {ewm: edge_weights(csr, ewm, seed=self.seeds.weight) for ewm in ("TV", "UR", "WC")}
                for csr in graphs
            ]
        with tracer.span("engine.construct"):
            cells = []
            for csr, w in zip(graphs, weights):
                for ewm, model in (("TV", "ic"), ("UR", "ic"), ("WC", "ic"), ("WC", "lt")):
                    cells.append((f"{csr.name}/{ewm}/{model}", CSREngine(csr, w[ewm], model=model)))
        self.graphs = graphs
        self.node_sets = {csr.name: pick_seed_nodes(csr.n, N_SEED_NODES, seed=self.seeds.nodes)
                          for csr in graphs}
        self.cells = {label: eng for label, eng in cells}
        self.edges = sum(csr.m for csr in graphs)

    def ops(self, tracer: Tracer) -> list[tuple[str, Callable]]:
        return [
            (label, lambda eng=eng: eng.run_many(self.node_sets[eng.csr.name], self.block))
            for label, eng in self.cells.items()
        ]

    def prepare_references(self) -> None:
        rng = np.random.default_rng(self.seeds.nodes)
        # trials 0 and 1 are run_many's per-trial pilot; the rest may take the batch path
        picks = [0, 1, *rng.choice(np.arange(2, MC_TRIALS), SAMPLED_TRIALS - 2, replace=False)]
        self.reference = {}
        for label, eng in self.cells.items():
            ref = PurePythonEngine(eng.csr, eng.weights, model=eng.model)
            seeds = self.node_sets[eng.csr.name]
            self.reference[label] = {
                int(i): ref.run(seeds, int(self.block[i])).num_active for i in picks
            }

    def check(self, name: str, output) -> None:
        check_sampled_counts(output, MC_TRIALS, self.reference[name])

    def computed_counters(self) -> dict[str, float]:
        if not self.trace:
            return {}
        coins = sum(
            active_out_degree(eng, self.node_sets[eng.csr.name], self.block)
            for eng in self.cells.values()
        )
        return {"kernel.coins": coins}

    def provenance(self) -> dict:
        return {
            "seeds": vars(self.seeds),
            "trials_per_cell": MC_TRIALS,
            "seed_nodes": N_SEED_NODES,
            "cells": list(self.cells),
            "graphs": {csr.name: {"n": csr.n, "m": csr.m} for csr in self.graphs},
        }


class CELFTable2(LocalWorkload):
    """Local CELF, k=10, under TV and WC on random 7-regular graphs (Table 2's family).

    One pass selects seeds on ``CELF_GRAPHS`` independent graphs: the
    number of lazy re-evaluations of a single WC graph swings by a quarter
    from one seed to the next, and summing over several graphs keeps the
    work of a pass nearly the same for every workload seed.
    """

    name = "celf_table2"

    def __init__(self, seed: int) -> None:
        base = Seeds.from_workload_seed(seed)
        self.instances = [base.instance(j) for j in range(CELF_GRAPHS)]
        self.blocks = [trial_seed_block(s.trial_base, CELF_MC) for s in self.instances]
        self.first_seeds: dict[str, list[int]] = {}

    def setup(self, tracer: Tracer) -> None:
        with tracer.span("graphs.generate"):
            edge_lists = [
                random_regular(CELF_GRAPH_N, CELF_D, seed=s.graph) for s in self.instances
            ]
        with tracer.span("graphs.csr_build"):
            self.graphs = [build_csr(e) for e in edge_lists]
        with tracer.span("graphs.weights"):
            weights = [{ewm: edge_weights(csr, ewm, seed=s.weight) for ewm in ("TV", "WC")}
                       for csr, s in zip(self.graphs, self.instances)]
        with tracer.span("engine.construct"):
            engines = [{ewm: CSREngine(csr, w[ewm]) for ewm in w}
                       for csr, w in zip(self.graphs, weights)]
        # op name -> (engine, sigma-hat over that graph's trial block, block)
        self.cases = {}
        for ewm in ("TV", "WC"):
            for j, per_graph in enumerate(engines):
                eng, block = per_graph[ewm], self.blocks[j]
                self.cases[f"celf/{ewm}/{j}"] = (eng, make_sigma(eng, block), block)
        self.edges = sum(csr.m for csr in self.graphs)

    def ops(self, tracer: Tracer) -> list[tuple[str, Callable]]:
        def select(name: str):
            eng, sigma, _ = self.cases[name]
            with tracer.span("celf", k=CELF_K):
                return celf(sigma_for_celf(tracer, sigma, eng.csr.n), range(eng.csr.n), CELF_K)

        return [(name, lambda name=name: select(name)) for name in self.cases]

    def prepare_references(self) -> None:
        self.sigma_ref: dict[tuple, float] = {}

    def check(self, name: str, output) -> None:
        eng, sigma, block = self.cases[name]
        key = (name, tuple(sorted(output.seeds)))
        if key not in self.sigma_ref:
            pure = PurePythonEngine(eng.csr, eng.weights)
            self.sigma_ref[key] = estimate_spread(pure, output.seeds, block)
        check_celf(
            output.seeds,
            output.sigma_values[-1],
            k=CELF_K,
            n=eng.csr.n,
            sigma_reference=self.sigma_ref[key],
            sigma_csr=sigma(output.seeds),
            expected_seeds=self.first_seeds.setdefault(name, list(output.seeds)),
        )

    def computed_counters(self) -> dict[str, float]:
        return {}

    def provenance(self) -> dict:
        return {
            "seeds": [vars(s) for s in self.instances],
            "mc_trials": CELF_MC,
            "k": CELF_K,
            "graphs": [{"n": g.n, "m": g.m} for g in self.graphs],
        }
