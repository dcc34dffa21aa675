"""Spark fan-out of Monte-Carlo trials and CELF candidates (S9 in DESIGN.md).

:class:`SparkTrialEngine`, :func:`run_trials_df` and
:func:`marginal_gains_spark` follow the paper's stated future-work
direction ("improve the performance of CyNetDiff by adding parallelism").
Monte-Carlo trials, and CELF's candidates, are independent, so the
driver splits their int64 keys into slices that differ in size by at
most one key, and each fan-out is one Arrow-backed ``mapInPandas`` stage
over ``spark.range`` whose partitions run the compiled CSR kernel locally.
:class:`SparkTrialEngine` is the one owner of a broadcast graph: its
constructor validates the weights and model on the driver and ships the
CSR arrays with one ``SparkContext.broadcast``, reused by all its calls;
the two module functions build one engine per lazy DataFrame. The
broadcast is deliberate: the graph is the shared read-only operand; the
session's disabled *auto*-broadcast join threshold concerns relational
joins, not this. Because coins are counter-based
(``repro.diffusion.rng``), the result of trial ``t`` is bit-identical to
a local engine run with ``trial_seed=t`` regardless of partitioning.
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import DoubleType, IntegerType, LongType, StructField, StructType

from repro.diffusion.common import (
    lazy_prefix,
    trial_keys,
    validate_csr,
    validate_model,
    validate_nodes,
    validate_seeds,
    validate_weights,
)
from repro.diffusion.csr_engine import CSREngine
from repro.graphs.csr import CSRGraph

SUMMARY_SCHEMA = StructType(
    [
        StructField("trial", LongType(), False),
        StructField("num_active", LongType(), False),
        StructField("num_iterations", LongType(), False),
    ]
)

ACTIVATION_SCHEMA = StructType(
    [
        StructField("trial", LongType(), False),
        StructField("node", LongType(), False),
        StructField("time", IntegerType(), False),
    ]
)

GAINS_SCHEMA = StructType(
    [
        StructField("candidate", LongType(), False),
        StructField("sigma_hat", DoubleType(), False),
    ]
)


def _trials_body(seeds: np.ndarray, output: str):
    """Per-batch body and schema of a trial fan-out (see :func:`run_trials_df`)."""
    if output == "summary":
        def summary(engine: CSREngine, trials: list[int]) -> Iterator[pd.DataFrame]:
            # num_iterations needs per-trial results, so this runs the
            # per-trial kernel; counts cross-check run_many in tests.
            rows = [engine.run(seeds, t) for t in trials]
            yield pd.DataFrame(
                {
                    "trial": trials,
                    "num_active": [r.num_active for r in rows],
                    "num_iterations": [r.num_iterations for r in rows],
                }
            )

        return summary, SUMMARY_SCHEMA
    if output == "activations":
        def activations(engine: CSREngine, trials: list[int]) -> Iterator[pd.DataFrame]:
            for trial in trials:
                res = engine.run(seeds, trial)
                nodes = res.active_nodes
                yield pd.DataFrame(
                    {
                        "trial": np.full(nodes.size, trial, np.int64),
                        "node": nodes.astype(np.int64),
                        "time": res.activation_time[nodes].astype(np.int32),
                    }
                )

        return activations, ACTIVATION_SCHEMA
    raise ValueError(f"output must be summary|activations, got {output!r}")


def _gains_fanout(n: int, base, candidates, trial_seeds):
    """Checked candidate ids and the per-batch body of a candidate fan-out.

    Non-integer or out-of-range ids raise ``ValueError`` here, before any
    job; the body makes one ``CSREngine.gains`` call per slice.
    """
    cands = validate_nodes(n, candidates, "candidate")
    base = validate_nodes(n, base, "seed")
    trials = trial_keys(trial_seeds)

    def gains(engine: CSREngine, batch: list[int]) -> Iterator[pd.DataFrame]:
        yield pd.DataFrame({"candidate": batch, "sigma_hat": engine.gains(base, batch, trials)})

    return cands, gains


class SparkTrialEngine:
    """Engine adapter running trial and candidate batches through Spark.

    The constructor validates the CSR arrays, weights and model on the
    driver, so bad input raises ``ValueError`` before any job or
    broadcast, then ships the graph with one ``SparkContext.broadcast``;
    every call reuses it, so a Spark-backed σ̂ inside CELF adds jobs but
    no broadcasts. ``run_many(seeds,
    trial_seeds)`` returns the per-trial summary as pandas and ``spread``
    its mean; ``gains`` fans the candidates out in one job, each partition
    making one ``CSREngine.gains`` call on its slice. :meth:`close` (or
    leaving a ``with`` block) destroys the broadcast.
    """

    def __init__(
        self, spark: SparkSession, csr: CSRGraph, weights: np.ndarray, *, model: str = "ic"
    ) -> None:
        self.spark = spark
        self.csr = csr
        graph = (csr.n, *validate_csr(csr), validate_weights(csr.m, weights), validate_model(model))
        self._graph = spark.sparkContext.broadcast(graph)

    def __enter__(self) -> "SparkTrialEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Destroy the graph's broadcast, freeing its copies on every Spark node.

        Calling it again does nothing; a closed engine runs no more jobs.
        """
        if self._graph is not None:
            self._graph.destroy()
            self._graph = None

    def _map(
        self,
        keys: np.ndarray,
        body: Callable[[CSREngine, list[int]], Iterator[pd.DataFrame]],
        schema: StructType,
    ) -> DataFrame:
        """Lazy DataFrame of ``body``'s frames over int64 ``keys``, validated by the caller.

        The driver splits the keys into ``p = max(1, min(len(keys), defaultParallelism))``
        slices that differ in size by at most one key. The job is one ``mapInPandas``
        stage over ``spark.range(p, numPartitions=p)``: partition ``i`` passes slice ``i``,
        from the closure, and one :class:`CSREngine` built from the broadcast to ``body``,
        which yields pandas frames of ``schema``. No keys: no ``body`` call, no rows.
        """
        graph = self._graph
        if graph is None:
            raise ValueError("SparkTrialEngine is closed")
        parts = max(1, min(len(keys), self.spark.sparkContext.defaultParallelism))
        slices = np.array_split(keys, parts)

        def run_partition(ids: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            n, indptr, indices, weights, model = graph.value
            engine = CSREngine(CSRGraph(n=n, indptr=indptr, indices=indices), weights, model=model)
            for batch in ids:
                for i in batch["id"]:
                    if slices[i].size:
                        yield from body(engine, slices[i].tolist())

        return self.spark.range(parts, numPartitions=parts).mapInPandas(run_partition, schema)

    def run_many(self, seeds, trial_seeds) -> pd.DataFrame:
        """Collect (trial, num_active, num_iterations), ordered by trial."""
        body, schema = _trials_body(validate_seeds(self.csr.n, seeds), "summary")
        df = self._map(trial_keys(trial_seeds).view(np.int64), body, schema)
        return df.toPandas().sort_values("trial").reset_index(drop=True)

    def spread(self, seeds, trial_seeds) -> float:
        """Mean number of activated nodes across trials."""
        return float(self.run_many(seeds, trial_seeds)["num_active"].mean())

    def gains(self, base, candidates, trial_seeds, *, stop=None) -> np.ndarray:
        """``spread(base + {c}, trial_seeds)`` for each candidate ``c``, in order.

        One fan-out over the distinct candidates, so one job whatever their
        number; the values are ``CSREngine.gains``'s. With ``stop`` the job
        still evaluates every candidate, and only the prefix that
        ``lazy_prefix`` keeps is returned.
        """
        cands, body = _gains_fanout(self.csr.n, base, candidates, trial_seeds)
        distinct, where = np.unique(cands, return_inverse=True)
        pdf = self._map(distinct, body, GAINS_SCHEMA).toPandas()
        values = pdf.sort_values("candidate")["sigma_hat"].to_numpy()[where]
        return np.array(lazy_prefix(values, cands.tolist(), stop), np.float64)


def run_trials_df(
    spark: SparkSession,
    csr: CSRGraph,
    weights: np.ndarray,
    seeds,
    trial_seeds,
    *,
    model: str = "ic",
    output: str = "summary",
) -> DataFrame:
    """Fan Monte-Carlo trials over Spark partitions.

    Args:
        output: ``"summary"`` -> (trial, num_active, num_iterations);
            ``"activations"`` -> one row per activated node
            (trial, node, time), the input to heatmap/timeseries analytics.

    Bad weights, model, seeds, trial seeds or output raise ``ValueError``
    here, before any job or broadcast. The ``trial`` column holds each
    trial seed as a signed 64-bit integer (the caller's value when it
    fits). Returns a lazily-evaluated DataFrame over the broadcast of one
    :class:`SparkTrialEngine`, which is never closed; each partition
    instantiates one :class:`CSREngine` from it and loops its trials.
    """
    body, schema = _trials_body(validate_seeds(csr.n, seeds), output)
    trials = trial_keys(trial_seeds).view(np.int64)
    return SparkTrialEngine(spark, csr, weights, model=model)._map(trials, body, schema)


def marginal_gains_spark(
    spark: SparkSession,
    csr: CSRGraph,
    weights: np.ndarray,
    candidates: Sequence[int],
    trial_seeds,
    *,
    base_seeds: Sequence[int] = (),
    model: str = "ic",
) -> DataFrame:
    """sigma-hat(base_seeds + {c}) for every candidate, in parallel.

    This is CELF's dominant cost — the first pass evaluates every node —
    and it is embarrassingly parallel over candidates: the body of
    :meth:`SparkTrialEngine.gains` (one ``CSREngine.gains`` call per
    partition's slice over the shared CRN trial block), returned as a lazy
    (candidate, sigma_hat) DataFrame over the broadcast of one engine,
    which is never closed. Non-integer or out-of-range ids and bad
    weights raise ``ValueError`` here, before any job or broadcast.
    """
    cands, body = _gains_fanout(csr.n, base_seeds, candidates, trial_seeds)
    return SparkTrialEngine(spark, csr, weights, model=model)._map(cands, body, GAINS_SCHEMA)
