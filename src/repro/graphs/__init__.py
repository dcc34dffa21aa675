"""Graph substrate: generators, CSR storage, edge-weight models.

This subpackage is S1-S3 in DESIGN.md. Everything is deterministic in an
explicit ``seed`` so tests, benchmarks, and the DuckDB oracle all see
byte-identical graphs.
"""
from repro.graphs.csr import CSRGraph, build_csr
from repro.graphs.generators import (
    DirectedEdgeList,
    barabasi_albert,
    erdos_renyi,
    facebook_like,
    random_regular,
    watts_strogatz,
)
from repro.graphs.weights import (
    EWM_NAMES,
    edge_weights,
    normalize_for_lt,
    trivalency,
    uniform_random,
    weighted_cascade,
)

__all__ = [
    "CSRGraph",
    "build_csr",
    "DirectedEdgeList",
    "erdos_renyi",
    "watts_strogatz",
    "random_regular",
    "barabasi_albert",
    "facebook_like",
    "EWM_NAMES",
    "edge_weights",
    "trivalency",
    "uniform_random",
    "weighted_cascade",
    "normalize_for_lt",
]
