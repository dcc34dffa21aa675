"""Shared fixtures-in-code for the test suite: small standard graphs, a
hypothesis strategy for arbitrary small ones, and a call-counting stand-in
for the compiled kernel."""
from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from repro.graphs.csr import CSRGraph, build_csr
from repro.graphs.generators import DirectedEdgeList


def tiny4() -> CSRGraph:
    """4-node graph with 8 directed edges (cycle plus chords) — small
    enough for the 2^m exact-IC oracle."""
    edges = np.array(
        [[0, 1], [1, 2], [2, 3], [0, 2], [3, 0], [1, 3], [2, 0], [3, 1]], np.int64
    )
    return build_csr(DirectedEdgeList(n=4, edges=edges, name="tiny4"))


def line(n: int) -> CSRGraph:
    """Directed path 0 -> 1 -> ... -> n-1."""
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1).astype(np.int64)
    return build_csr(DirectedEdgeList(n=n, edges=edges, name=f"line{n}"))


def star(n_leaves: int) -> CSRGraph:
    """Hub node 0 with directed edges to n_leaves leaves."""
    edges = np.stack(
        [np.zeros(n_leaves, np.int64), np.arange(1, n_leaves + 1)], axis=1
    )
    return build_csr(DirectedEdgeList(n=n_leaves + 1, edges=edges, name="star"))


HUB_DEGREE = 700  # past two full 256-edge chunks of the kernel's scans


def hub(n: int = 300, n_random: int = 1200, seed: int = 0) -> CSRGraph:
    """Node 0 with ``HUB_DEGREE`` out-edges first, then ``n_random`` random edges.

    The kernel scans each node's out-edges in chunks of 256. The hub's
    edges 250-261 all go to node 7 and 508-515 to node 9, so parallel edges
    to one target sit on both sides of each chunk boundary; its other
    targets are drawn from 1..n-1 and repeat too. The random edges among
    all n nodes add in-edges to the hub, self-loops and more parallel edges.
    """
    rng = np.random.default_rng(seed)
    targets = rng.integers(1, n, HUB_DEGREE)
    targets[250:262] = 7
    targets[508:516] = 9
    edges = np.concatenate([
        np.stack([np.zeros(HUB_DEGREE, np.int64), targets], axis=1),
        rng.integers(0, n, (n_random, 2)),
    ])
    return build_csr(DirectedEdgeList(n=n, edges=edges, name="hub"))


def from_edges(n: int, pairs) -> CSRGraph:
    """CSR from an explicit directed edge list."""
    arr = np.asarray(pairs, np.int64).reshape(-1, 2)
    return build_csr(DirectedEdgeList(n=n, edges=arr, name="custom"))


# Weights 0 and 1 make IC edges never and always live; the rest draw a coin.
# The subnormal 5e-324 and 1 - 2**-53 sit next to the coin's bounds: a
# uniform (a multiple of 2**-53 in [0, 1)) is below the first only when
# it is 0, and below the second unless it is 1 - 2**-53 itself.
WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, float(np.nextafter(1.0, 0.0))]), st.floats(0.0, 1.0)
)


@st.composite
def small_graphs(draw):
    """(csr, weights, model) with up to 12 nodes.

    Edges are arbitrary node pairs, so self-loops, parallel edges, sinks
    and isolated nodes all occur.
    """
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=40))
    w = draw(st.lists(WEIGHT, min_size=len(pairs), max_size=len(pairs)))
    model = draw(st.sampled_from(["ic", "lt"]))
    return from_edges(n, pairs), np.array(w, np.float64), model


class Call(NamedTuple):
    name: str
    args: tuple
    thread: int  # threading.get_ident() of the caller
    result: object  # what the kernel function returned


class CountingLib:
    """Stand-in for ``csr_engine._LIB`` that records every kernel call that returns.

    Install it with ``monkeypatch.setattr(csr_engine, "_LIB", CountingLib(...))``;
    list appends are atomic, so calls from several threads are all kept.
    """

    def __init__(self, lib) -> None:
        self.lib = lib
        self.calls: list[Call] = []

    def __getattr__(self, name: str):
        fn = getattr(self.lib, name)

        def counted(*args):
            result = fn(*args)
            self.calls.append(Call(name, args, threading.get_ident(), result))
            return result

        return counted
