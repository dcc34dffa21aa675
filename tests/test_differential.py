"""Differential fuzzing: every local engine runs the same cascade on
arbitrary small graphs, and the exact live-edge oracles give every node
it activates a positive probability."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import CSREngine, NDlibLikeEngine, PurePythonEngine
from repro.diffusion.exact import exact_ic, exact_lt

from tests.helpers import small_graphs

# exact_ic enumerates 2**m outcomes and exact_lt prod(in-degree + 1); the
# same cap keeps both to a few thousand.
EXACT_OUTCOMES = 1 << 12


def _exact_p_active(csr, w, model, seeds):
    """Exact activation probabilities, or None where the oracle does not apply."""
    if model == "ic":
        return exact_ic(csr, w, seeds)[1] if 1 << csr.m <= EXACT_OUTCOMES else None
    in_degree = np.bincount(csr.indices, minlength=csr.n)
    in_sums = np.bincount(csr.indices, weights=w, minlength=csr.n)
    if (in_sums > 1.0).any() or np.prod(in_degree + 1.0) > EXACT_OUTCOMES:
        return None
    return exact_lt(csr, w, seeds)[1]


@settings(max_examples=300, deadline=None)
@given(graph=small_graphs(), data=st.data())
def test_engines_bit_identical_on_small_graphs(graph, data):
    """Same times and iterations from every engine, over the whole 64-bit
    trial range; NDlib-like rejects parallel edges instead."""
    csr, w, model = graph
    seeds = sorted(data.draw(st.sets(st.integers(0, csr.n - 1), min_size=1), label="seeds"))
    trials = data.draw(
        st.lists(st.integers(-(2**63), 2**64 - 1), min_size=1, max_size=8), label="trials"
    )
    engines = [CSREngine(csr, w, model=model), PurePythonEngine(csr, w, model=model)]
    if len(set(map(tuple, csr.edge_array().tolist()))) < csr.m:
        with pytest.raises(ValueError, match="parallel edges"):
            NDlibLikeEngine(csr, w, model=model)
    else:
        engines.append(NDlibLikeEngine(csr, w, model=model))
    p_active = _exact_p_active(csr, w, model, seeds)
    for trial in trials:
        want, *others = [e.run(seeds, trial) for e in engines]
        for engine, got in zip(engines[1:], others):
            assert np.array_equal(got.activation_time, want.activation_time), engine
            assert got.num_iterations == want.num_iterations, engine
        if p_active is not None:
            assert (p_active[want.active_nodes] > 0).all()
