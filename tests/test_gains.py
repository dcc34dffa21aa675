"""Batched candidate gains (``gains`` in the engine contract) and CELF on top (S12-S13)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import CSREngine, csr_engine
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights
from repro.im import celf, make_sigma, trial_seed_block

from tests.helpers import CountingLib, small_graphs, star

@settings(max_examples=150, deadline=None)
@given(
    graph=small_graphs(),
    data=st.data(),
    trials=st.lists(st.integers(-(2**63), 2**64 - 1), min_size=1, max_size=6),
)
def test_gains_equal_spread_of_each_union(graph, data, trials):
    """Bit for bit, with empty and non-empty bases and candidates inside the base."""
    csr, w, model = graph
    node = st.integers(0, csr.n - 1)
    base = data.draw(st.lists(node, max_size=csr.n), label="base")
    cands = data.draw(st.lists(node, max_size=csr.n), label="candidates")
    e = CSREngine(csr, w, model=model)
    shifted = [t + 1 for t in trials]
    # Later calls change the trial block, then the base: nothing stale is reused.
    for b, t in ((base, trials), (base, shifted), ([0], shifted)):
        got = e.gains(b, cands, t)
        assert got.dtype == np.float64 and got.shape == (len(cands),)
        assert got.tolist() == [e.spread([*b, c], t) for c in cands]


@settings(max_examples=100, deadline=None)
@given(graph=small_graphs(), data=st.data(), base_seed=st.integers(0, 1000))
def test_celf_same_through_gains_and_plain_sigma(graph, data, base_seed):
    csr, w, model = graph
    cands = data.draw(st.sets(st.integers(0, csr.n - 1), min_size=1), label="candidates")
    k = data.draw(st.integers(1, len(cands)), label="k")
    sigma = make_sigma(CSREngine(csr, w, model=model), trial_seed_block(base_seed, 20))
    compiled = celf(sigma, sorted(cands), k)
    plain = celf(lambda s: sigma(s), sorted(cands), k)
    assert compiled.seeds == plain.seeds
    assert compiled.sigma_values == plain.sigma_values
    assert compiled.n_evals == plain.n_evals


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
def test_celf_first_pass_is_one_compiled_call(monkeypatch):
    """n candidates cost one ic_gains call; each lazy re-evaluation one more."""
    lib = CountingLib(csr_engine._LIB)
    monkeypatch.setattr(csr_engine, "_LIB", lib)
    csr = build_csr(erdos_renyi(120, 0.05, seed=5))
    sigma = make_sigma(CSREngine(csr, edge_weights(csr, "WC", seed=6)), trial_seed_block(2, 30))

    def sizes():  # args[4]: number of seeds or candidates
        return [(call.name, call.args[4]) for call in lib.calls]

    assert celf(sigma, range(csr.n), 1).n_evals == csr.n
    assert sizes() == [("ic_gains", csr.n)]

    lib.calls.clear()
    res = celf(sigma, range(csr.n), 4)
    calls = sizes()
    gains = [size for name, size in calls if name == "ic_gains"]
    assert gains == [csr.n] + [1] * (res.n_evals - csr.n)
    # R(S) is marked once per selection round after the first, not per evaluation,
    # by run_many with a reach matrix (args[11]).
    marks = [(call.args[4], bool(call.args[11])) for call in lib.calls if call.name == "run_many"]
    assert marks == [(1, True), (2, True), (3, True)]
    assert {name for name, _ in calls} == {"ic_gains", "run_many"}


@pytest.mark.parametrize("model", ["ic", "lt"])
@pytest.mark.parametrize(
    "base, cands, match",
    [
        ([4], [0], "seed out of range"),
        ([-1], [0], "seed out of range"),
        ([0.5], [0], "seeds must be integers"),
        ([True], [0], "seeds must be integers"),
        ([0], [4], "candidate out of range"),
        ([], [-1], "candidate out of range"),
        ([0], [1.0], "candidates must be integers"),
        ([0], [True], "candidates must be integers"),
    ],
)
def test_gains_rejects_bad_nodes(model, base, cands, match):
    """The compiled call indexes memory with these ids unchecked."""
    e = CSREngine(star(3), np.full(3, 0.5), model=model)
    with pytest.raises(ValueError, match=match):
        e.gains(base, cands, [1, 2])


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_gains_edge_cases(model):
    e = CSREngine(star(3), np.full(3, 0.5), model=model)
    assert e.gains([0], [], [1, 2]).shape == (0,)
    with pytest.warns(RuntimeWarning):
        assert np.isnan(e.gains([0], [1, 2], [])).all()
