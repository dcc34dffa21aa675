"""Tests for the CSR engine's multi-trial kernel (run_many) and the batched RNG."""
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import (
    CSREngine,
    NDlibLikeEngine,
    PurePythonEngine,
    csr_engine,
    make_engine,
)
from repro.diffusion.rng import (
    STREAM_IC_COIN,
    trial_bases,
    uniforms,
    uniforms_mixed,
)
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi, random_regular
from repro.graphs.weights import EWM_NAMES, edge_weights, normalize_for_lt
from repro.im.spread import trial_seed_block

from tests.helpers import CountingLib, hub, line, small_graphs, star, tiny4

GRAPHS = {
    "er": build_csr(erdos_renyi(150, 0.04, seed=1)),
    "rr": build_csr(random_regular(100, 5, seed=3)),
}
CPUS = len(os.sched_getaffinity(0))
# Block lengths around the split points: none, one, and just under, just
# over and well over one trial per CPU.
SPLIT_LENGTHS = sorted({0, 1, CPUS - 1, CPUS + 1, 3 * CPUS + 1})


class TestUniformsMixed:
    def test_matches_per_trial_uniforms(self):
        trials = [3, 99, 12345]
        bases = trial_bases(STREAM_IC_COIN, trials)
        ids = np.arange(200, dtype=np.int64)
        for k, t in enumerate(trials):
            mixed = uniforms_mixed(np.full(200, bases[k], np.uint64), ids)
            assert np.array_equal(mixed, uniforms(STREAM_IC_COIN, t, ids))

    def test_interleaved_pairs(self):
        trials = [7, 8]
        bases = trial_bases(STREAM_IC_COIN, trials)
        pair_trial = np.array([0, 1, 0, 1])
        ids = np.array([10, 10, 11, 11])
        got = uniforms_mixed(bases[pair_trial], ids)
        assert got[0] == uniforms(STREAM_IC_COIN, 7, np.array([10]))[0]
        assert got[1] == uniforms(STREAM_IC_COIN, 8, np.array([10]))[0]
        assert got[2] == uniforms(STREAM_IC_COIN, 7, np.array([11]))[0]
        assert got[3] == uniforms(STREAM_IC_COIN, 8, np.array([11]))[0]


@pytest.mark.parametrize("gname", list(GRAPHS))
@pytest.mark.parametrize("ewm", EWM_NAMES)
def test_run_many_equals_sequential_ic(gname, ewm):
    """Multi-trial kernel counts == per-trial kernel counts, bit-for-bit."""
    csr = GRAPHS[gname]
    w = edge_weights(csr, ewm, seed=4)
    e = make_engine("csr", csr, w)
    block = trial_seed_block(5, 60)
    batched = e.run_many([0, 7, 23], block)
    seq = np.array([e.run([0, 7, 23], int(t)).num_active for t in block.tolist()])
    assert np.array_equal(batched, seq)


@pytest.mark.parametrize("ewm", EWM_NAMES)
def test_run_many_single_seed(ewm):
    """The CELF regime: single-seed spreads, small frontiers."""
    csr = GRAPHS["rr"]
    w = edge_weights(csr, ewm, seed=4)
    e = make_engine("csr", csr, w)
    block = trial_seed_block(6, 40)
    batched = e.run_many([13], block)
    seq = np.array([e.run([13], int(t)).num_active for t in block.tolist()])
    assert np.array_equal(batched, seq)


def test_run_many_flooding_regime():
    """Weight-1 graph floods every trial."""
    csr = line(40)
    e = make_engine("csr", csr, np.ones(csr.m))
    block = trial_seed_block(7, 10)
    assert (e.run_many([0], block) == 40).all()


def test_run_many_lt_fallback():
    csr = GRAPHS["er"]
    w = normalize_for_lt(csr, edge_weights(csr, "UR", seed=1))
    e = make_engine("csr", csr, w, model="lt")
    block = trial_seed_block(9, 25)
    batched = e.run_many([0, 3], block)
    seq = np.array([e.run([0, 3], int(t)).num_active for t in block.tolist()])
    assert np.array_equal(batched, seq)


def test_run_many_short_blocks():
    csr = GRAPHS["er"]
    w = edge_weights(csr, "WC")
    e = make_engine("csr", csr, w)
    for k in (1, 2, 3):
        block = trial_seed_block(10, k)
        seq = np.array([e.run([1], int(t)).num_active for t in block.tolist()])
        assert np.array_equal(e.run_many([1], block), seq)


def test_run_many_validates_seeds():
    csr = GRAPHS["er"]
    w = edge_weights(csr, "WC")
    e = make_engine("csr", csr, w)
    with pytest.raises(ValueError):
        e.run_many([csr.n], trial_seed_block(0, 3))


def test_run_many_star_exact_distribution():
    """Star hub with p=0.5: counts are 1 + Binomial(leaves, 0.5)."""
    csr = star(20)
    e = make_engine("csr", csr, np.full(csr.m, 0.5))
    counts = e.run_many([0], trial_seed_block(11, 2000))
    assert counts.min() >= 1 and counts.max() <= 21
    assert abs(counts.mean() - 11.0) < 0.35


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_engines_agree_on_mixed_sign_trial_seeds(model):
    """Negative and >= 2**63 seeds in one list must not pass through float64,
    whether they are Python ints or NumPy scalars."""
    csr = build_csr(random_regular(60, 4, seed=1))
    w = edge_weights(csr, "UR", seed=3)
    if model == "lt":
        w = normalize_for_lt(csr, w)
    block = [-1, 2**63 + 5, 7, -(2**63), 2**64 - 1]
    scalars = [np.int64(-1), np.uint64(2**63 + 5), np.int64(7), np.int64(-(2**63)),
               np.uint64(2**64 - 1)]
    want = [PurePythonEngine(csr, w, model=model).run([0], t).num_active for t in block]
    for engine in (CSREngine, PurePythonEngine, NDlibLikeEngine):
        e = engine(csr, w, model=model)
        assert e.run_many([0], block).tolist() == want, engine
        assert e.run_many([0], scalars).tolist() == want, engine
        assert [e.run([0], t).num_active for t in scalars] == want, engine


@settings(max_examples=80, deadline=None)
@given(graph=small_graphs(), data=st.data(), length=st.sampled_from(SPLIT_LENGTHS))
def test_split_block_equals_per_trial_runs(graph, data, length):
    """However the block is cut, each count is that trial's own run."""
    csr, w, model = graph
    seeds = data.draw(st.lists(st.integers(0, csr.n - 1), min_size=1), label="seeds")
    trials = data.draw(
        st.lists(st.integers(-(2**63), 2**64 - 1), min_size=length, max_size=length),
        label="trials",
    )
    e = CSREngine(csr, w, model=model)
    got = e.run_many(seeds, trials)
    assert got.dtype == np.int64 and got.shape == (length,)
    assert got.tolist() == [e.run(seeds, t).num_active for t in trials]
    assert got.tolist() == PurePythonEngine(csr, w, model=model).run_many(seeds, trials).tolist()


def _engine(model):
    csr = GRAPHS["er"]
    w = edge_weights(csr, "WC", seed=2)
    return CSREngine(csr, normalize_for_lt(csr, w) if model == "lt" else w, model=model)


def _assert_claimed(monkeypatch, engine, seeds, block, threads=None):
    """One kernel call, on the caller's thread, over the whole block with
    min(T, cpus) threads (or ``threads``); every count is that trial's own run."""
    want = [engine.run(seeds, t).num_active for t in block]
    lib = CountingLib(csr_engine._LIB)
    monkeypatch.setattr(csr_engine, "_LIB", lib)
    counts, calls = engine.run_many(seeds, block), lib.calls
    assert [(call.name, call.thread) for call in calls] == [("run_many", threading.get_ident())]
    (call,) = calls
    assert call.args[6] == len(block)  # the whole block
    assert call.args[9] == (min(len(block), CPUS) if threads is None else threads)
    assert call.args[11] == counts.ctypes.data
    assert counts.tolist() == want


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
@pytest.mark.parametrize("model", ["ic", "lt"])
@pytest.mark.parametrize("length", sorted({1, CPUS - 1, CPUS, CPUS + 1, 3 * CPUS + 1} - {0}))
def test_block_runs_as_one_call_per_cpu(monkeypatch, model, length):
    """One kernel call runs the block on min(T, cpus) threads, the caller's among them."""
    _assert_claimed(monkeypatch, _engine(model), [0, 3], trial_seed_block(12, length).tolist())


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no os.sched_getaffinity")
@pytest.mark.parametrize("model", ["ic", "lt"])
def test_one_cpu_affinity_asks_for_one_thread(monkeypatch, model):
    """The affinity mask, read on every call, sets the thread count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    block = trial_seed_block(12, 3 * CPUS + 1).tolist()
    _assert_claimed(monkeypatch, _engine(model), [0, 3], block, threads=1)


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
@pytest.mark.parametrize("model", ["ic", "lt"])
def test_skewed_block_runs_as_one_call_per_cpu(monkeypatch, model):
    """One trial floods a 3000-node line and the rest stop at the seed."""
    n = 3000
    csr = line(n)
    w = np.ones(csr.m)
    w[0] = 0.5  # the coin or threshold of node 1 decides the trial
    engine = CSREngine(csr, w, model=model)
    trials = trial_seed_block(14, 200).tolist()
    sizes = {t: engine.run([0], t).num_active for t in trials}
    flood = next(t for t in trials if sizes[t] == n)
    block = [flood] + [t for t in trials if sizes[t] == 1][: 3 * CPUS]
    _assert_claimed(monkeypatch, engine, [0], block)


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
def test_block_no_thread_could_run_raises_memory_error(monkeypatch):
    """The kernel returns -1 when no thread could allocate its scratch."""
    class NoScratch:
        def run_many(self, *args):
            return -1

    engine = _engine("ic")
    monkeypatch.setattr(csr_engine, "_LIB", NoScratch())
    with pytest.raises(MemoryError):
        engine.run_many([0, 3], trial_seed_block(12, 5))


def test_concurrent_callers_get_serial_results():
    """Four Python threads sharing two engines, each call starting its own threads."""
    engines = {m: _engine(m) for m in ("ic", "lt")}
    block = trial_seed_block(13, 3 * CPUS + 1)
    want = {m: np.array([e.run([0, 3], t).num_active for t in block.tolist()])
            for m, e in engines.items()}
    got = {}

    def caller(i):
        got[i] = [(m, engines[m].run_many([0, 3], block)) for m in ("ic", "lt") * 10]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == [0, 1, 2, 3]
    for results in got.values():
        for model, counts in results:
            assert np.array_equal(counts, want[model]), model


HUB = hub()
HUB_BLOCK = trial_seed_block(31, 12)
HUB_SEEDS = {"hub": [0, 3, 11], "no-hub": [3, 11, 40]}
HUB_WEIGHTS = ("U(0,1)", "U(0,.01)", "ones", "WC")


def _hub_weights(name: str, model: str) -> np.ndarray:
    """IC or LT weights on ``HUB``: U[0, 1], U[0, 0.01], all ones or WC."""
    if name == "WC":
        w = edge_weights(HUB, "WC")
    elif name == "ones":
        w = np.ones(HUB.m)
    else:
        w = np.random.default_rng(8).uniform(0.0, 1.0 if name == "U(0,1)" else 0.01, HUB.m)
    return normalize_for_lt(HUB, w) if model == "lt" else w


@pytest.mark.parametrize("model", ["ic", "lt"])
@pytest.mark.parametrize("wname", HUB_WEIGHTS)
@pytest.mark.parametrize("seeds", list(HUB_SEEDS))
def test_chunked_scans_match_pure_python_on_a_hub(model, wname, seeds):
    """Scans over full and partial 256-edge chunks, with parallel edges across
    the boundaries, give the interpreted engine's activation times."""
    w, seeds = _hub_weights(wname, model), HUB_SEEDS[seeds]
    e, ref = CSREngine(HUB, w, model=model), PurePythonEngine(HUB, w, model=model)
    want = [ref.run(seeds, t).activation_time for t in HUB_BLOCK.tolist()]
    for t, times in zip(HUB_BLOCK.tolist(), want):
        assert np.array_equal(e.run(seeds, t).activation_time, times), t
    assert e.run_many(seeds, HUB_BLOCK).tolist() == [int((a >= 0).sum()) for a in want]


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
@pytest.mark.parametrize("wname", HUB_WEIGHTS)
def test_gains_on_a_hub_equal_spread(monkeypatch, wname):
    """The base holds the hub's targets 7 and 9, so a search from the hub skips
    parallel edges on both sides of a chunk boundary. One-candidate calls
    search without snapshots; the call with every node builds them."""
    lib = CountingLib(csr_engine._LIB)
    monkeypatch.setattr(csr_engine, "_LIB", lib)
    e = CSREngine(HUB, _hub_weights(wname, "ic"))
    base, nodes = [7, 9, 20], list(range(HUB.n))
    want = [e.spread([*base, c], HUB_BLOCK) for c in nodes]
    into_hub = sorted(set(HUB.edge_sources()[HUB.indices == 0].tolist()))[:8]
    lib.calls.clear()
    for c in [0, *into_hub]:
        assert e.gains(base, [c], HUB_BLOCK).tolist() == [want[c]], c
    assert e.gains(base, nodes, HUB_BLOCK).tolist() == want
    live = [call.args[-5] is not None for call in lib.calls if call.name == "ic_gains"]
    assert live == [False] * (1 + len(into_hub)) + [True]


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_block_longer_than_2_to_the_20(model):
    """A raw block of 2**20 + 5 trial seeds: the claim counter and the counts
    array index past 2**20 like any other trial."""
    csr = tiny4()
    w = np.full(csr.m, 0.3 if model == "lt" else 0.5)
    e = CSREngine(csr, w, model=model)
    block = np.arange(2**20 + 5)
    counts = e.run_many([0], block)
    assert counts.shape == block.shape
    for i in (0, 2**20 - 1, 2**20, block.size - 1):
        assert counts[i] == e.run([0], int(block[i])).num_active, i
