"""Tests for the CSR engine's multi-trial kernel (run_many) and the batched RNG."""
import numpy as np
import pytest

from repro.diffusion import make_engine
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

from tests.helpers import line, star

GRAPHS = {
    "er": build_csr(erdos_renyi(150, 0.04, seed=1)),
    "rr": build_csr(random_regular(100, 5, seed=3)),
}


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
