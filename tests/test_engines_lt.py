"""LT engine tests: cross-engine exact equality + threshold semantics."""
import numpy as np
import pytest

from repro.diffusion import ENGINE_KINDS, make_engine
from repro.diffusion.rng import STREAM_LT_THRESHOLD, uniform_one
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi, watts_strogatz
from repro.graphs.weights import EWM_NAMES, edge_weights, normalize_for_lt

from tests.helpers import from_edges, line, star

GRAPHS = {
    "er": build_csr(erdos_renyi(150, 0.04, seed=1)),
    "ws": build_csr(watts_strogatz(120, 6, 0.2, seed=2)),
    "er300": build_csr(erdos_renyi(300, 0.08, seed=3)),
}
# "er300" has n > 256, so the kernel's radix sort of a new frontier takes
# two 8-bit digits; with every fifth node seeded, each result below has a
# round of at least 32 new nodes (radix sort) and one of 1-31 (insertion).
SEEDS = {"er": [0, 7, 23], "ws": [0, 7, 23], "er300": list(range(0, 300, 5))}


@pytest.mark.parametrize("gname", list(GRAPHS))
@pytest.mark.parametrize("ewm", EWM_NAMES)
@pytest.mark.parametrize("trial", [0, 5, 999])
def test_all_engines_bit_identical_lt(gname, ewm, trial):
    csr = GRAPHS[gname]
    w = normalize_for_lt(csr, edge_weights(csr, ewm, seed=4))
    seeds = SEEDS[gname]
    results = {
        kind: make_engine(kind, csr, w, model="lt").run(seeds, trial)
        for kind in ENGINE_KINDS
    }
    ref = results["csr"]
    if gname == "er300":
        rounds = ref.frontier_sizes()[1:]
        assert (rounds >= 32).any() and ((rounds > 0) & (rounds < 32)).any(), rounds
    for kind in ENGINE_KINDS:
        assert np.array_equal(results[kind].activation_time, ref.activation_time), kind
        assert results[kind].num_iterations == ref.num_iterations, kind


@pytest.mark.parametrize("width", [6, 40], ids=["insertion", "radix"])
@pytest.mark.parametrize("trial", [0, 5, 999])
def test_ascending_frontier_decides_a_rounding_tie(width, trial):
    """Node 258's incoming sum reaches its threshold only if it adds in
    ascending frontier order.

    Seed 0 activates ``width`` nodes in round 1, listed with 257 first;
    nodes 10 and 20 each give 258 a weight s below half an ulp of A, and
    257 gives A, the double just below the threshold. In ascending order
    (s + s) + A rounds up to the threshold; (A + s) + s, the order of an
    unsorted frontier or one sorted on the low byte of the ids only, stays
    at A. Frontiers of 6 and 40 nodes take the insertion and the radix sort.
    """
    v, p, q, r = 258, 10, 20, 257
    theta = uniform_one(STREAM_LT_THRESHOLD, trial, v)
    big = float(np.nextafter(theta, 0.0))
    small = (theta - big) * (0.5 - 2.0**-11)
    assert (small + small) + big == theta and (big + small) + small == big
    frontier = [r, p, q, *[u for u in range(1, width + 2) if u not in (p, q)][: width - 3]]
    edges = [(0, u) for u in frontier] + [(p, v), (q, v), (r, v)]
    csr = from_edges(v + 1, edges)
    w = np.array([1.0] * len(frontier) + [small, small, big])
    for kind in ENGINE_KINDS:
        t = make_engine(kind, csr, w, model="lt").run([0], trial).activation_time
        assert t[v] == 2, kind
        assert (t[frontier] == 1).all() and (t >= 0).sum() == width + 2, kind


@pytest.mark.parametrize("kind", ENGINE_KINDS)
class TestLTSemantics:
    def test_zero_weights_spread_nothing(self, kind):
        csr = GRAPHS["er"]
        r = make_engine(kind, csr, np.zeros(csr.m), model="lt").run([1, 2], 7)
        # theta == 0 exactly has probability 2^-53; no spread expected
        assert r.num_active == 2

    def test_weight_one_floods_line(self, kind):
        csr = line(5)
        r = make_engine(kind, csr, np.ones(csr.m), model="lt").run([0], 3)
        # incoming weight 1 >= any theta in [0,1)
        assert r.num_active == 5
        assert r.activation_time.tolist() == [0, 1, 2, 3, 4]

    def test_single_edge_threshold_decides(self, kind):
        csr = from_edges(2, [[0, 1]])
        for trial in range(40):
            theta = uniform_one(STREAM_LT_THRESHOLD, trial, 1)
            r = make_engine(kind, csr, np.array([0.5]), model="lt").run([0], trial)
            assert (r.num_active == 2) == (0.5 >= theta)

    def test_star_fraction_activates(self, kind):
        csr = star(30)
        w = np.full(csr.m, 0.4)
        r = make_engine(kind, csr, w, model="lt").run([0], 11)
        # each leaf activates iff theta_leaf <= 0.4: some but rarely all
        assert 1 <= r.num_active <= 31

    def test_deterministic(self, kind):
        csr = GRAPHS["ws"]
        w = normalize_for_lt(csr, edge_weights(csr, "UR", seed=1))
        e = make_engine(kind, csr, w, model="lt")
        assert np.array_equal(
            e.run([0, 1], 42).activation_time, e.run([0, 1], 42).activation_time
        )


@pytest.mark.parametrize("trial", range(6))
def test_lt_seed_monotonicity_coupled(trial):
    """Fixed thresholds: more seeds can only add accumulated weight."""
    csr = GRAPHS["er"]
    w = edge_weights(csr, "WC")
    e = make_engine("csr", csr, w, model="lt")
    small = set(e.run([0, 1], trial).active_nodes.tolist())
    big = set(e.run([0, 1, 2, 3], trial).active_nodes.tolist())
    assert small <= big


@pytest.mark.parametrize("trial", range(5))
def test_lt_activation_rule_holds_posthoc(trial):
    """Every activated non-seed's incoming active weight (from strictly
    earlier activations) reaches its threshold; every inactive node's
    total incoming active weight stays below its threshold."""
    csr = GRAPHS["er"]
    w = edge_weights(csr, "WC")
    r = make_engine("csr", csr, w, model="lt").run([0, 1, 2], trial)
    rev = csr.reverse()
    t = r.activation_time
    for v in range(csr.n):
        eids, srcs = rev.in_edges(v)
        if eids.size == 0:
            continue
        theta = uniform_one(STREAM_LT_THRESHOLD, trial, v)
        if t[v] > 0:
            earlier = sum(
                w[e]
                for e, u in zip(eids.tolist(), srcs.tolist())
                if 0 <= t[u] < t[v]
            )
            assert earlier >= theta - 1e-12, (v, earlier, theta)
        elif t[v] < 0:
            total = sum(
                w[e] for e, u in zip(eids.tolist(), srcs.tolist()) if t[u] >= 0
            )
            assert total < theta + 1e-12, (v, total, theta)


def test_lt_spreads_more_with_higher_weights():
    csr = GRAPHS["er"]
    lo = np.full(csr.m, 0.05)
    hi = np.full(csr.m, 0.3)
    e_lo = make_engine("csr", csr, lo, model="lt")
    e_hi = make_engine("csr", csr, hi, model="lt")
    mean_lo = np.mean([e_lo.run([0, 1, 2], t).num_active for t in range(30)])
    mean_hi = np.mean([e_hi.run([0, 1, 2], t).num_active for t in range(30)])
    assert mean_hi > mean_lo
