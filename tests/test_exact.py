"""Exact-oracle tests (S11): closed forms and Monte-Carlo agreement."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.diffusion import CSREngine, make_engine
from repro.diffusion.common import trial_keys
from repro.diffusion.exact import exact_ic, exact_lt, exact_sigma, reachable
from repro.diffusion.rng import STREAM_IC_COIN, uniforms
from repro.graphs.weights import normalize_for_lt
from repro.im.spread import estimate_spread, trial_seed_block

from tests.helpers import from_edges, line, small_graphs, star, tiny4


class TestReachable:
    def test_line(self):
        edges = np.array([[0, 1], [1, 2]])
        assert reachable(4, edges, [0]).tolist() == [True, True, True, False]

    def test_no_edges(self):
        assert reachable(3, np.empty((0, 2), np.int64), [1]).tolist() == [
            False,
            True,
            False,
        ]

    def test_cycle(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        assert reachable(3, edges, [2]).all()

    def test_multiple_seeds(self):
        edges = np.array([[0, 1], [2, 3]])
        assert reachable(4, edges, [0, 2]).all()


class TestExactIC:
    def test_single_edge_closed_form(self):
        """sigma({0}) on 0->1 with weight p is exactly 1 + p."""
        csr = from_edges(2, [[0, 1]])
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            sig, pa = exact_ic(csr, np.array([p]), [0])
            assert sig == pytest.approx(1 + p)
            assert pa[0] == pytest.approx(1.0)
            assert pa[1] == pytest.approx(p)

    def test_two_hop_line_closed_form(self):
        """0->1->2 with weights p, q: sigma({0}) = 1 + p + p*q."""
        csr = line(3)
        p, q = 0.6, 0.3
        # line(3) edge ids: edge 0 = (0->1), edge 1 = (1->2)
        sig, _ = exact_ic(csr, np.array([p, q]), [0])
        assert sig == pytest.approx(1 + p + p * q)

    def test_star_closed_form(self):
        csr = star(4)
        w = np.full(4, 0.5)
        sig, _ = exact_ic(csr, w, [0])
        assert sig == pytest.approx(1 + 4 * 0.5)

    def test_parallel_paths(self):
        """0->2 direct (p) and 0->1->2 (q, r): P[2] = 1-(1-p)(1-qr)."""
        csr = from_edges(3, [[0, 1], [0, 2], [1, 2]])
        # edge order by (src, input order): (0,1)=id0, (0,2)=id1, (1,2)=id2
        q, p, r = 0.5, 0.4, 0.7
        sig, pa = exact_ic(csr, np.array([q, p, r]), [0])
        p2 = 1 - (1 - p) * (1 - q * r)
        assert pa[2] == pytest.approx(p2)
        assert sig == pytest.approx(1 + q + p2)

    def test_full_seed_set(self):
        csr = tiny4()
        sig, pa = exact_ic(csr, np.full(csr.m, 0.3), [0, 1, 2, 3])
        assert sig == pytest.approx(4.0)
        assert np.allclose(pa, 1.0)

    def test_too_large_rejected(self):
        csr = star(20)
        with pytest.raises(ValueError):
            exact_ic(csr, np.full(csr.m, 0.1), [0])


class TestExactLT:
    def test_single_edge_closed_form(self):
        """LT on 0->1 with weight w: P[1 activates] = P[theta_1 <= w] = w."""
        csr = from_edges(2, [[0, 1]])
        for w in (0.0, 0.3, 0.8, 1.0):
            sig, pa = exact_lt(csr, np.array([w]), [0])
            assert sig == pytest.approx(1 + w)
            assert pa[1] == pytest.approx(w)

    def test_two_in_edges_closed_form(self):
        """Node 2 with in-edges from seeds 0,1 (w_a, w_b): activation
        probability is w_a + w_b (both seeds active, live-edge picks)."""
        csr = from_edges(3, [[0, 2], [1, 2]])
        sig, pa = exact_lt(csr, np.array([0.3, 0.5]), [0, 1])
        assert pa[2] == pytest.approx(0.8)
        assert sig == pytest.approx(2.8)

    def test_overweight_rejected(self):
        csr = from_edges(3, [[0, 2], [1, 2]])
        with pytest.raises(ValueError, match="sum"):
            exact_lt(csr, np.array([0.7, 0.7]), [0])

    def test_exact_sigma_dispatch(self):
        csr = from_edges(2, [[0, 1]])
        assert exact_sigma(csr, np.array([0.4]), [0], "ic") == pytest.approx(1.4)
        assert exact_sigma(csr, np.array([0.4]), [0], "lt") == pytest.approx(1.4)


@pytest.mark.parametrize("kind", ["csr", "pure_python", "ndlib_like"])
class TestMonteCarloConvergesIC:
    def test_tiny4(self, kind):
        csr = tiny4()
        rng = np.random.default_rng(0)
        w = rng.random(csr.m) * 0.8
        sig, _ = exact_ic(csr, w, [0])
        eng = make_engine(kind, csr, w, model="ic")
        est = estimate_spread(eng, [0], trial_seed_block(1, 4000))
        # binomial-ish tolerance: spread in [1,4], sd per trial < 1.5
        assert abs(sig - est) < 0.12

    def test_line(self, kind):
        csr = line(4)
        w = np.array([0.5, 0.5, 0.5])
        sig, _ = exact_ic(csr, w, [0])
        eng = make_engine(kind, csr, w, model="ic")
        est = estimate_spread(eng, [0], trial_seed_block(2, 4000))
        assert abs(sig - est) < 0.1


@pytest.mark.parametrize("kind", ["csr", "pure_python", "ndlib_like"])
class TestMonteCarloConvergesLT:
    def test_tiny4(self, kind):
        csr = tiny4()
        rng = np.random.default_rng(3)
        w = normalize_for_lt(csr, rng.random(csr.m))
        sig, _ = exact_lt(csr, w, [0])
        eng = make_engine(kind, csr, w, model="lt")
        est = estimate_spread(eng, [0], trial_seed_block(4, 4000))
        assert abs(sig - est) < 0.12


def test_ic_per_node_probabilities_via_heatmap_counts():
    """MC per-node activation frequencies converge to exact p_active."""
    csr = tiny4()
    rng = np.random.default_rng(1)
    w = rng.random(csr.m) * 0.7
    _, pa = exact_ic(csr, w, [0])
    eng = make_engine("csr", csr, w)
    block = trial_seed_block(5, 6000)
    counts = np.zeros(csr.n)
    for t in block.tolist():
        r = eng.run([0], int(t))
        counts[r.active_nodes] += 1
    freq = counts / len(block)
    assert np.abs(freq - pa).max() < 0.03


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    graph=small_graphs(),
    seeds=st.lists(st.integers(0, 11), min_size=1, max_size=4),
    trial=st.integers(-(2**63), 2**64 - 1),
)
@example(graph=(from_edges(4, []), np.empty(0), "ic"), seeds=[1, 3], trial=5)
@example(  # nodes 3-5 have no edges
    graph=(from_edges(6, [(0, 1), (1, 2), (2, 0)]), np.ones(3), "ic"), seeds=[0, 4], trial=-7
)
def test_ic_cascade_is_reachability_over_the_trial_live_edges(graph, seeds, trial):
    """Kempe et al.'s live-edge coupling, per trial: edge e is live iff its
    shared-stream coin is below w[e], and the IC cascade is exactly the set
    reachable from the seeds over the live edges (self-loops, parallel
    edges, edgeless graphs and isolated nodes included)."""
    csr, w, _ = graph
    seeds = [s % csr.n for s in seeds]
    key = int(trial_keys([trial])[0])
    live = uniforms(STREAM_IC_COIN, key, np.arange(csr.m, dtype=np.int64)) < w
    want = np.flatnonzero(reachable(csr.n, csr.edge_array()[live], seeds))
    assert np.array_equal(CSREngine(csr, w).run(seeds, trial).active_nodes, want)
