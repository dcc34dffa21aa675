"""Influence-maximization tests: spread estimation, greedy, CELF (S12-S13)."""
import numpy as np
import pytest

from repro.diffusion import make_engine
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi, random_regular
from repro.graphs.weights import edge_weights
from repro.im import celf, greedy, make_sigma, trial_seed_block
from repro.im import spread as spread_mod
from repro.im.spread import estimate_spread

from tests.helpers import line, star


@pytest.fixture(scope="module")
def setup():
    csr = build_csr(erdos_renyi(120, 0.04, seed=5))
    w = edge_weights(csr, "WC")
    engine = make_engine("csr", csr, w, model="ic")
    sigma = make_sigma(engine, trial_seed_block(2, 150))
    return csr, w, engine, sigma


class TestTrialSeedBlock:
    def test_deterministic(self):
        assert np.array_equal(trial_seed_block(1, 50), trial_seed_block(1, 50))

    def test_distinct_within_block(self):
        b = trial_seed_block(0, 10_000)
        assert len(np.unique(b)) == 10_000

    def test_disjoint_across_bases(self):
        a = set(trial_seed_block(1, 1000).tolist())
        b = set(trial_seed_block(2, 1000).tolist())
        assert not (a & b)

    def test_non_negative(self):
        assert (trial_seed_block(3, 100) >= 0).all()

    def test_longer_than_key_space_rejected(self, monkeypatch):
        """2**20 + 1 trials would reach base 1's first key: raise, hash nothing."""
        hashed = []
        monkeypatch.setattr(spread_mod, "splitmix64_py", hashed.append)
        with pytest.raises(ValueError, match="overlap"):
            trial_seed_block(0, 2**20 + 1)
        assert hashed == []

    def test_negative_length_rejected(self):
        """It used to return an empty block."""
        with pytest.raises(ValueError, match="negative"):
            trial_seed_block(0, -1)

    @pytest.mark.parametrize("base", [-1, 2**44, -(2**44)])
    def test_base_outside_key_space_rejected(self, base):
        """Base -1 used to give base 2**44 - 1's block: the keys wrap mod 2**64."""
        with pytest.raises(ValueError, match="outside"):
            trial_seed_block(base, 3)

    def test_key_space_bounds_accepted(self):
        last = trial_seed_block(2**44 - 1, 3)
        assert not set(last.tolist()) & set(trial_seed_block(0, 3).tolist())
        assert trial_seed_block(5, 0).shape == (0,)


class TestEstimateSpread:
    def test_bounds(self, setup):
        csr, w, engine, _ = setup
        est = estimate_spread(engine, [0, 1, 2], trial_seed_block(0, 50))
        assert 3 <= est <= csr.n

    def test_deterministic(self, setup):
        _, _, engine, _ = setup
        block = trial_seed_block(1, 30)
        assert estimate_spread(engine, [4], block) == estimate_spread(
            engine, [4], block
        )

    def test_full_flood(self):
        csr = line(5)
        engine = make_engine("csr", csr, np.ones(csr.m))
        assert estimate_spread(engine, [0], trial_seed_block(0, 10)) == 5.0


class TestSigma:
    @pytest.mark.parametrize(
        "trials", [[1.5, 2.7], [True], np.array([1.0, 2.0])], ids=["float", "bool", "float-array"]
    )
    def test_non_integer_trial_seeds_rejected(self, setup, trials):
        """[1.5, 2.7] used to run the block [1, 2]."""
        *_, engine, _ = setup
        with pytest.raises(ValueError, match="trial seeds must be integers"):
            make_sigma(engine, trials)

    @pytest.mark.parametrize("trials", [[], np.array([], np.int64)], ids=["list", "array"])
    def test_empty_trial_block_rejected(self, setup, trials):
        """Its mean is NaN: CELF picked seeds by id with σ̂ NaN, and greedy crashed."""
        *_, engine, _ = setup
        with pytest.raises(ValueError, match="at least one trial"):
            make_sigma(engine, trials)

    def test_trial_seeds_above_int64_accepted(self, setup):
        *_, engine, _ = setup
        block = [2**63 + 5, -3]
        sigma = make_sigma(engine, block)
        assert sigma([0]) == engine.spread([0], block)
        assert sigma.gains([0], [1]).tolist() == [engine.spread([0, 1], block)]


class TestGreedy:
    def test_star_hub_wins(self):
        csr = star(10)
        engine = make_engine("csr", csr, np.full(csr.m, 0.9))
        sigma = make_sigma(engine, trial_seed_block(1, 100))
        res = greedy(sigma, range(csr.n), 1)
        assert res.seeds == [0]
        assert res.n_evals == csr.n

    def test_values_monotone(self, setup):
        *_, sigma = setup
        res = greedy(sigma, range(30), 4)
        assert all(b >= a for a, b in zip(res.sigma_values, res.sigma_values[1:]))

    def test_eval_count(self, setup):
        *_, sigma = setup
        res = greedy(sigma, range(20), 3)
        assert res.n_evals == 20 + 19 + 18

    def test_k_validation(self, setup):
        *_, sigma = setup
        with pytest.raises(ValueError):
            greedy(sigma, range(5), 0)
        with pytest.raises(ValueError):
            greedy(sigma, range(5), 6)

    def test_no_duplicate_seeds(self, setup):
        *_, sigma = setup
        res = greedy(sigma, range(25), 5)
        assert len(set(res.seeds)) == 5

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate candidates, e.g. \[1\]"):
            greedy(lambda s: float(len(set(s))), [1, 1, 2], 3)

    @pytest.mark.parametrize("cands", [[True, 2.9], [0.5, 1.7], [True, False]])
    def test_non_integer_candidates_rejected(self, setup, cands):
        """``int()`` would pick other nodes: [True, 2.9] used to return [1, 2]."""
        *_, sigma = setup
        with pytest.raises(ValueError, match="candidates must be integers"):
            greedy(sigma, cands, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sigma_not_finite_rejected(self, bad):
        """A NaN used to raise ``list.remove(x): x not in list``: nothing beat it."""
        with pytest.raises(ValueError, match="sigma not finite for candidate 0"):
            greedy(lambda s: bad, [0, 1], 1)

    def test_negative_sigma_picks_smallest_id(self):
        """A best value starting at -1.0 used to leave -5.0 unpicked."""
        res = greedy(lambda s: -5.0, [0, 1], 1)
        assert (res.seeds, res.sigma_values) == ([0], [-5.0])
        res = greedy(lambda s: -5.0 - sum(s), [2, 0, 1], 2)
        assert (res.seeds, res.sigma_values) == ([0, 1], [-5.0, -6.0])


class TestCELF:
    def test_matches_greedy_exactly(self, setup):
        """CRN-IC sigma-hat is exactly submodular, so lazy == eager."""
        csr, *_ , sigma = setup
        g = greedy(sigma, range(csr.n), 5)
        c = celf(sigma, range(csr.n), 5)
        assert c.seeds == g.seeds
        assert np.allclose(c.sigma_values, g.sigma_values)

    def test_fewer_evaluations_than_greedy(self, setup):
        csr, *_, sigma = setup
        g = greedy(sigma, range(csr.n), 5)
        c = celf(sigma, range(csr.n), 5)
        assert c.n_evals < g.n_evals

    def test_initial_gains_path_equivalent(self, setup):
        csr, *_, sigma = setup
        base = celf(sigma, range(csr.n), 4)
        gains = {v: sigma([v]) for v in range(csr.n)}
        pre = celf(sigma, range(csr.n), 4, initial_gains=gains)
        assert pre.seeds == base.seeds
        assert np.allclose(pre.sigma_values, base.sigma_values)
        # precomputed path skips the first |candidates| evaluations
        assert pre.n_evals == base.n_evals - csr.n

    def test_initial_gains_missing_candidate_rejected(self, setup):
        *_, sigma = setup
        with pytest.raises(ValueError, match="missing"):
            celf(sigma, range(10), 2, initial_gains={0: 1.0})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float64("nan")])
    def test_initial_gains_not_finite_rejected(self, bad):
        """{0: nan, 1: 1.0, 2: 1.0} used to pick [1, 0]."""
        with pytest.raises(ValueError, match=r"not finite for candidates, e.g. \[0\]"):
            celf(lambda s: float(len(set(s))), [0, 1, 2], 2,
                 initial_gains={0: bad, 1: 1.0, 2: 1.0})

    @pytest.mark.parametrize("bad, node", [(np.nan, 0), (np.inf, 2), (-np.inf, 1)])
    def test_first_pass_not_finite_rejected(self, bad, node):
        """NaN on node 0 used to pick [1, 0] with sigma-hat [1.0, nan], inf on 2 [2, 0]."""
        with pytest.raises(ValueError, match=rf"not finite for candidates, e.g. \[{node}\]"):
            celf(lambda s: bad if node in s else float(len(s)), [0, 1, 2], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lazy_value_not_finite_rejected(self, bad):
        """Singletons are finite, so only the lazy re-evaluation of 1 sees ``bad``."""
        with pytest.raises(ValueError, match=r"not finite for candidate 1 after \[0\]"):
            celf(lambda s: bad if len(s) > 1 and 1 in s else float(len(s)), [0, 1, 2], 2)

    def test_k_validation(self, setup):
        *_, sigma = setup
        with pytest.raises(ValueError):
            celf(sigma, range(5), 0)

    @pytest.mark.parametrize("precomputed", [False, True])
    def test_duplicate_candidates_rejected(self, precomputed):
        """A repeat would be picked twice and counted twice in n_evals."""
        initial = {1: 1.0, 2: 1.0} if precomputed else None
        with pytest.raises(ValueError, match=r"duplicate candidates, e.g. \[1\]"):
            celf(lambda s: float(len(set(s))), [1, 1, 2], 3, initial_gains=initial)

    @pytest.mark.parametrize("precomputed", [False, True])
    def test_non_integer_candidates_rejected(self, setup, precomputed):
        """[0.5, 1.7] used to select node 0."""
        *_, sigma = setup
        initial = {0: 1.0, 1: 1.0} if precomputed else None
        for cands in ([0.5, 1.7], [True], np.array([0.0, 1.0])):
            with pytest.raises(ValueError, match="candidates must be integers"):
                celf(sigma, cands, 1, initial_gains=initial)

    def test_k_one_picks_argmax(self, setup):
        csr, *_, sigma = setup
        c = celf(sigma, range(csr.n), 1)
        best = max(range(csr.n), key=lambda v: (sigma([v]), -v))
        assert c.seeds == [best]

    def test_values_monotone(self, setup):
        csr, *_, sigma = setup
        c = celf(sigma, range(csr.n), 6)
        assert all(b >= a for a, b in zip(c.sigma_values, c.sigma_values[1:]))

    def test_deterministic(self, setup):
        csr, *_, sigma = setup
        assert celf(sigma, range(csr.n), 3).seeds == celf(sigma, range(csr.n), 3).seeds

    def test_k_equals_n(self, setup):
        """k == |candidates|: every candidate once, same as greedy, full-set σ̂."""
        *_, sigma = setup
        c = celf(sigma, range(8), 8)
        g = greedy(sigma, range(8), 8)
        assert c.seeds == g.seeds
        assert np.allclose(c.sigma_values, g.sigma_values)
        assert sorted(c.seeds) == list(range(8))
        assert c.sigma_values[-1] == pytest.approx(sigma(list(range(8))))


def test_k_equals_n_through_gains_and_a_plain_callable():
    """k == n on a whole small graph: every node once, whichever way sigma is called."""
    csr = build_csr(erdos_renyi(15, 0.25, seed=7))
    sigma = make_sigma(make_engine("csr", csr, edge_weights(csr, "WC")), trial_seed_block(4, 100))

    def plain(seeds):  # no ``gains``, so one seed set per call
        return sigma(seeds)

    nodes = list(range(csr.n))
    batched, single = celf(sigma, nodes, csr.n), celf(plain, nodes, csr.n)
    assert sorted(batched.seeds) == nodes
    assert (batched.seeds, batched.sigma_values, batched.n_evals) == (
        single.seeds, single.sigma_values, single.n_evals)
    assert batched.sigma_values[-1] == pytest.approx(csr.n)
    eager = greedy(sigma, nodes, csr.n)
    assert eager == greedy(plain, nodes, csr.n)
    assert sorted(eager.seeds) == nodes
    assert eager.sigma_values[-1] == csr.n
    assert eager.n_evals == csr.n * (csr.n + 1) // 2


@pytest.mark.parametrize("select", [greedy, celf])
def test_bools_mixed_with_ints_rejected(setup, select):
    """NumPy casts ``[True, 3]`` to ``[1, 3]``, so a bool would stand for node 1."""
    *_, sigma = setup
    with pytest.raises(ValueError, match="candidates must be integers"):
        select(sigma, [True, 3], 1)
    assert select(sigma, [np.int64(1), 3], 1) == select(sigma, [1, 3], 1)


class TestCELFOnRegularGraph:
    """Table 2's setting at test scale: all backends pick identical seeds."""

    def test_backends_agree(self):
        csr = build_csr(random_regular(80, 5, seed=1))
        w = edge_weights(csr, "TV", seed=2)
        block = trial_seed_block(3, 60)
        picks = {}
        for kind in ("csr", "pure_python", "ndlib_like"):
            sigma = make_sigma(make_engine(kind, csr, w), block)
            picks[kind] = celf(sigma, range(csr.n), 3).seeds
        assert picks["csr"] == picks["pure_python"] == picks["ndlib_like"]
