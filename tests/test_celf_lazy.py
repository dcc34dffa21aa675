"""CELF's chunked lazy rounds against the one-at-a-time heap loop they replace (S13)."""
import heapq
import math
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import CSREngine
from repro.diffusion.common import lazy_prefix
from repro.graphs.weights import edge_weights
from repro.im import celf, make_sigma, trial_seed_block
from repro.im.greedy import distinct_candidates

from tests.helpers import hub, small_graphs


def sequential_celf(sigma, candidates, k, *, initial_gains=None):
    """The heap loop with one ``sigma`` call per lazy re-evaluation: the oracle.

    Returns (seeds, sigma values, n_evals) as ``celf`` computes them.
    """
    cand = distinct_candidates(candidates)
    n_evals = 0
    if initial_gains is not None:
        first = [initial_gains[v] for v in cand]
    else:
        first = [sigma([c]) for c in cand]
        n_evals += len(cand)
    first = np.asarray(first, np.float64)
    heap = [(-g, v, 1) for v, g in zip(cand, first.tolist())]
    heapq.heapify(heap)
    chosen, values, current = [], [], 0.0
    for round_no in range(1, k + 1):
        while True:
            neg_gain, v, evaluated_at = heapq.heappop(heap)
            if evaluated_at == round_no:
                chosen.append(v)
                current += -neg_gain
                values.append(current)
                break
            val = float(sigma([*chosen, v]))
            if not math.isfinite(val):
                raise ValueError(f"sigma not finite for candidate {v} after {chosen}: {val}")
            n_evals += 1
            heapq.heappush(heap, (-(val - current), v, round_no))
    return chosen, values, n_evals


def set_function(family: str, seed: int, n: int):
    """A set function with small integer values, so that gains tie often.

    ``hash`` is neither monotone nor submodular and returns -0.0 for some
    sets whose value is 0; ``coverage`` counts the items its nodes cover
    (monotone, submodular).
    """
    if family == "hash":
        def sigma(s):
            h = zlib.crc32(repr((seed, sorted(set(s)))).encode())
            v = h % 7 - 3
            return -0.0 if v == 0 and h & 8 else float(v)
        return sigma
    rng = np.random.default_rng(seed)
    covers = [set(rng.choice(12, rng.integers(0, 5), replace=False).tolist()) for _ in range(n)]
    return lambda s: float(len(set().union(*(covers[v] for v in s))))


class Batched:
    """A ``sigma`` with its own ``gains`` method, counting its calls."""

    def __init__(self, sigma) -> None:
        self.sigma, self.calls = sigma, []

    def __call__(self, s):
        return self.sigma(s)

    def gains(self, base, candidates, *, stop=None):
        got = lazy_prefix((self.sigma([*base, c]) for c in candidates), candidates, stop)
        self.calls.append((len(candidates), len(got)))
        return np.array(got, np.float64)


def _result(res):
    return res.seeds, res.sigma_values, res.n_evals


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 40),
    data=st.data(),
    family=st.sampled_from(["hash", "coverage"]),
    seed=st.integers(0, 2**32 - 1),
    precomputed=st.booleans(),
)
def test_chunked_rounds_equal_the_heap_loop(n, data, family, seed, precomputed):
    sigma = set_function(family, seed, n)
    k = data.draw(st.integers(1, n), label="k")
    cands = data.draw(st.permutations(range(n)), label="candidates")
    initial = {v: sigma([v]) for v in cands} if precomputed else None
    want = sequential_celf(sigma, cands, k, initial_gains=initial)
    assert _result(celf(sigma, cands, k, initial_gains=initial)) == want
    assert _result(celf(Batched(sigma), cands, k, initial_gains=initial)) == want


def test_round_ending_at_a_chunk_boundary():
    """Round 2 evaluates exactly its first chunk of 8; the next chunk evaluates nothing."""
    def sigma(s):
        s = set(s)
        if len(s) == 1:
            return 4.0 if 9 in s else 10.0
        return 15.0

    batched = Batched(sigma)
    res = celf(batched, range(10), 2)
    assert _result(res) == sequential_celf(sigma, range(10), 2)
    assert (res.seeds, res.n_evals) == ([0, 1], 10 + 8)
    assert batched.calls == [(10, 10), (8, 8), (1, 0)]


def test_zero_gains_tie_by_id():
    """Gains and keys of 0.0 and -0.0 are equal, so the smaller id wins either way."""
    def sigma(s):
        return -0.0 if (sum(s) + len(s)) % 2 else 0.0

    want = sequential_celf(sigma, range(20), 5)
    assert want[0] == [0, 1, 2, 3, 4]
    assert _result(celf(sigma, range(20), 5)) == want
    assert _result(celf(Batched(sigma), range(20), 5)) == want


@settings(max_examples=100, deadline=None)
@given(graph=small_graphs(), data=st.data(), base_seed=st.integers(0, 1000))
def test_engine_sigma_equals_the_heap_loop(graph, data, base_seed):
    """Through ``Sigma.gains``: the compiled stop rule under IC, the Python one under LT."""
    csr, w, model = graph
    sigma = make_sigma(CSREngine(csr, w, model=model), trial_seed_block(base_seed, 20))
    k = data.draw(st.integers(1, csr.n), label="k")
    assert _result(celf(sigma, range(csr.n), k)) == sequential_celf(sigma, range(csr.n), k)


def test_hub_sigma_equals_the_heap_loop():
    csr = hub()
    for ewm in ("TV", "WC"):
        sigma = make_sigma(CSREngine(csr, edge_weights(csr, ewm, seed=2)), trial_seed_block(3, 20))
        assert _result(celf(sigma, range(csr.n), 6)) == sequential_celf(sigma, range(csr.n), 6)
