"""Batched candidate gains (``gains`` in the engine contract) and CELF on top (S12-S13)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import CSREngine, csr_engine
from repro.diffusion.common import Engine, checked_nodes, trial_keys, validate_nodes
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights
from repro.im import celf, make_sigma, trial_seed_block

from tests.helpers import CountingLib, from_edges, hub, line, small_graphs, star

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


def _gains_calls(lib) -> list[tuple[str, bool, int]]:
    """(name, live scratch given, number of candidates) of each call but run_many.

    A gains call ends with (live_ptr, live_dst, cands, n_cands, totals);
    its live scratch is given when both pointers are, and not at all when
    both are NULL.
    """
    found = []
    for call in lib.calls:
        if call.name != "run_many":
            live = {bool(a) for a in call.args[-5:-3]}
            assert len(live) == 1, call.args[-5:-3]
            found.append((call.name, live.pop(), call.args[-2]))
    return found


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
def test_celf_first_pass_is_one_compiled_call(monkeypatch):
    """n candidates cost one snapshot call; each lazy round stopped calls without.

    A round's calls take chunks of 8, 16, 32 ... stale entries; every call
    but the last evaluates its whole chunk, only the first has no incumbent,
    and the evaluated counts sum to the lazy evaluations.
    """
    lib = CountingLib(csr_engine._LIB)
    monkeypatch.setattr(csr_engine, "_LIB", lib)
    csr = build_csr(erdos_renyi(120, 0.05, seed=5))
    sigma = make_sigma(CSREngine(csr, edge_weights(csr, "WC", seed=6)), trial_seed_block(2, 30))

    assert celf(sigma, range(csr.n), 1).n_evals == csr.n
    assert _gains_calls(lib) == [("ic_gains", True, csr.n)]
    assert len(lib.calls) == 1
    assert lib.calls[0].result == csr.n

    lib.calls.clear()
    res = celf(sigma, range(csr.n), 4)
    assert res.n_evals > csr.n
    first, *rest = lib.calls
    assert _gains_calls(lib)[0] == ("ic_gains", True, csr.n) and first.result == csr.n
    # R(S) is marked once per selection round after the first, not per call,
    # by run_many with a reach matrix (args[12]); each round's calls follow it.
    marks = [(call.args[4], bool(call.args[12])) for call in rest if call.name == "run_many"]
    assert marks == [(1, True), (2, True), (3, True)]
    rounds = []
    for call in rest:
        if call.name == "run_many":
            rounds.append([])
        else:
            rounds[-1].append(call)
    evaluated = 0
    for picked, calls in enumerate(rounds, 1):
        assert calls
        # ic_gains(*bound[:12], stale, current, has_best, best_key, best_id, live_ptr, ...)
        assert [call.args[14] for call in calls] == [0] + [1] * (len(calls) - 1)
        left = csr.n - picked  # stale entries in the heap
        for i, call in enumerate(calls):
            n_cands = call.args[-2]
            assert call.args[12] is not None and call.args[17] is None  # stopped, no snapshot
            assert n_cands == min(8 << i, left)
            assert call.result == n_cands if call is not calls[-1] else call.result <= n_cands
            left -= n_cands
        evaluated += sum(call.result for call in calls)
    assert evaluated == res.n_evals - csr.n > 0


def _stopped_both_ways(engine, base, cands, trials, stop):
    """IC ``gains`` with ``stop`` in C and through the Python rule, as lists."""
    compiled = engine.gains(base, cands, trials, stop=stop).tolist()
    assert compiled == Engine.gains(engine, base, cands, trials, stop=stop).tolist()
    return compiled


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
@settings(max_examples=200, deadline=None)
@given(
    graph=small_graphs(),
    data=st.data(),
    trials=st.lists(st.integers(-(2**63), 2**64 - 1), min_size=1, max_size=6),
)
def test_compiled_stop_equals_python_rule(graph, data, trials):
    """Stale keys and incumbents drawn from the true fresh keys force ties in both id orders."""
    csr, w, _ = graph
    e = CSREngine(csr, w)
    node = st.integers(0, csr.n - 1)
    base = data.draw(st.lists(node, max_size=csr.n), label="base")
    cands = data.draw(st.lists(node, max_size=csr.n), label="candidates")  # some in base
    current = data.draw(st.sampled_from([0.0, -0.0, 1.0, float(len(set(base)))]), label="current")
    fresh = [-(v - current) for v in e.gains(base, cands, trials).tolist()]
    key = st.sampled_from([*fresh, 0.0, -0.0, -1.0, -2.5, 1.0])
    stale = data.draw(st.lists(key, min_size=len(cands), max_size=len(cands)), label="stale")
    best = data.draw(st.none() | st.tuples(key, node), label="incumbent")
    got = _stopped_both_ways(e, base, cands, trials, (stale, current, best))
    assert got == e.gains(base, cands, trials).tolist()[: len(got)]


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
@pytest.mark.parametrize("graph", ["hub", "edgeless"])
def test_compiled_stop_on_ties(graph):
    """An incumbent tied with a stale key stops before a larger id only.

    On the edgeless graph every gain ties and candidate 2 lies in the base.
    """
    csr = hub() if graph == "hub" else from_edges(5, [])
    e = CSREngine(csr, edge_weights(csr, "WC", seed=3))
    base, cands, trials = [7, 9, 20] if graph == "hub" else [2], [3, 0, 2, 4], [5, 6, 7]
    current = e.spread(base, trials)
    top = min(-(v - current) for v in e.gains(base, cands, trials).tolist())
    tied = [top] * 4
    # Without an incumbent the first candidate is always evaluated.
    assert len(_stopped_both_ways(e, base, cands, trials, (tied, current, None))) >= 1
    assert _stopped_both_ways(e, base, cands, trials, (tied, current, (top, 2))) == []
    assert len(_stopped_both_ways(e, base, cands, trials, (tied, current, (top, 4)))) >= 1
    # Stale keys below every fresh one: every candidate is evaluated.
    low = [min(top, 0.0) - 1.0] * 4
    assert len(_stopped_both_ways(e, base, cands, trials, (low, current, None))) == 4
    with pytest.raises(ValueError, match="3 stale keys for 4 candidates"):
        e.gains(base, cands, trials, stop=(low[:3], current, None))
    with pytest.raises(ValueError, match="3 stale keys for 4 candidates"):
        Engine.gains(e, base, cands, trials, stop=(low[:3], current, None))


def _both_totals(engine, base, cands, trials):
    """Integer totals of ``ic_gains`` with and without snapshots on the same inputs."""
    base = checked_nodes(engine.csr.n, base, "seed")
    cands = validate_nodes(engine.csr.n, cands, "candidate")
    keys = trial_keys(trials)
    return [engine._totals(base, cands, keys, snapshot).tolist() for snapshot in (True, False)]


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
@pytest.mark.parametrize(
    "csr, base, cands, trials",
    [
        (from_edges(5, []), [], [0, 4, 4], [1, 2]),  # edgeless
        (from_edges(5, []), [2], [2, 3], [7]),
        (from_edges(6, [(0, 1), (1, 2), (2, 0)]), [], range(6), [3, 4, 5]),  # 3, 4, 5 isolated
        (from_edges(6, [(0, 1), (1, 2), (2, 0)]), [1, 1], [1, 0, 4, 0], [3, 4]),
        (star(5), [0], [0, 1, 0, 5], [9, 10, 11]),  # candidates inside the base, duplicates
        (line(6), [], range(6), [2**64 - 1]),  # one trial
        (line(6), [5, 2], range(6), [-1, 0, 1]),  # fewer trials than most machines' CPUs
    ],
    ids=["edgeless", "edgeless-base", "isolated", "isolated-base", "in-base-duplicates",
         "one-trial", "few-trials"],
)
def test_snapshot_totals_equal_search_totals(csr, base, cands, trials):
    """The snapshot path and ic_gains give the same integers, and those are spread's."""
    e = CSREngine(csr, np.full(csr.m, 0.6))
    snapshot, search = _both_totals(e, base, list(cands), trials)
    assert snapshot == search
    assert [t / len(trials) for t in snapshot] == [e.spread([*base, c], trials) for c in cands]


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
@settings(max_examples=150, deadline=None)
@given(
    graph=small_graphs(),
    data=st.data(),
    trials=st.lists(st.integers(-(2**63), 2**64 - 1), min_size=1, max_size=6),
)
def test_snapshot_totals_equal_search_totals_on_small_graphs(graph, data, trials):
    csr, w, _ = graph
    node = st.integers(0, csr.n - 1)
    base = data.draw(st.lists(node, max_size=csr.n), label="base")
    cands = data.draw(st.lists(node, max_size=csr.n), label="candidates")
    snapshot, search = _both_totals(CSREngine(csr, w), base, cands, trials)
    assert snapshot == search


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
def test_gains_takes_the_snapshot_path_by_out_degree(monkeypatch):
    """Snapshots when the candidates' out-degrees sum to at least m, else none."""
    lib = CountingLib(csr_engine._LIB)
    monkeypatch.setattr(csr_engine, "_LIB", lib)
    e = CSREngine(star(4), np.full(4, 0.5))  # m = 4: the hub has every out-edge
    for cands, live in (([0], True), ([1, 2, 3, 4], False), ([1, 0], True), ([], False)):
        lib.calls.clear()
        e.gains([], cands, [1, 2])
        assert _gains_calls(lib) == [("ic_gains", live, len(cands))], cands
        assert len(lib.calls) == 1
    edgeless = CSREngine(from_edges(3, []), np.empty(0))
    lib.calls.clear()
    edgeless.gains([], [1], [1])
    assert _gains_calls(lib) == [("ic_gains", True, 1)]
    assert len(lib.calls) == 1


@pytest.mark.parametrize("where", ["base", "candidates"])
@pytest.mark.parametrize(
    "bad", [True, 1.0, np.uint64(2**63), np.float64(1.0), np.bool_(True)],
    ids=["bool", "float", "uint64-2**63", "np-float", "np-bool"],
)
def test_cached_base_does_not_bypass_checks(where, bad):
    """After a call caches base [1], ids equal to it in value still raise."""
    e = CSREngine(star(3), np.full(3, 0.5))
    block = [1, 2]
    want = e.gains([1], [2], block)
    for ids in ([bad], np.array([bad])):
        args = (ids, [2]) if where == "base" else ([1], ids)
        with pytest.raises(ValueError, match="must be integers|out of range"):
            e.gains(*args, block)
    assert e.gains([1], [2], block).tolist() == want.tolist()


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
