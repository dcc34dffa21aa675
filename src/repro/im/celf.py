"""CELF — Cost-Effective Lazy Forward selection (Leskovec et al. 2007), S13.

The lazy-forward optimization of greedy: marginal gains are kept in a
max-heap and only re-evaluated when stale, exploiting submodularity
(a node's marginal gain can only shrink as S grows). With common random
numbers the IC estimate is exactly submodular, so CELF provably returns
the same seed set as plain greedy while evaluating sigma far fewer times
— the evaluation counter is part of the result so benchmarks can report
the savings.

The first pass still evaluates every candidate once; callers can supply
those values precomputed (``initial_gains``), which is how Table 2's
Spark backend parallelizes them with ``SparkTrialEngine.gains``.

Each selection round after the first re-evaluates stale heap entries in
heap order until the best fresh gain beats the next stale one. The entries
are popped in chunks of 8, 16, 32 and so on, each chunk one
``gains(chosen, chunk, stop=...)`` call that stops where the one-at-a-time
heap loop would (see ``repro.diffusion.common.lazy_prefix``) and returns the
values it evaluated. The fresh entries stay out of the heap until the round
picks, and the chunk's unevaluated entries go back unchanged, so the seeds,
the values and ``n_evals`` are those of the one-at-a-time loop.

A ``sigma`` with a ``gains(base, candidates, *, stop=None)`` method
(``make_sigma``'s ``Sigma``) evaluates many candidates per call: the first
pass is one ``gains([], candidates)`` call, and the compiled IC engine
answers each lazy chunk in one call from the current seed set's cached
reach, stopping in C. Any other callable is evaluated one seed set at a
time, through the same rule in Python. Both give the same values, picks
and ``n_evals``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.diffusion.common import lazy_prefix
from repro.im.greedy import distinct_candidates


@dataclass(frozen=True)
class CELFResult:
    """Seeds in pick order, sigma-hat after each pick, and eval count.

    ``n_evals`` counts calls made to ``sigma`` by this routine; when
    ``initial_gains`` was supplied, the first |candidates| evaluations
    happened elsewhere (e.g. on Spark) and are reported separately by the
    caller.
    """

    seeds: list[int]
    sigma_values: list[float]
    n_evals: int


# Stale entries in a lazy round's first gains call; each later chunk doubles.
_FIRST_CHUNK = 8


def _gains_of(sigma: Callable[[Sequence[int]], float]):
    """``gains(base, candidates, stop=None)`` for ``sigma``: its own, else one call per set."""
    gains = getattr(sigma, "gains", None)
    if gains is not None:
        return gains
    return lambda base, cands, stop=None: lazy_prefix(
        (sigma([*base, c]) for c in cands), cands, stop
    )


def _lazy_round(gains, heap: list, chosen: list[int], current: float):
    """Re-evaluate ``heap``'s stale entries in heap order until the best fresh one wins.

    Pops chunks of ``_FIRST_CHUNK``, then twice as many each time, and
    makes one ``gains`` call with stop inputs per chunk; the call returns
    the values of the entries the one-at-a-time heap loop would evaluate.
    Returns the popped best fresh entry and the number of evaluations;
    the other fresh entries and the unevaluated ones are back in ``heap``.
    """
    fresh: list[tuple[float, int]] = []
    size = _FIRST_CHUNK
    while heap:
        chunk = [heapq.heappop(heap) for _ in range(min(size, len(heap)))]
        stale, nodes = zip(*chunk)
        got = gains(chosen, list(nodes), stop=(stale, current, min(fresh, default=None)))
        for v, val in zip(nodes, got):
            val = float(val)
            if not math.isfinite(val):
                raise ValueError(f"sigma not finite for candidate {v} after {chosen}: {val}")
            fresh.append((-(val - current), v))
        if len(got) < len(chunk):
            for entry in chunk[len(got):]:
                heapq.heappush(heap, entry)
            break
        size *= 2
    # The heap loop picks the best fresh entry now: it beats every stale one left.
    best = min(fresh)
    for entry in fresh:
        if entry is not best:
            heapq.heappush(heap, entry)
    return best, len(fresh)


def celf(
    sigma: Callable[[Sequence[int]], float],
    candidates: Sequence[int],
    k: int,
    *,
    initial_gains: Mapping[int, float] | None = None,
) -> CELFResult:
    """Select k seeds with lazy-forward greedy.

    Args:
        sigma: influence estimate over a seed set (use common random
            numbers for determinism; see ``repro.im.spread.make_sigma``).
        candidates: node ids to select from.
        k: number of seeds.
        initial_gains: optional precomputed sigma({v}) for every
            candidate (e.g. computed in parallel on Spark). When absent,
            the first pass evaluates them with one ``gains`` call.

    A first-pass or lazy value that is not finite, computed or supplied,
    raises ``ValueError`` naming the candidate: NaN compares false with
    every gain and would corrupt the heap order.

    Ties break toward the smaller node id, matching ``greedy``.
    """
    cand = distinct_candidates(candidates)
    if k <= 0 or k > len(cand):
        raise ValueError(f"need 0 < k <= {len(cand)}")
    gains = _gains_of(sigma)
    n_evals = 0
    # Heap entries: (-gain, node), the gain over the seed set of the round
    # that last evaluated it. Python's heap is a min-heap, so gains are
    # negated; the node id as the second key gives deterministic
    # smallest-id tie-breaking.
    if initial_gains is not None:
        missing = [v for v in cand if v not in initial_gains]
        if missing:
            raise ValueError(f"initial_gains missing candidates, e.g. {missing[:3]}")
        first = [initial_gains[v] for v in cand]
    else:
        first = gains([], cand)
        n_evals += len(cand)
    first = np.asarray(first, np.float64)
    bad = ~np.isfinite(first)
    if bad.any():
        bad = np.compress(bad, cand)[:3].tolist()
        raise ValueError(f"sigma not finite for candidates, e.g. {bad}")
    heap = list(zip((-first).tolist(), cand))
    heapq.heapify(heap)

    chosen: list[int] = []
    values: list[float] = []
    current = 0.0
    for _ in range(k):
        if chosen:
            (neg_gain, v), evaluated = _lazy_round(gains, heap, chosen, current)
            n_evals += evaluated
        else:  # the first-pass gains are fresh for S = {}
            neg_gain, v = heapq.heappop(heap)
        chosen.append(v)
        current += -neg_gain
        values.append(current)
    return CELFResult(seeds=chosen, sigma_values=values, n_evals=n_evals)
