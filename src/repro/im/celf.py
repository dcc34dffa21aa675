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

A ``sigma`` with a ``gains(base, candidates)`` method (``make_sigma``'s
``Sigma``) evaluates many candidates per call: the first pass is one
``gains([], candidates)`` call and each lazy re-evaluation one
``gains(chosen, [v])`` call, which the compiled IC engine answers from the
current seed set's cached reach. Any other callable is evaluated one seed
set at a time. Both give the same values, picks and ``n_evals``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

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


def _gains_of(sigma: Callable[[Sequence[int]], float]):
    """``gains(base, candidates) -> sigma(base + {c}) per candidate`` for ``sigma``."""
    gains = getattr(sigma, "gains", None)
    if gains is not None:
        return gains
    return lambda base, cands: [sigma([*base, c]) for c in cands]


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
    # Heap entries: (-gain, node, round_valid_for). Initial gains are
    # relative to S = {} , i.e. fresh for selection round 1. Python's heap is
    # a min-heap, so gains are negated; the node id as the second key
    # gives deterministic smallest-id tie-breaking.
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
    heap = [(-g, v, 1) for v, g in zip(cand, first.tolist(), strict=True)]
    heapq.heapify(heap)

    chosen: list[int] = []
    values: list[float] = []
    current = 0.0
    for round_no in range(1, k + 1):
        while True:
            neg_gain, v, evaluated_at = heapq.heappop(heap)
            if evaluated_at == round_no:
                # Gain is fresh for the current S — by submodularity no
                # stale entry below it in the heap can beat it.
                chosen.append(v)
                current += -neg_gain
                values.append(current)
                break
            val = float(gains(chosen, [v])[0])
            if not math.isfinite(val):
                raise ValueError(f"sigma not finite for candidate {v} after {chosen}: {val}")
            fresh = val - current
            n_evals += 1
            heapq.heappush(heap, (-fresh, v, round_no))
    return CELFResult(seeds=chosen, sigma_values=values, n_evals=n_evals)
