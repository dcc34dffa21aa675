"""Plain greedy influence maximization (Nemhauser et al. baseline).

Evaluates sigma-hat(S + {v}) for every remaining candidate at every step;
CELF's whole point is avoiding most of these evaluations, so this module
exists both as the correctness reference for CELF and to count how many
sigma evaluations CELF saves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.diffusion.common import integer_ids


@dataclass(frozen=True)
class GreedyResult:
    """Selected seeds in pick order, sigma-hat after each pick, eval count."""

    seeds: list[int]
    sigma_values: list[float]
    n_evals: int


def distinct_candidates(candidates: Sequence[int]) -> list[int]:
    """Candidates as sorted ints; a repeated candidate raises ``ValueError``.

    A repeat would be evaluated twice and could be picked twice. Float and
    bool ids raise ``ValueError`` too, as in ``integer_ids``: 0.5 and
    True would silently stand for nodes 0 and 1.
    """
    cand = sorted(integer_ids(candidates, "candidate").tolist())
    repeats = sorted({a for a, b in zip(cand, cand[1:]) if a == b})
    if repeats:
        raise ValueError(f"duplicate candidates, e.g. {repeats[:3]}")
    return cand


def greedy(
    sigma: Callable[[Sequence[int]], float], candidates: Sequence[int], k: int
) -> GreedyResult:
    """Select k seeds maximizing sigma greedily (ties -> smallest node id).

    A sigma value that is not finite raises ``ValueError`` naming the
    candidate: NaN compares false with every value, so it could never be
    picked nor beaten.
    """
    remaining = distinct_candidates(candidates)
    if k <= 0 or k > len(remaining):
        raise ValueError(f"need 0 < k <= {len(remaining)}")
    chosen: list[int] = []
    values: list[float] = []
    n_evals = 0
    current = 0.0
    for _ in range(k):
        best_node, best_val = None, -math.inf
        for v in remaining:
            val = sigma(chosen + [v])
            n_evals += 1
            if not math.isfinite(val):
                raise ValueError(f"sigma not finite for candidate {v}: {val}")
            if val > best_val:
                best_node, best_val = v, val
        chosen.append(best_node)
        remaining.remove(best_node)
        current = best_val
        values.append(current)
    return GreedyResult(seeds=chosen, sigma_values=values, n_evals=n_evals)
