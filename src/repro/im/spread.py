"""Monte-Carlo influence estimation with common random numbers (S12).

``sigma(S)`` is estimated as the mean activated count over a *fixed block
of trial seeds*. Reusing the block across every evaluation inside one
greedy/CELF run (common random numbers) is both the standard variance-
reduction trick and what makes the IM layer exactly testable: under the
live-edge coupling, the IC estimate with fixed coins is a bona fide
monotone submodular set function, so lazy (CELF) and plain greedy must
select identical seed sets (asserted in tests).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion.common import trial_keys
from repro.diffusion.rng import splitmix64_py
# Re-exported for importers of repro.im.spread only: Table 2's Spark first
# pass runs on SparkTrialEngine.gains.
from repro.diffusion.spark_engine import marginal_gains_spark  # noqa: F401


def trial_seed_block(base_seed: int, n_trials: int) -> np.ndarray:
    """Deterministic block of distinct 63-bit trial seeds.

    Trial i of base seed b hashes the key ``(b << 20) + i`` (splitmix64),
    so blocks of different ``base_seed`` values never collide, keeping
    Monte-Carlo batches independent across experiments. That holds only
    while i < 2**20 and 0 <= b < 2**44 (the key is taken mod 2**64, so
    b = -1 would alias b = 2**44 - 1), so other values raise ``ValueError``,
    as does a negative ``n_trials``.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials={n_trials} is negative")
    if n_trials > 1 << 20:
        raise ValueError(f"n_trials={n_trials} exceeds 2**20: blocks would overlap")
    if not 0 <= base_seed < 1 << 44:
        raise ValueError(f"base_seed={base_seed} is outside [0, 2**44): blocks would overlap")
    return np.asarray(
        [splitmix64_py((base_seed << 20) + i) >> 1 for i in range(n_trials)],
        dtype=np.int64,
    )


def estimate_spread(engine, seeds, trial_seeds) -> float:
    """Mean activated count over ``trial_seeds``: ``engine.spread``.

    Every engine implements ``spread``: the CSR kernel evaluates all
    trials in one compiled call, the interpreted baselines loop ``run``
    (that difference is precisely what Table 2 measures), and the Spark
    trial engine fans the trials out over executors.
    """
    return float(engine.spread(seeds, trial_seeds))


class Sigma:
    """sigma-hat(S) over one engine and one CRN trial block.

    Calling it gives ``engine.spread(S, block)``; :meth:`gains` gives
    sigma-hat(base + {c}) for many candidates in one ``engine.gains``
    call, which ``celf`` uses for its first pass and, with ``stop``, for
    each chunk of a lazy round.
    The block is stored as ``trial_keys``, so non-integer trial seeds
    raise ``ValueError`` here and seeds of 2**63 and above are kept. An
    empty block raises ``ValueError`` too: its mean is NaN, which no
    selection can rank.
    """

    def __init__(self, engine, trial_seeds) -> None:
        self.engine = engine
        self.block = trial_keys(trial_seeds)
        if self.block.size == 0:
            raise ValueError("sigma-hat needs at least one trial seed")

    def __call__(self, seed_set: Sequence[int]) -> float:
        return self.engine.spread(seed_set, self.block)

    def gains(self, base: Sequence[int], candidates: Sequence[int], *, stop=None) -> np.ndarray:
        return self.engine.gains(base, candidates, self.block, stop=stop)


def make_sigma(engine, trial_seeds) -> Sigma:
    """Bind an engine + CRN trial block into a sigma-hat(S) callable."""
    return Sigma(engine, trial_seeds)
