"""Deterministic counter-based coin streams (S5 in DESIGN.md).

Every engine — compiled, pure-Python, NDlib-like, Spark — draws the *same*
uniform for the same ``(stream, trial_seed, id)`` triple, where ``id`` is a
CSR edge id (IC coins) or a node id (LT thresholds). That turns "all
engines implement the same model" into an exact, testable equality per
trial instead of a statistical claim, and it makes Spark fan-out
embarrassingly parallel: no shared RNG state, no seed handshakes, results
independent of partitioning.

The hash is splitmix64 (Steele et al.), applied twice: once to fold
``(stream, trial_seed)`` into a base key, once over ``base + id``. Uniforms
are the standard 53-bit mantissa construction ``(x >> 11) * 2**-53`` in
``[0, 1)``. The NumPy and pure-Python implementations are bit-identical
(property-tested in ``tests/test_rng.py``); the compiled kernel
(``_kernel.c``) repeats the same hash in C. ``trial_bases`` and
``uniforms_mixed`` serve only the tests and the benchmark's ``rng`` layer.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53

# Stream tags keep coin domains disjoint: an edge id must never collide
# with a node id across uses.
STREAM_IC_COIN = 0x1C0FFEE1C0FFEE01
STREAM_LT_THRESHOLD = 0x7157A6E5D0000002


def splitmix64_py(x: int) -> int:
    """Pure-Python splitmix64 finalizer over a 64-bit value."""
    x = (x + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK
    return (x ^ (x >> 31)) & _MASK


def _splitmix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over a uint64 array (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        x = (x + np.uint64(_GAMMA)).astype(np.uint64)
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(_MUL1)).astype(np.uint64)
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(_MUL2)).astype(np.uint64)
        return (x ^ (x >> np.uint64(31))).astype(np.uint64)


def base_key(stream: int, trial_seed: int) -> int:
    """Fold (stream, trial_seed) into the per-trial 64-bit base key."""
    return splitmix64_py((stream ^ splitmix64_py(trial_seed & _MASK)) & _MASK)


def uniforms(stream: int, trial_seed: int, ids: np.ndarray) -> np.ndarray:
    """Vectorized uniforms in [0, 1) for an int array of ids."""
    base = np.uint64(base_key(stream, trial_seed))
    with np.errstate(over="ignore"):
        h = _splitmix64_np(base + np.asarray(ids).astype(np.uint64))
    return (h >> np.uint64(11)).astype(np.float64) * _INV_2_53


def trial_bases(stream: int, trial_seeds) -> np.ndarray:
    """Per-trial base keys as a uint64 array (used by tests and the benchmark)."""
    return np.asarray(
        [base_key(stream, int(t)) for t in trial_seeds], dtype=np.uint64
    )


def uniforms_mixed(bases: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Uniforms for (trial, id) pairs given per-pair base keys.

    ``uniforms_mixed(trial_bases(s, ts)[k], ids)`` is bit-identical to
    ``uniforms(s, ts[k], ids)``, so one call can hash the coins of many
    trials at once (used by tests and the benchmark).
    """
    with np.errstate(over="ignore"):
        h = _splitmix64_np(
            np.asarray(bases, np.uint64) + np.asarray(ids).astype(np.uint64)
        )
    return (h >> np.uint64(11)).astype(np.float64) * _INV_2_53


def uniform_one(stream: int, trial_seed: int, id_: int) -> float:
    """Scalar twin of :func:`uniforms` for the interpreted engines."""
    h = splitmix64_py((base_key(stream, trial_seed) + id_) & _MASK)
    return (h >> 11) * _INV_2_53


class ScalarCoins:
    """Per-trial scalar coin stream for the interpreted engines.

    Precomputes the base key once so the per-draw cost is a single
    splitmix64 round, matching what a tight interpreted loop would do.
    """

    __slots__ = ("_base",)

    def __init__(self, stream: int, trial_seed: int) -> None:
        self._base = base_key(stream, trial_seed)

    def u(self, id_: int) -> float:
        """Uniform in [0, 1) for ``id_``; equals ``uniforms(...)[id_]``."""
        h = splitmix64_py((self._base + id_) & _MASK)
        return (h >> 11) * _INV_2_53
