"""Shared engine types: result record, seed validation, model names."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODEL_NAMES = ("ic", "lt")


@dataclass(frozen=True)
class DiffusionResult:
    """Outcome of one diffusion trial.

    Attributes:
        activation_time: ``(n,)`` int32; iteration at which each node
            activated (seeds are 0), or -1 if never activated.
        num_iterations: last iteration index that activated any node
            (0 when only the seeds activate).
    """

    activation_time: np.ndarray
    num_iterations: int

    @property
    def active_nodes(self) -> np.ndarray:
        """Sorted ids of all activated nodes (seeds included)."""
        return np.nonzero(self.activation_time >= 0)[0]

    @property
    def num_active(self) -> int:
        """Total number of activated nodes (seeds included)."""
        return int((self.activation_time >= 0).sum())

    def frontier_sizes(self) -> np.ndarray:
        """Nodes newly activated at each iteration 0..num_iterations."""
        t = self.activation_time
        return np.bincount(t[t >= 0], minlength=self.num_iterations + 1).astype(np.int64)

    def cumulative_active(self) -> np.ndarray:
        """Total active nodes after each iteration 0..num_iterations."""
        return np.cumsum(self.frontier_sizes())


def validate_seeds(n: int, seeds) -> np.ndarray:
    """Normalize a seed set: int64, deduplicated, sorted, range-checked."""
    s = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if s.size == 0:
        raise ValueError("seed set must be non-empty")
    if s[0] < 0 or s[-1] >= n:
        raise ValueError(f"seed out of range [0, {n})")
    return s


def validate_weights(m: int, weights) -> np.ndarray:
    """Edge weights as a contiguous float64 ``(m,)`` array of probabilities.

    NaN, negative or >1 weights raise ``ValueError``: compiled comparisons
    against NaN are always false, so they would silently never fire.
    """
    w = np.ascontiguousarray(weights, np.float64)
    if w.shape != (m,):
        raise ValueError(f"weights must be ({m},), got {w.shape}")
    bad = ~((w >= 0.0) & (w <= 1.0))
    if bad.any():
        e = int(np.argmax(bad))
        raise ValueError(f"edge weights must lie in [0, 1]; edge {e} has weight {w[e]}")
    return w


def validate_model(model: str) -> str:
    """Check the model name is 'ic' or 'lt'."""
    if model not in MODEL_NAMES:
        raise ValueError(f"model must be one of {MODEL_NAMES}, got {model!r}")
    return model
