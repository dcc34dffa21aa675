"""Correctness checks run on every operation's output, outside the timed region.

Each check raises :class:`CheckFailed` with a one-line reason; the runner
counts that operation as failed, exactly as it counts an exception raised
by the operation itself.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import pandas as pd


class CheckFailed(AssertionError):
    """An operation's output disagrees with its reference."""


def check_sampled_counts(
    counts: np.ndarray, n_trials: int, reference: Mapping[int, int]
) -> None:
    """``counts`` has one entry per trial and equals ``reference`` at every sampled index."""
    counts = np.asarray(counts)
    if counts.shape != (n_trials,):
        raise CheckFailed(f"expected {n_trials} counts, got shape {counts.shape}")
    for i, want in reference.items():
        if int(counts[i]) != want:
            raise CheckFailed(f"trial #{i}: count {int(counts[i])} != reference {want}")


def check_celf(
    seeds: Sequence[int],
    sigma_final: float,
    *,
    k: int,
    n: int,
    sigma_reference: float,
    sigma_csr: float,
    expected_seeds: Sequence[int] | None = None,
) -> None:
    """A CELF result is k distinct in-range nodes whose sigma-hat matches the reference.

    ``sigma_csr`` (the CSR estimate of the returned set) must equal the
    pure-Python ``sigma_reference`` exactly; ``sigma_final`` is CELF's own
    running sum of gains, so it may differ from it by float rounding only.
    """
    if len(seeds) != k or len(set(seeds)) != k or not all(0 <= s < n for s in seeds):
        raise CheckFailed(f"bad seed set {list(seeds)}")
    if sigma_csr != sigma_reference:
        raise CheckFailed(f"sigma(S) {sigma_csr} != pure-Python {sigma_reference}")
    if abs(sigma_final - sigma_reference) > 1e-9 * max(1.0, sigma_reference):
        raise CheckFailed(f"CELF sigma-hat {sigma_final} != {sigma_reference}")
    if expected_seeds is not None and list(seeds) != list(expected_seeds):
        raise CheckFailed(f"seed set {list(seeds)} != first run's {list(expected_seeds)}")


def check_fanout(pdf: pd.DataFrame, reference: Mapping[int, int]) -> None:
    """Spark per-trial summary equals the local engine's count for every trial."""
    if sorted(pdf["trial"].tolist()) != sorted(reference):
        raise CheckFailed("fan-out returned a different set of trials")
    for trial, got in zip(pdf["trial"].tolist(), pdf["num_active"].tolist()):
        if int(got) != reference[int(trial)]:
            raise CheckFailed(f"trial {trial}: {got} != local {reference[int(trial)]}")


def check_gains(
    gains: Mapping[int, float], n_candidates: int, sampled: Mapping[int, float]
) -> None:
    """Every candidate has a gain; sampled gains equal the local sigma-hat exactly."""
    if len(gains) != n_candidates:
        raise CheckFailed(f"{len(gains)} gains for {n_candidates} candidates")
    for c, want in sampled.items():
        if gains.get(c) != want:
            raise CheckFailed(f"candidate {c}: gain {gains.get(c)} != local {want}")
