"""Shared engine types: result record, input validation, the engine base class."""
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
    """

    activation_time: np.ndarray

    @property
    def num_iterations(self) -> int:
        """Last iteration index that activated any node (0 when only the seeds activate)."""
        return int(self.activation_time.max())

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


def _integer_list(ids, what: str) -> list:
    """``ids`` as a list whose elements are all ints or NumPy integers.

    Anything else, bools included, raises ``ValueError`` naming ``what``:
    NumPy would cast ``[True, 2]`` to ``[1, 2]``.
    """
    ids = list(ids)
    for x in ids:
        if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
            raise ValueError(f"{what}s must be integers, got {x!r}")
    return ids


def integer_ids(nodes, what: str = "node") -> np.ndarray:
    """Node ids as int64, in the given order.

    Float, bool and object ids raise ``ValueError``: casting them to int64
    would silently use other nodes (1.5 and True both become node 1).
    ``what`` names the ids in the error message.
    """
    s = np.asarray(nodes if isinstance(nodes, np.ndarray) else _integer_list(nodes, what)).ravel()
    if s.size and s.dtype.kind not in "iu":
        raise ValueError(f"{what}s must be integers, got dtype {s.dtype}")
    return s.astype(np.int64, copy=False)


def checked_nodes(n: int, nodes, what: str = "node") -> np.ndarray | list:
    """Node ids in ``[0, n)``: an int64 array for an ndarray, else a list.

    An ndarray goes through ``integer_ids``. Any other input is checked
    as the list ``_integer_list`` returns, with ``min`` and ``max``, so a
    short list costs no NumPy conversion; its elements are ints or NumPy
    integers. Either way, a non-integer or out-of-range id raises
    ``ValueError`` naming ``what``.
    """
    if isinstance(nodes, np.ndarray):
        ids = integer_ids(nodes, what)
        ends = np.sort(ids)[[0, -1]] if ids.size else ()  # cheaper than min() and max()
    else:
        ids = _integer_list(nodes, what)
        ends = (min(ids), max(ids)) if ids else ()
    if len(ends) and (ends[0] < 0 or ends[1] >= n):
        raise ValueError(f"{what} out of range [0, {n})")
    return ids


def validate_nodes(n: int, nodes, what: str = "node") -> np.ndarray:
    """``checked_nodes`` as an int64 array, in the given order."""
    return np.asarray(checked_nodes(n, nodes, what), np.int64)


def validate_seeds(n: int, seeds) -> np.ndarray:
    """Normalize a seed set: int64, deduplicated, sorted, range-checked."""
    s = validate_nodes(n, seeds, "seed")
    if s.size == 0:
        raise ValueError("seed set must be non-empty")
    return np.unique(s)


def trial_keys(trial_seeds) -> np.ndarray:
    """Trial seeds as contiguous uint64, masked to 64 bits as ``base_key`` does.

    Non-integer seeds raise ``ValueError``: 1.5 and True would both run trial 1.
    """
    if isinstance(trial_seeds, np.ndarray):
        if trial_seeds.dtype.kind in "iu":
            return np.ascontiguousarray(trial_seeds.ravel().astype(np.uint64, copy=False))
        trial_seeds = trial_seeds.ravel().tolist()
    # Python ints one by one: a list mixing negative and >= 2**63 seeds
    # would otherwise be converted through float64.
    mask = (1 << 64) - 1
    return np.array([int(t) & mask for t in _integer_list(trial_seeds, "trial seed")], np.uint64)


def validate_weights(m: int, weights) -> np.ndarray:
    """Edge weights as a contiguous float64 ``(m,)`` array of probabilities.

    NaN, negative or >1 weights raise ``ValueError``: compiled comparisons
    against NaN are always false, so they would silently never fire.

    LT in-sums above 1 are accepted: weighted-cascade weights 1/in-degree
    round to sums of 1 + a few ulps, and every LT engine activates a node
    once its active in-weight reaches its uniform threshold in [0, 1), so
    a larger sum acts as 1 and Kempe et al.'s live-edge equivalence holds.
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


def validate_csr(csr) -> tuple[np.ndarray, np.ndarray]:
    """``csr``'s indptr and indices as contiguous int64, checked for the kernel.

    The compiled kernel indexes memory with them unchecked, so an indptr
    that is not ``(n + 1,)``, does not run from 0 to the number of
    indices or decreases, or an index outside ``[0, n)``, raises
    ``ValueError``.
    """
    ptr = np.ascontiguousarray(csr.indptr, np.int64)
    dst = np.ascontiguousarray(csr.indices, np.int64)
    if (
        ptr.shape != (csr.n + 1,) or ptr[0] != 0 or ptr[-1] != dst.size
        or (np.diff(ptr) < 0).any()
        or (dst.size and (dst.min() < 0 or dst.max() >= csr.n))
    ):
        raise ValueError("malformed CSR graph: indptr or indices out of range")
    return ptr, dst


def lazy_prefix(values, candidates, stop) -> list:
    """The values of ``candidates`` that one chunk of a CELF lazy round evaluates.

    ``values`` yields each candidate's value in order and is read no
    further than needed. Without ``stop`` every value is read. ``stop`` is
    ``(stale, current, incumbent)``: each candidate's stale heap key (minus
    its last gain), the current sigma-hat, and the round's best fresh heap
    entry ``(key, id)`` so far, or ``None``. Before candidate ``c`` the
    prefix ends if the incumbent pops before ``(stale key, c)`` in heap
    order, that is, has a smaller key or an equal key and a smaller id;
    after it, ``(-(value - current), c)`` becomes the incumbent if it pops
    first. Values with a stop are returned as floats. This is the one
    Python copy of the rule that ``ic_gains`` runs in C.
    """
    if stop is None:
        return list(values)
    stale, current, best = stop
    if len(stale) != len(candidates):
        raise ValueError(f"{len(stale)} stale keys for {len(candidates)} candidates")
    values, out = iter(values), []
    best = None if best is None else (best[0], best[1])
    for c, key in zip(candidates, stale):
        if best is not None and best < (key, c):
            break
        val = float(next(values))
        out.append(val)
        entry = (-(val - current), c)
        if best is None or entry < best:
            best = entry
    return out


class Engine:
    """The engine contract: ``run``, ``run_many``, ``spread`` and ``gains``.

    The constructor validates and stores the graph, weights and model.
    ``run`` and ``run_many`` own the input checks: they validate the seeds
    and key the trial seeds once per call, then call ``_run(seeds, key)``
    per trial with a sorted list of distinct int seeds and an int key.
    Each interpreted engine implements ``_run`` once, for both models,
    returning the trial's activation times as a list. ``spread`` is the
    mean of ``run_many`` and ``gains`` loops ``spread`` over the
    candidates, stopping where ``lazy_prefix`` does, so a compiled engine
    overrides ``run`` and ``run_many`` and, where it can batch candidates,
    ``gains``.
    """

    def __init__(self, csr, weights, *, model: str = "ic") -> None:
        self.csr = csr
        self.weights = validate_weights(csr.m, weights)
        self.model = validate_model(model)

    def run(self, seeds, trial_seed: int) -> DiffusionResult:
        """Run one trial; deterministic in ``trial_seed``."""
        seeds = validate_seeds(self.csr.n, seeds).tolist()
        key = int(trial_keys([trial_seed])[0])
        return DiffusionResult(np.asarray(self._run(seeds, key), np.int32))

    def run_many(self, seeds, trial_seeds) -> np.ndarray:
        """Activated-node counts, one per trial seed."""
        seeds = validate_seeds(self.csr.n, seeds).tolist()
        n = self.csr.n
        return np.array(
            [n - self._run(seeds, k).count(-1) for k in trial_keys(trial_seeds).tolist()],
            np.int64,
        )

    def _run(self, seeds: list[int], key: int) -> list[int]:
        """One trial's activation times (-1 for never), per node id."""
        raise NotImplementedError

    def spread(self, seeds, trial_seeds) -> float:
        """Mean activated-node count over ``trial_seeds``."""
        return float(self.run_many(seeds, trial_seeds).mean())

    def gains(self, base, candidates, trial_seeds, *, stop=None) -> np.ndarray:
        """``spread(base + {c}, trial_seeds)`` for each candidate ``c``, in order.

        ``base`` may be empty; a candidate may lie in it. With ``stop``, a
        CELF lazy round's stop inputs, only the prefix of the candidates
        that ``lazy_prefix`` evaluates is spread and returned.
        """
        base = validate_nodes(self.csr.n, base, "seed").tolist()
        cands = validate_nodes(self.csr.n, candidates, "candidate").tolist()
        spreads = (self.spread([*base, c], trial_seeds) for c in cands)
        return np.array(lazy_prefix(spreads, cands, stop), np.float64)
