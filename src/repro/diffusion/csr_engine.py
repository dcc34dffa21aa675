"""Compiled CSR frontier engine (S6) — the CyNetDiff-kernel analog.

Implements the paper's Observation 1: newly activated nodes can only come
from out-neighbors of the previous frontier, so each round scans the CSR
slices of the frontier and touches work proportional to the edges incident
to active nodes, not to |V| or |E|. As in CyNetDiff, the kernel is one
compiled scalar loop over CSR: ``_kernel.c``, loaded with :mod:`ctypes`.

The library is built on first import with the interpreter's C compiler
(``$CC``, else ``sysconfig``'s ``CC``) into ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``), under a name keyed by the sha256 of the
source, compiler and flags. Each build writes a private temporary file and
publishes it with ``os.replace``, so concurrent importers (for example
Spark workers) never load a half-written library. ``KERNEL`` reports the
kernel in use: ``"c"``, or ``"numpy"`` when the library cannot be built or
loaded; only then a vectorized NumPy kernel flips the same coins instead,
and one ``RuntimeWarning`` gives the reason.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.diffusion.common import (
    DiffusionResult,
    validate_model,
    validate_seeds,
    validate_weights,
)
from repro.diffusion.rng import (
    STREAM_IC_COIN,
    STREAM_LT_THRESHOLD,
    trial_bases,
    uniforms,
    uniforms_mixed,
)
from repro.graphs.csr import CSRGraph

_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ("-O2", "-fPIC", "-shared")
_FALLBACK_CHUNK = 64  # trials per batched BFS in the NumPy fallback


def _compiler() -> list[str]:
    """The C compiler command: ``$CC``, else the one Python was built with."""
    return shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")


def _build_kernel() -> Path:
    """Path of the compiled kernel, compiling it into the cache if missing."""
    cc = _compiler()
    key = hashlib.sha256(
        _SOURCE.read_bytes() + "\0".join([*cc, *_CFLAGS]).encode()
    ).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro"
    lib = cache / f"kernel-{key}.so"
    if lib.exists():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            [*cc, *_CFLAGS, "-o", tmp, str(_SOURCE)],
            check=True, capture_output=True, text=True,
        )
        os.replace(tmp, lib)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return lib


def _load_kernel() -> ctypes.CDLL | None:
    """The compiled kernel, or ``None`` (with a RuntimeWarning) if unavailable."""
    try:
        lib = ctypes.CDLL(str(_build_kernel()))
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        reason = (getattr(exc, "stderr", None) or str(exc)).strip()
        warnings.warn(
            f"compiled CSR kernel unavailable ({reason}); using the NumPy fallback",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    common = [p, p, p, p, i64, p, i64, ctypes.c_uint64, p, p, p]
    lib.ic_many.argtypes = common
    lib.lt_many.argtypes = common + [p, p, p]
    lib.ic_many.restype = lib.lt_many.restype = i64
    return lib


_LIB = _load_kernel()
KERNEL = "numpy" if _LIB is None else "c"


def _trial_keys(trial_seeds) -> np.ndarray:
    """Trial seeds as contiguous uint64, masked to 64 bits as ``base_key`` does."""
    if isinstance(trial_seeds, np.ndarray):
        if trial_seeds.dtype.kind in "iu":
            return np.ascontiguousarray(trial_seeds.ravel().astype(np.uint64, copy=False))
        trial_seeds = trial_seeds.ravel().tolist()
    # Python ints one by one: a list mixing negative and >= 2**63 seeds
    # would otherwise be converted through float64.
    return np.array([int(t) & ((1 << 64) - 1) for t in trial_seeds], np.uint64)


def _gather_out_edges(csr: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """Edge ids of all out-edges of ``frontier``, as one flat int64 array.

    Vectorized ragged gather: for frontier nodes with CSR ranges
    [s_i, e_i), produce the concatenation of arange(s_i, e_i) without a
    Python-level loop.
    """
    starts = csr.indptr[frontier]
    counts = csr.indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64)
    # position within the concatenated output, minus the cumulative offset
    # of each node's block, plus that node's CSR start.
    offsets = np.zeros(len(counts), np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts) + np.repeat(starts, counts)


class CSREngine:
    """IC/LT simulator over CSR with a compiled frontier kernel.

    Construction (graph + weights capture and validation) is the analog of
    CyNetDiff's model-class instantiation and is excluded from per-trial
    timings, as in the paper's benchmarks.
    """

    kind = "csr"

    def __init__(self, csr: CSRGraph, weights: np.ndarray, *, model: str = "ic") -> None:
        self.csr = csr
        self.weights = validate_weights(csr.m, weights)
        self.model = validate_model(model)
        # The compiled kernel indexes memory with these arrays unchecked.
        ptr = self._indptr = np.ascontiguousarray(csr.indptr, np.int64)
        dst = self._indices = np.ascontiguousarray(csr.indices, np.int64)
        if (
            ptr.shape != (csr.n + 1,) or ptr[0] != 0 or ptr[-1] != dst.size
            or (np.diff(ptr) < 0).any()
            or (dst.size and (dst.min() < 0 or dst.max() >= csr.n))
        ):
            raise ValueError("malformed CSR graph: indptr or indices out of range")

    def run(self, seeds, trial_seed: int) -> DiffusionResult:
        """Run one trial; deterministic in ``trial_seed``."""
        seeds = validate_seeds(self.csr.n, seeds)
        keys = _trial_keys([trial_seed])
        if _LIB is not None:
            act, t = self._kernel(seeds, keys, np.empty(1, np.int64))
        elif self.model == "lt":
            return self._run_lt(seeds, int(keys[0]))
        else:
            acts, t = self._run_ic_batch(seeds, keys)
            act = acts[0]
        return DiffusionResult(activation_time=act, num_iterations=t)

    def run_many(self, seeds, trial_seeds) -> np.ndarray:
        """Activated-node counts for many trials, one per ``trial_seeds``.

        The whole block runs in one kernel call. Coins are the per-trial
        counter streams, so every trial's count is bit-identical to
        ``run(seeds, trial_seeds[k]).num_active`` (asserted in tests).
        """
        seeds = validate_seeds(self.csr.n, seeds)
        keys = _trial_keys(trial_seeds)
        counts = np.empty(keys.size, np.int64)
        if keys.size == 0:
            return counts
        if _LIB is not None:
            self._kernel(seeds, keys, counts)
        elif self.model == "lt":
            counts[:] = [self._run_lt(seeds, int(k)).num_active for k in keys.tolist()]
        else:
            for lo in range(0, keys.size, _FALLBACK_CHUNK):
                act, _ = self._run_ic_batch(seeds, keys[lo : lo + _FALLBACK_CHUNK])
                counts[lo : lo + len(act)] = (act >= 0).sum(axis=1)
        return counts

    def _kernel(self, seeds, keys, counts) -> tuple[np.ndarray, int]:
        """One compiled call over ``keys``, filling ``counts``.

        Returns the last trial's ``(n,)`` int32 activation times and its
        number of iterations.
        """
        n = self.csr.n
        act = np.full(n, -1, np.int32)
        queue = np.empty(n, np.int64)
        args = [
            self._indptr.ctypes.data, self._indices.ctypes.data, self.weights.ctypes.data,
            seeds.ctypes.data, seeds.size, keys.ctypes.data, keys.size,
        ]
        state = [act.ctypes.data, queue.ctypes.data, counts.ctypes.data]
        if self.model == "ic":
            return act, _LIB.ic_many(*args, STREAM_IC_COIN, *state)
        acc = np.zeros(n, np.float64)
        lists = np.empty(2 * n, np.int64)  # touched nodes, this round's candidates
        return act, _LIB.lt_many(
            *args, STREAM_LT_THRESHOLD, *state,
            acc.ctypes.data, lists.ctypes.data, lists[n:].ctypes.data,
        )

    def _run_ic_batch(self, seeds: np.ndarray, chunk) -> tuple[np.ndarray, int]:
        """NumPy fallback: one IC BFS over (trial, node) pairs for a trial chunk.

        Returns the ``(len(chunk), n)`` int32 activation times and the
        last iteration that activated a node in any trial.
        """
        csr, w = self.csr, self.weights
        n = csr.n
        T = len(chunk)
        bases = trial_bases(STREAM_IC_COIN, chunk)
        # Flat activation state: cell trial*n + node >= 0 iff activated.
        act = np.full(T * n, -1, np.int32)
        f_trial = np.repeat(np.arange(T, dtype=np.int64), len(seeds))
        f_node = np.tile(seeds, T)
        act[f_trial * n + f_node] = 0
        t = 0
        while f_node.size:
            eids = _gather_out_edges(csr, f_node)
            if eids.size == 0:
                break
            pair_trial = np.repeat(f_trial, csr.indptr[f_node + 1] - csr.indptr[f_node])
            succ = uniforms_mixed(bases[pair_trial], eids) < w[eids]
            tgt_flat = pair_trial[succ] * n + csr.indices[eids[succ]]
            tgt_flat = tgt_flat[act[tgt_flat] < 0]
            if tgt_flat.size == 0:
                break
            newly = np.unique(tgt_flat)
            t += 1
            act[newly] = t
            f_trial = newly // n
            f_node = newly % n
        return act.reshape(T, n), t

    def _run_lt(self, seeds: np.ndarray, trial_seed: int) -> DiffusionResult:
        """NumPy fallback: one LT trial."""
        csr, w = self.csr, self.weights
        act_time = np.full(csr.n, -1, np.int32)
        act_time[seeds] = 0
        # Push-based LT: when u activates we push w(u->v) into acc[v] once
        # (each source activates at most once), then compare against the
        # node's threshold. Thresholds are coin-stream uniforms keyed by
        # node id, so every engine draws the same theta_v.
        acc = np.zeros(csr.n, np.float64)
        frontier, t = seeds, 0
        while frontier.size:
            eids = _gather_out_edges(csr, frontier)
            if eids.size == 0:
                break
            targets_all = csr.indices[eids]
            live = act_time[targets_all] < 0
            eids, targets_all = eids[live], targets_all[live]
            np.add.at(acc, targets_all, w[eids])
            cand = np.unique(targets_all)
            if cand.size == 0:
                break
            theta = uniforms(STREAM_LT_THRESHOLD, trial_seed, cand)
            newly = cand[acc[cand] >= theta]
            if newly.size == 0:
                break
            t += 1
            act_time[newly] = t
            frontier = newly
        return DiffusionResult(activation_time=act_time, num_iterations=t)
