"""Compiled CSR frontier engine (S6) — the CyNetDiff-kernel analog.

Implements the paper's Observation 1: newly activated nodes can only come
from out-neighbors of the previous frontier, so each round scans the CSR
slices of the frontier and touches work proportional to the edges incident
to active nodes, not to |V| or |E|. As in CyNetDiff, the kernel is a
compiled scalar scan over CSR: ``_kernel.c``, loaded with :mod:`ctypes`.
It scans each node's out-edges in two phases, a branch-free gather of the
edges into inactive nodes and then the coins (IC) or weights (LT) of those
edges only, with the order and the results of a plain loop.

The library is built on first import with the interpreter's C compiler
(``$CC``, else ``sysconfig``'s ``CC``) into ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``), under a name keyed by the sha256 of the
source, compiler and flags. Each build writes a private temporary file and
publishes it with ``os.replace``, so concurrent importers (for example
Spark workers) never load a half-written library. ``KERNEL`` reports the
kernel in use: ``"c"``, or ``"python"`` when the library cannot be built
or loaded; only then ``run`` and ``run_many`` delegate to the bit-identical
``PurePythonEngine`` loop, and one ``RuntimeWarning`` gives the reason.

``run_many`` is one compiled call per block; ctypes releases the GIL for
it. The call starts one POSIX thread per CPU in the process's affinity
mask (``os.sched_getaffinity``) after the first, never more threads than
there are trials, and runs on the calling thread too. Each thread
allocates its own scratch in C and claims trials one at a time from a
counter local to the call until none is left, so a thread that draws slow
trials takes fewer of them; there are no fixed slices. Trials are
independent and their coins counter-based, so which thread runs a trial
changes no count. The call joins its threads before it returns, so no
thread outlives it and a process forked afterwards is safe. ``taskset``
or a cpuset lowers the thread count; there is no option for it. ``run``
and the interpreted loop stay on the calling thread, and so does
``gains`` under IC: CELF's first pass is one ``ic_gains`` call over
per-trial live-edge snapshots, and each chunk of a lazy round one
``ic_gains`` call that re-evaluates stale candidates in heap order and
stops, in C, where the best fresh gain wins; a chunk costs tens of
microseconds of C, far less than starting threads.
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
import threading
import warnings
from pathlib import Path

import numpy as np

from repro.diffusion.common import (
    DiffusionResult,
    Engine,
    checked_nodes,
    trial_keys,
    validate_csr,
    validate_nodes,
    validate_seeds,
)
from repro.diffusion.pure_python import PurePythonEngine
from repro.diffusion.rng import STREAM_IC_COIN, STREAM_LT_THRESHOLD
# Unused here, but perfbench/tracing.py patches these names on this module.
from repro.diffusion.rng import trial_bases, uniforms, uniforms_mixed  # noqa: F401
from repro.graphs.csr import CSRGraph

_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ("-O2", "-fPIC", "-shared")


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
            f"compiled CSR kernel unavailable ({reason}); using the interpreted loop",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    p, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    graph, trials = [p, p, p], [p, i64, ctypes.c_uint64]
    lib.run_many.argtypes = graph + [p, i64] + trials + [i64, i64, p, p, p, i64]
    # CSREngine binds ic_gains's arguments up to n once per base; then come
    # the stop inputs, the live-edge scratch, the candidates and their totals.
    lib.ic_gains.argtypes = (
        graph + trials + [p, i64, i64, p, p, i64] + [p, f64, i64, f64, i64] + [p, p] + [p, i64, p]
    )
    lib.run_many.restype = lib.ic_gains.restype = ctypes.c_int64
    return lib


_LIB = _load_kernel()
KERNEL = "python" if _LIB is None else "c"


def _threads(n_trials: int) -> int:
    """Threads for a block of ``n_trials``: one per usable CPU, at most one per trial.

    The CPUs are those the process may run on (its affinity mask, so
    ``taskset`` and cpusets lower the count), read on every call.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(n_trials, cpus or 1)


def _address(a: np.ndarray) -> ctypes.c_void_p:
    """Address of ``a``'s data; the caller keeps ``a`` alive while it is used."""
    return ctypes.c_void_p(a.ctypes.data)


class CSREngine(Engine):
    """IC/LT simulator over CSR with a compiled frontier kernel.

    Construction (graph + weights capture and validation) is the analog of
    CyNetDiff's model-class instantiation and is excluded from per-trial
    timings, as in the paper's benchmarks.
    """

    def __init__(self, csr: CSRGraph, weights: np.ndarray, *, model: str = "ic") -> None:
        super().__init__(csr, weights, model=model)
        ptr, dst = self._indptr, self._indices = validate_csr(csr)
        # Addresses of arrays ``self`` keeps alive, bound once: each
        # ``ndarray.ctypes`` lookup costs microseconds, and CELF calls
        # ``gains`` thousands of times. ctypes refuses to pickle them.
        self._graph = [_address(a) for a in (ptr, dst, self.weights)]
        # gains() scratch, used under a lock: activation times that every
        # call leaves all -1, a search queue, and the last base's reach.
        self._gains_lock = threading.Lock()
        self._seen, self._queue = np.full(csr.n, -1, np.int32), np.empty(csr.n, np.int64)
        self._last_reach = None
        # Out-degrees choose the gains call (see ``gains``).
        self._degree = np.diff(ptr)
        self._max_degree = int(self._degree.max()) if csr.n else 0
        if _LIB is None:  # run and run_many delegate to the interpreted loop
            self._interpreted = PurePythonEngine(csr, self.weights, model=model)

    def run(self, seeds, trial_seed: int) -> DiffusionResult:
        """Run one trial; deterministic in ``trial_seed``."""
        if _LIB is None:
            return self._interpreted.run(seeds, trial_seed)
        seeds = validate_seeds(self.csr.n, seeds)
        act = np.full(self.csr.n, -1, np.int32)
        self._kernel(seeds, trial_keys([trial_seed]), np.empty(1, np.int64), act=act)
        return DiffusionResult(act)

    def run_many(self, seeds, trial_seeds) -> np.ndarray:
        """Activated-node counts for many trials, one per ``trial_seeds``.

        One compiled call runs the block on ``_threads`` threads, the
        calling thread among them, started and joined within the call.
        Each thread has its own scratch and claims trials from one counter,
        writing each claimed trial's count, until the block is done. Coins
        are the per-trial counter streams, so every trial's count is
        bit-identical to ``run(seeds, trial_seeds[k]).num_active``
        whichever thread runs it (asserted in tests).
        """
        if _LIB is None:
            return self._interpreted.run_many(seeds, trial_seeds)
        seeds = validate_seeds(self.csr.n, seeds)
        keys = trial_keys(trial_seeds)
        counts = np.empty(keys.size, np.int64)
        if keys.size:
            self._kernel(seeds, keys, counts, threads=_threads(keys.size))
        return counts

    def _kernel(self, seeds, keys, counts, *, threads=1, act=None, reach=None) -> None:
        """One compiled ``run_many`` call over the block ``keys``, filling ``counts``.

        The call runs the block on ``threads`` threads, the calling thread
        among them; each allocates its own scratch. Optional outputs:
        ``act``, an ``(n,)`` int32 array of -1, is the calling thread's
        activation times, so with one thread it ends holding the last
        trial's; under IC, a ``(len(keys), n)`` uint8 ``reach`` of zeros
        gets row k marked with trial k's activated nodes. Raises
        ``MemoryError`` if no thread could allocate its scratch.
        """
        lt = self.model == "lt"
        done = _LIB.run_many(
            *self._graph, seeds.ctypes.data, seeds.size, keys.ctypes.data, keys.size,
            STREAM_LT_THRESHOLD if lt else STREAM_IC_COIN, lt, threads,
            None if act is None else act.ctypes.data, counts.ctypes.data,
            None if reach is None else reach.ctypes.data, self.csr.n,
        )
        if done < 0:
            raise MemoryError("run_many could not allocate its scratch")

    def gains(self, base, candidates, trial_seeds, *, stop=None) -> np.ndarray:
        """``spread(base + {c}, trial_seeds)`` for each candidate ``c``, in order.

        Under IC with the compiled kernel, all candidates and trials run in
        one compiled call. Each trial's live edges are fixed by its coins,
        so R_k(base + {c}) = R_k(base) + R_k(c): the reach R_k(base) is
        marked once per distinct base by a compiled ``run_many`` call
        (trials x n bytes; only the last base is kept), and each
        candidate's search stops where it enters it.

        The call is ``ic_gains``. It gets live-edge scratch, and so builds
        each trial's snapshot, when the candidates' out-degrees sum to at
        least the number of edges m. A snapshot hashes at most m coins per
        trial, once each, and its searches walk live edges only; without
        one, each search hashes the coin of every edge it scans, so the
        searches scan at least the candidates' out-edges per trial. CELF's
        first pass (every node a candidate) therefore takes the snapshots.

        ``stop``, a CELF lazy round's stop inputs (see ``lazy_prefix``),
        always takes the mode without snapshots: the call then stops at the
        candidate where the Python rule would, computing the same keys with
        the same IEEE operations, and only the evaluated prefix's values
        are returned. A lazy round is one such call per chunk of its stale
        heap entries.

        Both modes count the same integers as ``run_many``, so the result
        equals ``spread`` bit for bit (while each candidate's total over
        the trials stays below 2**53). LT, and both models when ``KERNEL``
        is ``"python"``, take the base-class loop over ``spread``: an
        incremental LT closure would add incoming weights in another order.
        """
        if self.model != "ic" or _LIB is None:
            return super().gains(base, candidates, trial_seeds, stop=stop)
        n, m = self.csr.n, self.csr.m
        cands = validate_nodes(n, candidates, "candidate")
        base = checked_nodes(n, base, "seed")
        keys = trial_keys(trial_seeds)
        snapshot = (
            stop is None and cands.size * self._max_degree >= m and self._degree[cands].sum() >= m
        )
        # NumPy divides by a float sooner than by an int, to the same value.
        return self._totals(base, cands, keys, snapshot, stop) / float(keys.size)

    def _totals(
        self, base, cands: np.ndarray, keys: np.ndarray, snapshot: bool, stop=None
    ) -> np.ndarray:
        """Sum over the trials ``keys`` of |R_k(base + {c})| for each evaluated ``c``.

        ``base`` and ``cands`` hold checked ids. The call is one ``ic_gains``,
        given live-edge scratch only if ``snapshot``; both modes give the
        same int64 totals. Without ``snapshot``, ``stop`` (as in
        ``lazy_prefix``) ends the call early, and the totals cover only the
        candidates it evaluated.
        """
        totals = np.empty(cands.size, np.int64)
        # ctypes arrays over the data: cheaper per call than ndarray.ctypes.
        args = (
            (ctypes.c_int64 * cands.size).from_buffer_copy(cands), cands.size,
            (ctypes.c_int64 * totals.size).from_buffer(totals),
        )
        if stop is None:
            stops = (None, 0.0, 0, 0.0, 0)
        else:
            stale, current, best = stop
            stale = np.ascontiguousarray(stale, np.float64)
            if stale.shape != cands.shape:
                raise ValueError(f"{stale.size} stale keys for {cands.size} candidates")
            best = (0, 0.0, 0) if best is None else (1, best[0], best[1])
            stops = ((ctypes.c_double * stale.size).from_buffer_copy(stale), current, *best)
        with self._gains_lock:
            bound = self._reach(base, keys)
            if snapshot:  # a live-edge CSR: n + 1 pointers, m targets
                live = np.empty(self.csr.n + 1, np.int64), np.empty(self.csr.m, np.int64)
                done = _LIB.ic_gains(*bound, *stops, *map(_address, live), *args)
            else:
                done = _LIB.ic_gains(*bound, *stops, None, None, *args)
        return totals[:done]

    def _reach(self, base, keys: np.ndarray) -> tuple:
        """``ic_gains``'s leading arguments for the checked ``base`` over ``keys``.

        They are the graph, the trials, the reach marks R_k(base), the
        search scratch and the node count, bound into one tuple. The marks
        are rebuilt, by the compiled ``run_many`` with a reach matrix, only
        when the set of ``base`` ids or the trial block differs from the
        last call's. Called under ``_gains_lock``.
        """
        tag = (tuple(sorted(set(base))), keys.tobytes())
        if self._last_reach is None or self._last_reach[0] != tag:
            n, keys = self.csr.n, keys.copy()  # the caller may change its array later
            seeds = np.array(tag[0], np.int64)
            reach = np.zeros((keys.size, n) if seeds.size else n, np.uint8)
            counts = np.zeros(keys.size, np.int64)
            if seeds.size:
                self._kernel(seeds, keys, counts, reach=reach)
            bound = (
                *self._graph, _address(keys), keys.size, STREAM_IC_COIN,
                _address(reach), n if seeds.size else 0, int(counts.sum()),
                _address(self._seen), _address(self._queue), n,
            )
            self._last_reach = (tag, keys, reach, bound)  # keeps the addressed arrays alive
        return self._last_reach[3]
