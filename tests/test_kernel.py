"""Tests for CSREngine's compiled kernel, its interpreted fallback and its loader."""
import ctypes
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.diffusion import CSREngine, NDlibLikeEngine, PurePythonEngine, csr_engine
from repro.diffusion.common import validate_csr
from repro.graphs.csr import CSRGraph, build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights, normalize_for_lt
from repro.im.spread import trial_seed_block

from tests.helpers import from_edges, hub, star
from tests.test_engines_lt import GRAPHS as LT_GRAPHS, SEEDS as LT_SEEDS

REPO = Path(__file__).resolve().parents[1]
HAVE_CC = shutil.which(csr_engine._compiler()[0]) is not None
SEEDS = [0, 7, 23]
BLOCK = trial_seed_block(21, 160)


def _weighted_graph(model: str):
    csr = build_csr(erdos_renyi(120, 0.05, seed=5))
    if model == "ic":
        return csr, edge_weights(csr, "WC", seed=6)
    return csr, normalize_for_lt(csr, edge_weights(csr, "UR", seed=6))


def kernel_outputs(model: str) -> dict[str, np.ndarray]:
    """``run`` times and iterations, and ``run_many`` counts, over ``BLOCK``."""
    e = CSREngine(*_weighted_graph(model), model=model)
    runs = [e.run(SEEDS, int(t)) for t in BLOCK]
    return {
        "times": np.stack([r.activation_time for r in runs]),
        "iterations": np.array([r.num_iterations for r in runs]),
        "counts": e.run_many(SEEDS, BLOCK),
    }


def _child_env(cache: Path, **extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CC"}
    path = os.pathsep.join([str(REPO / "src"), str(REPO)])
    env.update(PYTHONPATH=path, XDG_CACHE_HOME=str(cache), PYTHONDONTWRITEBYTECODE="1", **extra)
    return env


_FALLBACK_CHILD = """
import sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.diffusion import csr_engine
import numpy as np
from tests.test_kernel import kernel_outputs
msgs = [str(w.message) for w in caught if w.category is RuntimeWarning]
np.savez(sys.argv[1], kernel=csr_engine.KERNEL, warnings=np.array(msgs, dtype=object),
         **{f"{m}_{k}": v for m in ("ic", "lt") for k, v in kernel_outputs(m).items()})
"""


def test_fallback_matches_compiled_and_pure_python(tmp_path):
    """A missing compiler selects the interpreted loop, which gives the same bits."""
    out = tmp_path / "fallback.npz"
    subprocess.run(
        [sys.executable, "-c", _FALLBACK_CHILD, str(out)],
        env=_child_env(tmp_path / "cache", CC="/nonexistent/cc"),
        check=True, cwd=tmp_path, timeout=300,
    )
    got = np.load(out, allow_pickle=True)
    assert str(got["kernel"]) == "python"
    (msg,) = got["warnings"].tolist()
    assert "/nonexistent/cc" in msg and "interpreted loop" in msg
    for model in ("ic", "lt"):
        ref = PurePythonEngine(*_weighted_graph(model), model=model)
        pure = [ref.run(SEEDS, int(t)) for t in BLOCK]
        compiled = kernel_outputs(model)
        expect = {
            "times": np.stack([r.activation_time for r in pure]),
            "iterations": np.array([r.num_iterations for r in pure]),
            "counts": np.array([r.num_active for r in pure]),
        }
        for key, want in expect.items():
            assert np.array_equal(got[f"{model}_{key}"], want), (model, key)
            if csr_engine.KERNEL == "c":
                assert np.array_equal(compiled[key], want), (model, key)


def test_compiled_kernel_in_use_when_compiler_present():
    """A silent fallback would make every run several times slower."""
    if not HAVE_CC:
        pytest.skip("no C compiler on PATH")
    assert csr_engine.KERNEL == "c"


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_kernel_compiles_without_warnings(tmp_path):
    cmd = [*csr_engine._compiler(), *csr_engine._CFLAGS, "-Wall", "-Wextra", "-Werror",
           "-o", str(tmp_path / "kernel.so"), str(csr_engine._SOURCE)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_kernel_has_no_dead_statics():
    """Each static function of ``_kernel.c`` is used outside its definition.

    ``-Wall`` flags an unused static function only when it is not inline,
    so the compile above misses a dead ``static inline`` search.
    """
    code = re.sub(r"/\*.*?\*/", "", csr_engine._SOURCE.read_text(), flags=re.S)
    statics = re.findall(r"^static\b[^(]*?\b(\w+)\(", code, re.M)
    assert {"ic_search", "lt_search"} <= set(statics), statics
    for name in statics:
        assert len(re.findall(rf"\b{name}\b", code)) > 1, f"{name} is never used"


_BUILD_CHILD = """
import json, sys, time
time.sleep(max(0.0, float(sys.argv[1]) - time.time()))
import repro.diffusion
from repro.diffusion import csr_engine
from tests.test_kernel import kernel_outputs
print(json.dumps([csr_engine.KERNEL, kernel_outputs("ic")["counts"].tolist()]))
"""


def _tree(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if ".git" not in p.relative_to(root).parts}


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_concurrent_first_builds_agree(tmp_path):
    """Four importers racing on an empty cache all load a whole library."""
    cache = tmp_path / "cache"
    before = _tree(REPO)
    start = str(time.time() + 1.0)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _BUILD_CHILD, start],
            env=_child_env(cache), cwd=tmp_path, stdout=subprocess.PIPE, text=True,
        )
        for _ in range(4)
    ]
    reports = [json.loads(p.communicate(timeout=300)[0]) for p in procs]
    assert all(p.returncode == 0 for p in procs)
    assert [kernel for kernel, _ in reports] == ["c"] * 4
    assert all(counts == reports[0][1] for _, counts in reports)
    (lib,) = (cache / "repro").iterdir()  # one library, no temporary files left
    assert lib.name.startswith("kernel-") and lib.suffix == ".so"
    assert _tree(REPO) == before


_SANITIZED_CHILD = """
import json, threading
from repro.diffusion import csr_engine
from tests.test_kernel import sanitized_counts
got = {}
callers = [threading.Thread(target=lambda i=i: got.update({i: sanitized_counts()}))
           for i in range(3)]
for t in callers:
    t.start()
for t in callers:
    t.join()
print(json.dumps([csr_engine.KERNEL, [got[i] for i in range(3)]]))
"""


def sanitized_counts() -> dict[str, list]:
    """IC and LT ``run_many`` counts on the LT tests' ``er300`` input, whose
    LT frontiers take both branches of the kernel's sort, and on ``hub()``
    seeded at the hub alone, whose first scan gathers every edge of two full
    256-edge chunks and then a partial one; and IC gains on ``hub()``, whose
    searches skip the base's targets of the hub, once in full and once
    stopped after two of three candidates."""
    block, h = trial_seed_block(22, 64), hub()
    got = {}
    for name, csr, seeds in (("er300", LT_GRAPHS["er300"], LT_SEEDS["er300"]), ("hub", h, [0])):
        w = edge_weights(csr, "WC", seed=4)
        for m in ("ic", "lt"):
            got[f"{name}/{m}"] = CSREngine(csr, w, model=m).run_many(seeds, block).tolist()
    e = CSREngine(h, edge_weights(h, "WC"))
    got["hub/gains"] = e.gains([7, 9, 20], [0, 5], block).tolist()
    stop = ([-1e9, -1e9, 1e9], 3.0, None)  # the third stale key loses to either fresh one
    got["hub/stopped"] = e.gains([7, 9, 20], [0, 5, 3], block, stop=stop).tolist()
    return got


def _links_ubsan(cc: list[str], tmp_path: Path) -> bool:
    src = tmp_path / "probe.c"
    src.write_text("int probe(int x) { return x + 1; }\n")
    done = subprocess.run(
        [*cc, "-fsanitize=undefined", *csr_engine._CFLAGS, "-o", str(tmp_path / "probe.so"),
         str(src)], capture_output=True,
    )
    return done.returncode == 0


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_ubsan_kernel_matches(tmp_path):
    """A kernel built with UBSan, aborting on the first report, gives the same counts.

    Three Python threads each run an IC and an LT block, each block on
    several kernel threads that claim trials from one counter.
    """
    cc = csr_engine._compiler()
    if not _links_ubsan(cc, tmp_path):
        pytest.skip("the C compiler cannot link -fsanitize=undefined")
    sanitized = shlex.join([*cc, "-fsanitize=undefined", "-fno-sanitize-recover=all"])
    cache = tmp_path / "cache"
    done = subprocess.run(
        [sys.executable, "-c", _SANITIZED_CHILD], env=_child_env(cache, CC=sanitized),
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    kernel, counts = json.loads(done.stdout)
    assert kernel == "c"
    assert len(list((cache / "repro").glob("kernel-*.so"))) == 1
    want = sanitized_counts()
    assert counts == [want] * 3
    assert want["hub/stopped"] == want["hub/gains"]


_FORK_CHILD = """
import os, signal, sys, threading, time
import numpy as np
from repro.diffusion import CSREngine
from tests.test_kernel import BLOCK, SEEDS, _weighted_graph
e = CSREngine(*_weighted_graph("ic"))
want = e.run_many(SEEDS, BLOCK)
# Concurrent threaded calls before the fork: threads kept between calls
# would be idle now, and missing from the child.
callers = [threading.Thread(target=e.run_many, args=(SEEDS, BLOCK)) for _ in range(4)]
for t in callers:
    t.start()
for t in callers:
    t.join()
pid = os.fork()
if pid == 0:
    os._exit(0 if np.array_equal(e.run_many(SEEDS, BLOCK), want) else 1)
deadline = time.monotonic() + 30
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, signal.SIGKILL)
os.waitpid(pid, 0)
sys.exit("the forked child was still in run_many after 30 s")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_forked_child_finishes_run_many(tmp_path):
    """No kernel thread outlives a call, so a child forked after one is not stuck."""
    done = subprocess.run(
        [sys.executable, "-c", _FORK_CHILD], env=_child_env(tmp_path / "cache"),
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


_THREADS_CHILD = """
import json, os, threading, time
from repro.diffusion import CSREngine
from repro.im.spread import trial_seed_block
from tests.test_kernel import SEEDS, _weighted_graph

def threads():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("Threads:"))

def settled(want):
    # A joined thread leaves the count only when the kernel reaps it, a
    # moment after the join returns; a thread kept alive never leaves it.
    deadline = time.monotonic() + 5
    while threads() != want and time.monotonic() < deadline:
        time.sleep(0.01)
    return threads()

engines = [CSREngine(*_weighted_graph(m), model=m) for m in ("ic", "lt")]
block = trial_seed_block(23, 3 * len(os.sched_getaffinity(0)) + 1)
before = threads()
readings = []
for e in engines:
    e.run_many(SEEDS, block)
    readings.append(settled(before))
callers = [threading.Thread(target=lambda: [e.run_many(SEEDS, block) for e in engines])
           for _ in range(4)]
for t in callers:
    t.start()
for t in callers:
    t.join()
readings.append(settled(before))
print(json.dumps([before, readings]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc thread count")
def test_no_thread_outlives_run_many(tmp_path):
    """The process's thread count after IC and LT blocks of 3 * cpus + 1 trials,
    and after four concurrent callers, equals the count before them."""
    done = subprocess.run(
        [sys.executable, "-c", _THREADS_CHILD], env=_child_env(tmp_path / "cache"),
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True,
    )
    before, readings = json.loads(done.stdout)
    assert readings == [before] * 3


_ONE_CPU_CHILD = """
import json, os, threading
from repro.diffusion import CSREngine, csr_engine
from tests.helpers import CountingLib
from tests.test_kernel import BLOCK, SEEDS, _weighted_graph
lib = csr_engine._LIB = CountingLib(csr_engine._LIB)
counts = {m: CSREngine(*_weighted_graph(m), model=m).run_many(SEEDS, BLOCK).tolist()
          for m in ("ic", "lt")}
print(json.dumps({
    "cpus": len(os.sched_getaffinity(0)),
    "calls": [[call.name, call.thread == threading.get_ident()] for call in lib.calls],
    "counts": counts,
}))
"""


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
@pytest.mark.skipif(shutil.which("taskset") is None, reason="no taskset on PATH")
def test_one_cpu_runs_each_block_in_one_call(tmp_path):
    """Under ``taskset`` to one CPU, each block is one call on the caller's thread."""
    cpu = str(min(os.sched_getaffinity(0)))
    done = subprocess.run(
        ["taskset", "-c", cpu, sys.executable, "-c", _ONE_CPU_CHILD],
        env=_child_env(tmp_path / "cache"), cwd=tmp_path,
        capture_output=True, text=True, timeout=300, check=True,
    )
    got = json.loads(done.stdout)
    assert got["cpus"] == 1
    assert got["calls"] == [["run_many", True], ["run_many", True]]
    for model in ("ic", "lt"):
        assert got["counts"][model] == kernel_outputs(model)["counts"].tolist(), model


@pytest.mark.skipif(csr_engine.KERNEL != "c", reason="compiled kernel unavailable")
def test_kernel_exports_match_ctypes_declarations():
    """Each export of ``_kernel.c`` is declared to ctypes and called, and nothing else is.

    Without argtypes, ctypes would pass Python ints as C ``int`` and
    truncate 64-bit arguments; without a restype matching the C return
    type, it would read a C ``int``. An export that ``csr_engine.py`` never
    calls through ``_LIB`` is dead code, and a name it calls that is not
    exported fails at run time.
    """
    source = csr_engine._SOURCE.read_text()
    found = re.findall(r"^(?!static\b)(\w+)[ \t*]+(\w+)\(", source, re.M)
    exports = {name: ret for ret, name in found}
    assert exports, "no exported function parsed"
    restypes = {"void": None, "int64_t": ctypes.c_int64}
    for name, ret in sorted(exports.items()):
        fn = getattr(csr_engine._LIB, name)
        assert fn.argtypes is not None, name
        assert fn.restype is restypes[ret], (name, ret, fn.restype)
    python = Path(csr_engine.__file__).read_text()
    called = set(re.findall(r"\b_LIB\.(\w+)\(", python))
    declared = set(re.findall(r"\blib\.(\w+)\.(?:argtypes|restype)", python))
    assert called == set(exports), (called, set(exports))
    assert declared == set(exports), (declared, set(exports))


class TestInputValidation:
    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5, np.inf])
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_rejected(self, bad, model):
        csr = star(4)
        w = np.full(csr.m, 0.5)
        w[2] = bad
        for engine in (CSREngine, PurePythonEngine, NDlibLikeEngine):
            with pytest.raises(ValueError, match="edge 2"):
                engine(csr, w, model=model)

    @pytest.mark.parametrize(
        "seeds", [[1.5], [True], np.array([0.0, 2.0])], ids=["float", "bool", "float-array"]
    )
    def test_non_integer_seeds_rejected(self, seeds):
        csr = star(4)
        for engine in (CSREngine, PurePythonEngine, NDlibLikeEngine):
            e = engine(csr, np.full(csr.m, 0.5))
            with pytest.raises(ValueError, match="seeds must be integers"):
                e.run(seeds, 1)
            with pytest.raises(ValueError, match="seeds must be integers"):
                e.run_many(seeds, [1, 2])

    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize(
        "seeds", [[5], [-1], [], [1.5], [True]],
        ids=["past-n", "negative", "empty", "float", "bool"],
    )
    def test_seeds_checked_before_an_empty_block(self, seeds, model):
        """The interpreted engines used to return ``[]`` without looking at the seeds."""
        csr = star(4)
        for engine in (CSREngine, PurePythonEngine, NDlibLikeEngine):
            e = engine(csr, np.full(csr.m, 0.5), model=model)
            with pytest.raises(ValueError, match="seed"):
                e.run_many(seeds, [])

    @pytest.mark.parametrize(
        "trials",
        [[1.5], [True], np.array([1.0, 2.0]), np.array([True]), [np.float64(2.0)], ["3"]],
        ids=["float", "bool", "float-array", "bool-array", "numpy-float", "str"],
    )
    def test_non_integer_trial_seeds_rejected(self, trials):
        """``int()`` would run another trial: 1.5 and True both become trial 1."""
        csr = star(4)
        for engine in (CSREngine, PurePythonEngine, NDlibLikeEngine):
            e = engine(csr, np.full(csr.m, 0.5))
            with pytest.raises(ValueError, match="trial seeds must be integers"):
                e.run([0], trials[0])
            with pytest.raises(ValueError, match="trial seeds must be integers"):
                e.run_many([0], [1, *trials])

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_bools_mixed_with_ints_rejected(self, model):
        """NumPy casts ``[True, 2]`` to ``[1, 2]``, so a bool would stand for node 1."""
        e = CSREngine(star(3), np.full(3, 0.5), model=model)
        with pytest.raises(ValueError, match="seeds must be integers"):
            e.run([True, 2], 1)
        with pytest.raises(ValueError, match="candidates must be integers"):
            e.gains([], [True, 2], [1])
        got = e.run([np.int64(1), 2], 1).activation_time
        assert np.array_equal(got, e.run([1, 2], 1).activation_time)
        want = e.gains([0], [1, 2], [1]).tolist()
        assert e.gains([np.int64(0)], [np.int64(1), 2], [1]).tolist() == want

    @pytest.mark.parametrize(
        "indptr, indices",
        [([0, 1, 2], [1, 2]), ([0, 2, 1], [1, 0]), ([0, 1, 3], [1, 0]), ([0, 1], [0])],
    )
    def test_malformed_csr_rejected(self, indptr, indices):
        csr = CSRGraph(n=2, indptr=np.array(indptr), indices=np.array(indices))
        with pytest.raises(ValueError, match="malformed CSR"):
            CSREngine(csr, np.full(len(indices), 0.5))

    def test_index_past_n_rejected_by_the_shared_check(self):
        """The check ``CSREngine`` and ``SparkTrialEngine`` share, before any kernel call."""
        csr = CSRGraph(n=3, indptr=np.array([0, 1, 2, 2]), indices=np.array([1, 9]))
        with pytest.raises(ValueError, match="malformed CSR"):
            validate_csr(csr)
        with pytest.raises(ValueError, match="malformed CSR"):
            CSREngine(csr, np.full(2, 0.5))

    def test_bounds_accepted(self):
        csr = star(4)
        e = CSREngine(csr, np.array([0.0, 1.0, 0.0, 1.0]))
        assert e.run([0], 1).num_active == 3


def _pure_counts(csr, w, model, seeds, block):
    ref = PurePythonEngine(csr, w, model=model)
    return np.array([ref.run(seeds, int(t)).num_active for t in block], np.int64)


@pytest.mark.parametrize("model", ["ic", "lt"])
class TestKernelEdgeCases:
    def test_edgeless_graph(self, model):
        e = CSREngine(from_edges(5, []), np.empty(0), model=model)
        assert (e.run_many([1, 3], BLOCK[:10]) == 2).all()
        r = e.run([1, 3], 4)
        assert r.num_iterations == 0
        assert r.activation_time.tolist() == [-1, 0, -1, 0, -1]

    def test_isolated_seeds(self, model):
        # nodes 4 and 5 have no edges at all
        csr = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0)])
        e = CSREngine(csr, np.ones(csr.m), model=model)
        assert (e.run_many([4, 5], BLOCK[:10]) == 2).all()
        assert (e.run_many([0, 5], BLOCK[:10]) == 5).all()

    def test_every_node_seeded(self, model):
        csr, w = _weighted_graph(model)
        e = CSREngine(csr, w, model=model)
        assert (e.run_many(range(csr.n), BLOCK[:10]) == csr.n).all()
        assert e.run(range(csr.n), 3).num_iterations == 0

    def test_duplicate_seeds(self, model):
        e = CSREngine(*_weighted_graph(model), model=model)
        assert np.array_equal(e.run_many([7, 0, 7, 0, 23], BLOCK), e.run_many(SEEDS, BLOCK))

    @pytest.mark.parametrize("block", [[], np.empty(0, np.int64)])
    def test_empty_trial_block(self, model, block):
        counts = CSREngine(*_weighted_graph(model), model=model).run_many(SEEDS, block)
        assert counts.dtype == np.int64 and counts.shape == (0,)

    def test_negative_trial_seeds(self, model):
        csr, w = _weighted_graph(model)
        e = CSREngine(csr, w, model=model)
        block = [-1, -2, -(2**63), -123456789]
        wrapped = [t & ((1 << 64) - 1) for t in block]
        assert np.array_equal(e.run_many(SEEDS, block), _pure_counts(csr, w, model, SEEDS, block))
        assert np.array_equal(e.run_many(SEEDS, block), e.run_many(SEEDS, wrapped))
        mixed = e.run_many(SEEDS, block + wrapped)
        assert np.array_equal(mixed, np.tile(e.run_many(SEEDS, np.array(block)), 2))
        for t in block:
            want = PurePythonEngine(csr, w, model=model).run(SEEDS, t).activation_time
            assert np.array_equal(e.run(SEEDS, t).activation_time, want)

    def test_zero_weight_edges(self, model):
        csr, w = _weighted_graph(model)
        w = w.copy()
        w[::3] = 0.0
        e = CSREngine(csr, w, model=model)
        assert np.array_equal(e.run_many(SEEDS, BLOCK), _pure_counts(csr, w, model, SEEDS, BLOCK))

    def test_interleaved_calls_share_no_state(self, model):
        e = CSREngine(*_weighted_graph(model), model=model)
        first = e.run_many(SEEDS, BLOCK)
        singles = [e.run(SEEDS, int(t)).num_active for t in BLOCK[:20]]
        other = e.run_many([1, 2], BLOCK)
        assert np.array_equal(e.run_many(SEEDS, BLOCK), first)
        assert singles == first[:20].tolist()
        assert np.array_equal(e.run_many([1, 2], BLOCK), other)
        for k, t in enumerate(BLOCK[:20].tolist()):
            assert e.run(SEEDS, t).num_active == first[k]
            assert e.run_many([1, 2], [t])[0] == other[k]
