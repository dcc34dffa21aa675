"""Tests for CSREngine's compiled kernel, its NumPy fallback and its loader."""
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.diffusion import CSREngine, PurePythonEngine, csr_engine
from repro.graphs.csr import CSRGraph, build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights, normalize_for_lt
from repro.im.spread import trial_seed_block

from tests.helpers import from_edges, star

REPO = Path(__file__).resolve().parents[1]
HAVE_CC = shutil.which(csr_engine._compiler()[0]) is not None
SEEDS = [0, 7, 23]
BLOCK = trial_seed_block(21, 160)  # longer than two fallback chunks


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
    """A missing compiler selects the NumPy kernel, which gives the same bits."""
    out = tmp_path / "fallback.npz"
    subprocess.run(
        [sys.executable, "-c", _FALLBACK_CHILD, str(out)],
        env=_child_env(tmp_path / "cache", CC="/nonexistent/cc"),
        check=True, cwd=tmp_path, timeout=300,
    )
    got = np.load(out, allow_pickle=True)
    assert str(got["kernel"]) == "numpy"
    (msg,) = got["warnings"].tolist()
    assert "/nonexistent/cc" in msg and "NumPy fallback" in msg
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


class TestInputValidation:
    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5, np.inf])
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_rejected(self, bad, model):
        csr = star(4)
        w = np.full(csr.m, 0.5)
        w[2] = bad
        with pytest.raises(ValueError, match="edge 2"):
            CSREngine(csr, w, model=model)

    @pytest.mark.parametrize(
        "indptr, indices",
        [([0, 1, 2], [1, 2]), ([0, 2, 1], [1, 0]), ([0, 1, 3], [1, 0]), ([0, 1], [0])],
    )
    def test_malformed_csr_rejected(self, indptr, indices):
        csr = CSRGraph(n=2, indptr=np.array(indptr), indices=np.array(indices))
        with pytest.raises(ValueError, match="malformed CSR"):
            CSREngine(csr, np.full(len(indices), 0.5))

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
