"""Diffusion engines (S5-S11 in DESIGN.md).

Four engine families share one deterministic counter-based coin stream
(:mod:`repro.diffusion.rng`), so for a given ``(graph, weights, seeds,
trial_seed)`` they produce *identical* activated sets:

* :mod:`repro.diffusion.csr_engine` — compiled C frontier BFS over CSR
  (loaded with ctypes, NumPy fallback); the analog of CyNetDiff's Cython
  kernel.
* :mod:`repro.diffusion.pure_python` — frontier BFS in interpreted Python
  (the paper's hand-written baseline).
* :mod:`repro.diffusion.ndlib_like` — NDlib-style full node scan per time
  step over dict-of-dicts adjacency (the paper's slow baseline).
* :mod:`repro.diffusion.spark_engine` — Spark-parallel Monte-Carlo trial
  fan-out plus a DataFrame-native frontier engine.

:mod:`repro.diffusion.exact` provides brute-force ground-truth influence
for statistical tests.
"""
from repro.diffusion.common import DiffusionResult, MODEL_NAMES
from repro.diffusion.csr_engine import CSREngine
from repro.diffusion.ndlib_like import NDlibLikeEngine
from repro.diffusion.pure_python import PurePythonEngine

ENGINE_KINDS = ("csr", "pure_python", "ndlib_like")


def make_engine(kind: str, csr, weights, model: str = "ic"):
    """Construct a local (non-Spark) engine by name.

    ``kind`` is one of ``ENGINE_KINDS``; ``model`` is ``"ic"`` or ``"lt"``.
    """
    cls = {
        "csr": CSREngine,
        "pure_python": PurePythonEngine,
        "ndlib_like": NDlibLikeEngine,
    }[kind]
    return cls(csr, weights, model=model)


__all__ = [
    "DiffusionResult",
    "MODEL_NAMES",
    "CSREngine",
    "PurePythonEngine",
    "NDlibLikeEngine",
    "ENGINE_KINDS",
    "make_engine",
]
