"""Diffusion engines (S5-S9 and S11 in DESIGN.md).

Four engine families share one deterministic counter-based coin stream
(:mod:`repro.diffusion.rng`), so for a given ``(graph, weights, seeds,
trial_seed)`` they produce *identical* activated sets:

* :mod:`repro.diffusion.csr_engine` — compiled C frontier BFS over CSR
  (loaded with ctypes; the pure-Python loop runs when no C compiler is
  available); the analog of CyNetDiff's Cython kernel.
* :mod:`repro.diffusion.pure_python` — frontier BFS in interpreted Python
  (the paper's hand-written baseline).
* :mod:`repro.diffusion.ndlib_like` — NDlib-style full node scan per time
  step over dict-of-dicts adjacency (the paper's slow baseline).
* :mod:`repro.diffusion.spark_engine` — Spark-parallel fan-out of
  Monte-Carlo trials and CELF candidates.

Every engine offers ``run(seeds, trial_seed)``, ``run_many(seeds,
trial_seeds)``, ``spread(seeds, trial_seeds)`` and ``gains(base,
candidates, trial_seeds)``; the local ones share the
:class:`~repro.diffusion.common.Engine` base, which validates the weights
and model and supplies ``spread`` and ``gains``. Its ``run`` and
``run_many`` check the seeds and trial seeds once per call and loop the
engine's ``_run``, which each interpreted engine implements once for both
models; the CSR engine overrides both with its compiled kernel.
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
