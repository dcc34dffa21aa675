"""PySpark reproduction of CyNetDiff (Robson, Reddy, Umrawal; VLDB 2024).

Subpackages (see DESIGN.md for the full map):

* ``repro.graphs`` — generators, CSR storage, edge-weight models.
* ``repro.diffusion`` — IC/LT engines (compiled C over CSR, pure Python,
  NDlib-like, Spark fan-out) over one shared deterministic coin stream,
  plus exact oracles.
* ``repro.im`` — spread estimation, greedy, CELF.
* ``repro.analysis`` — heatmap / activation-curve analytics (demo data).
* ``repro.bench`` — ``simple_benchmark`` and the Table 1/2 drivers.
"""
