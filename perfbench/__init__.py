"""The repository's benchmark: closed-loop workloads, correctness gates and tracing.

Entry point: ``python3 perfbench/run.py --help``.
"""
