"""Benchmark command for the repository: run from the root of a checkout.

    python3 perfbench/run.py --workload mc_table1 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

Workloads (see ``BENCHMARK.json`` and ``perfbench/layers.py``):

* ``mc_table1``   — ``CSREngine.run_many`` over the Table 1 cells, IC and LT;
* ``celf_table2`` — local CELF on three Table 2 random-regular graphs, TV and WC;
* ``spark_mc``    — Spark fan-out, Spark-backed CELF, heatmap and timeseries.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, every per-layer metric with ``--trace 1``. The lines above
it give each metric with its unit and sample count, the fail ratio, the
drift across passes and the provenance. Full reports (and, traced, the
spans) go to ``.perfbench_out/``. The program is imported from ``src/``
of the same checkout; without it the command fails without a result.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("mc_table1", "celf_table2", "spark_mc")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, then one summary table."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<12} {'metric':<24} {'value':>14} unit")
    for name, res in results.items():
        for k, m in res["metrics"].items():
            print(f"{name:<12} {k:<24} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<12} {'fail_ratio':<24} {res['failed'] / res['attempted']:>14.6g} ratio")
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_out"
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.runner import format_report, run

    report = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, scratch)
    out = scratch / f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str))
    print("\n".join(format_report(args.workload, report)))
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
