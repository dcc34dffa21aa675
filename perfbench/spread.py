"""Run-to-run spread of the end-to-end metrics, as the acceptance check computes it.

    python3 perfbench/spread.py --workload spark_mc --seeds 1-10 --seconds 15

Runs ``perfbench/run.py`` once per seed (one process each, one after the
other) and prints, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median
next to the metric's bound from ``BENCHMARK.json``. A benchmark is steady
when every spread except ``setup_s``'s is below a third of its bound.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: m["value"] for k, m in res["metrics"].items()}
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for k, vs in values.items():
        q1, q2, q3 = quantiles(vs, n=4)
        spread = (q3 - q1) / median(vs)
        print(f"{args.workload} {k}: median {median(vs):.4g} q1 {q1:.4g} q3 {q3:.4g} "
              f"spread {spread:.3f} bound {bounds.get(k)} "
              f"(steady below {bounds.get(k, 0) / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
