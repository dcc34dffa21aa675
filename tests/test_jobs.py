"""The ``jobs/`` entry points run as scripts (S15)."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
JOBS = ["heatmap", "table1", "table2", "timeseries"]


def _run_job(job: str, *args: str) -> subprocess.CompletedProcess:
    """``python jobs/<job>.py args`` from the repo root with ``PYTHONPATH=src``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "jobs" / f"{job}.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("job", JOBS)
def test_help_exits_zero(job):
    """argparse prints the usage and exits before any Spark session starts."""
    out = _run_job(job, "--help")
    assert out.returncode == 0, out.stderr
    assert "usage:" in out.stdout


def test_table2_local_backends_pick_the_same_seeds():
    out = _run_job("table2", "--n", "60", "--mc", "5", "--k", "2")
    assert out.returncode == 0, out.stderr
    # | EWM | backend | seconds (ours) | paper seconds | sigma-hat | evals | seeds |
    rows = [
        [c.strip() for c in line.strip("|").split("|")]
        for line in out.stdout.splitlines()
        if line.startswith(("| TV |", "| WC |"))
    ]
    picks = {(r[0], r[1]): (r[4], r[5], r[6]) for r in rows}
    assert sorted(picks) == [
        ("TV", "csr"), ("TV", "pure_python"), ("WC", "csr"), ("WC", "pure_python"),
    ]
    for ewm in ("TV", "WC"):
        assert picks[ewm, "csr"] == picks[ewm, "pure_python"]
