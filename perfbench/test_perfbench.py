"""Tests of the benchmark itself: its gates catch wrong results, its tracing adds up.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from perfbench import checks, runner
from perfbench.layers import METRICS
from perfbench.run import WORKLOADS
from perfbench.tracing import Tracer, instrument, self_times
from repro.diffusion import CSREngine
from repro.im.celf import CELFResult

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_json_matches_layer_map():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(runner.END_TO_END_UNITS)
    for m in bench["end_to_end"]:
        assert m["unit"] == runner.END_TO_END_UNITS[m["name"]]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in METRICS.values()
    ]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["celf", 0.0, 10.0, -1, {}],
        ["spread.sigma", 1.0, 5.0, 0, {}],
        ["kernel", 1.5, 4.5, 1, {}],
        ["rng", 2.0, 3.0, 2, {}],
    ]
    assert self_times(spans, 0, 4) == [6.0, 1.0, 2.0, 1.0]


def test_tracer_off_records_nothing_and_instrument_restores():
    original = CSREngine.__dict__["run_many"]
    tracer = Tracer(enabled=False)
    with tracer.span("x"):
        pass
    with instrument(tracer):
        assert CSREngine.__dict__["run_many"] is not original
    assert tracer.spans == [] and CSREngine.__dict__["run_many"] is original


def test_check_functions_reject_perturbed_outputs():
    with pytest.raises(checks.CheckFailed):
        checks.check_sampled_counts(np.array([5, 7, 9]), 3, {1: 8})
    with pytest.raises(checks.CheckFailed):
        checks.check_fanout(pd.DataFrame({"trial": [3, 4], "num_active": [10, 12]}), {3: 10, 4: 11})
    with pytest.raises(checks.CheckFailed):
        checks.check_gains({0: 1.0, 1: 2.5}, 2, {1: 2.0})
    good = dict(k=2, n=10, sigma_reference=4.0, sigma_csr=4.0)
    checks.check_celf([1, 2], 4.0, **good)
    with pytest.raises(checks.CheckFailed):
        checks.check_celf([1, 2], 4.5, **good)
    with pytest.raises(checks.CheckFailed):
        checks.check_celf([1, 1], 4.0, **good)


@pytest.fixture
def one_pass(monkeypatch, tmp_path):
    monkeypatch.setattr(runner, "MIN_PASSES", 1)
    monkeypatch.setattr(runner, "MIN_SETUPS", 1)
    monkeypatch.setattr(runner, "SETUP_BUDGET_S", 0.0)
    return lambda name, trace=False: runner.run(name, 1, 0.0, trace, ROOT, tmp_path)


def test_perturbed_count_is_a_failed_operation(monkeypatch, one_pass):
    real = CSREngine.run_many

    def off_by_one(self, seeds, trial_seeds, **kw):
        counts = real(self, seeds, trial_seeds, **kw)
        counts[0] += 1
        return counts

    monkeypatch.setattr(CSREngine, "run_many", off_by_one)
    result = one_pass("mc_table1")["result"]
    assert result["attempted"] == 12 and result["failed"] == 12
    assert result["correct"] is False


def test_perturbed_celf_sigma_is_a_failed_operation(monkeypatch, one_pass):
    import perfbench.local as local

    real = local.celf

    def inflated(*args, **kwargs):
        res = real(*args, **kwargs)
        return CELFResult(res.seeds, [*res.sigma_values[:-1], res.sigma_values[-1] + 0.5],
                          res.n_evals)

    monkeypatch.setattr(local, "celf", inflated)
    result = one_pass("celf_table2")["result"]
    assert result["failed"] == result["attempted"] > 0


def test_raising_operation_is_counted(monkeypatch, one_pass):
    monkeypatch.setattr(runner, "MIN_PASSES", 2)
    real = CSREngine.run_many
    calls = []

    def flaky(self, seeds, trial_seeds, **kw):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return real(self, seeds, trial_seeds, **kw)

    monkeypatch.setattr(CSREngine, "run_many", flaky)
    result = one_pass("mc_table1")["result"]
    assert (result["attempted"], result["failed"]) == (24, 1)


def test_traced_run_reports_every_per_layer_metric(monkeypatch, one_pass):
    monkeypatch.setattr(runner, "MIN_TRACED_PASSES", 3)
    report = one_pass("mc_table1", trace=True)
    metrics = report["result"]["metrics"]
    assert report["result"]["correct"]
    assert set(metrics) == set(METRICS)
    assert metrics["kernel.calls"]["value"] == 12
    assert metrics["kernel.trials"]["value"] == 1200
    assert 0 < metrics["rng.s"]["value"] < metrics["kernel.s"]["value"]
    assert metrics["kernel.coins"]["value"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
