"""Benchmark-harness tests (S15): simple_benchmark and table drivers.

These run the real table code paths at tiny scale so the drivers behind
Table 1 / Table 2 are exercised (and cross-checked) on every test run.
"""
import ast
from pathlib import Path

import numpy as np
import pytest
from pyspark.broadcast import Broadcast

from repro.bench.harness import (
    BenchResult,
    normalize_ratios,
    pick_seed_nodes,
    simple_benchmark,
)
from repro.bench.table1 import (
    PAPER_TABLE1,
    Table1Row,
    format_table1,
    run_table1,
    table1_graphs,
)
from repro.bench.table2 import (
    PAPER_TABLE2,
    Table2Row,
    estimate_ndlib_celf_seconds,
    format_table2,
    run_table2,
    table2_graph,
)
from repro.diffusion import CSREngine
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights


@pytest.fixture(scope="module")
def small_csr():
    return build_csr(erdos_renyi(120, 0.05, seed=6))


class TestPickSeedNodes:
    def test_deterministic_sorted_unique(self):
        a = pick_seed_nodes(100, 10)
        b = pick_seed_nodes(100, 10)
        assert np.array_equal(a, b)
        assert len(np.unique(a)) == 10
        assert (np.diff(a) > 0).all()

    def test_range(self):
        s = pick_seed_nodes(50, 50)
        assert sorted(s.tolist()) == list(range(50))


class TestSimpleBenchmark:
    def test_engines_agree_and_report(self, small_csr):
        w = edge_weights(small_csr, "WC")
        results = simple_benchmark(
            small_csr, w, n_seed_nodes=5, trials=10, engines=("csr", "pure_python")
        )
        assert [r.name for r in results] == ["csr", "pure_python"]
        assert all(r.trials == 10 for r in results)
        assert all(r.seconds > 0 and r.its_per_sec > 0 for r in results)
        spreads = {r.mean_spread for r in results}
        assert len(spreads) == 1
        # A csr cell this small takes the full three runs inside the budget.
        assert results[0].runs == 3
        assert all(1 <= r.runs <= 3 for r in results)

    def test_every_run_is_checked(self, small_csr, monkeypatch):
        """A spread that changes between one engine's runs fails the check."""
        w = edge_weights(small_csr, "WC")
        real, calls = CSREngine.spread, []

        def drifting(self, seeds, trial_seeds):
            calls.append(1)
            return real(self, seeds, trial_seeds) + (len(calls) == 2)

        monkeypatch.setattr(CSREngine, "spread", drifting)
        with pytest.raises(AssertionError, match="disagree"):
            simple_benchmark(small_csr, w, n_seed_nodes=5, trials=10, engines=("csr",))

    def test_includes_ndlib(self, small_csr):
        w = edge_weights(small_csr, "TV")
        results = simple_benchmark(small_csr, w, n_seed_nodes=5, trials=5)
        assert [r.name for r in results] == ["csr", "pure_python", "ndlib_like"]
        assert all(1 <= r.runs <= 3 for r in results)

    def test_spark_engine_column(self, spark, small_csr):
        w = edge_weights(small_csr, "WC")
        results = simple_benchmark(
            small_csr, w, n_seed_nodes=5, trials=8, engines=("csr", "spark"), spark=spark
        )
        assert {r.name for r in results} == {"csr", "spark"}
        spreads = {r.mean_spread for r in results}
        assert len(spreads) == 1

    def test_spark_engine_released(self, spark, small_csr, monkeypatch):
        destroyed = []
        real = Broadcast.destroy

        def destroy(self, blocking=False):
            destroyed.append(self)
            real(self, blocking)

        monkeypatch.setattr(Broadcast, "destroy", destroy)
        w = edge_weights(small_csr, "WC")
        simple_benchmark(small_csr, w, n_seed_nodes=5, trials=4, engines=("spark",), spark=spark)
        assert len(destroyed) == 1

    def test_spark_without_session_rejected(self, small_csr):
        w = edge_weights(small_csr, "WC")
        with pytest.raises(ValueError):
            simple_benchmark(small_csr, w, engines=("spark",), trials=2)


class TestNormalizeRatios:
    def test_fastest_is_one(self):
        rows = [
            BenchResult("a", 1, 2.0, 0.5, 1.0),
            BenchResult("b", 1, 20.0, 0.05, 1.0),
        ]
        r = normalize_ratios(rows)
        assert r == {"a": 1, "b": 10}

    def test_minimum_ratio_is_one(self):
        rows = [
            BenchResult("a", 1, 1.0, 1.0, 1.0),
            BenchResult("b", 1, 1.01, 1.0, 1.0),
        ]
        assert normalize_ratios(rows) == {"a": 1, "b": 1}


class TestTable1Driver:
    def test_paper_reference_complete(self):
        assert len(PAPER_TABLE1) == 9
        for ratios in PAPER_TABLE1.values():
            assert ratios["csr"] == 1

    def test_graphs_match_paper_scale(self):
        gs = table1_graphs()
        assert set(gs) == {"Erdős-Rényi", "Watts-Strogatz", "Facebook"}
        assert gs["Erdős-Rényi"].n == 2000
        assert gs["Watts-Strogatz"].n == 2000
        assert gs["Facebook"].n == 4039

    def test_rows_at_tiny_scale(self, small_csr):
        rows = run_table1(
            trials=3,
            engines=("csr", "pure_python"),
            graphs={"tiny": small_csr},
        )
        assert len(rows) == 3  # one per EWM
        for row in rows:
            assert isinstance(row, Table1Row)
            assert set(row.ratios) == {"csr", "pure_python"}
            assert min(row.ratios.values()) == 1

    def test_format_is_markdown(self, small_csr):
        rows = run_table1(trials=2, engines=("csr",), graphs={"tiny": small_csr})
        text = format_table1(rows)
        assert text.startswith("| Graph | EWM |")
        assert "tiny" in text
        fast = Table1Row("tiny", "TV", [BenchResult("csr", 2, 0.00345, 580.0, 3.0)], {"csr": 1}, {})
        assert "| tiny | TV | 1 | - | 0.00345 |" in format_table1([fast])


class TestTable2Driver:
    def test_paper_reference(self):
        assert PAPER_TABLE2[("WC", "pure_python")] == 153.0
        assert PAPER_TABLE2[("TV", "csr")] == 2.0

    def test_graph_is_seven_regular(self):
        g = table2_graph(100, 7, seed=1)
        assert (g.out_degree() == 7).all()

    def test_rows_at_tiny_scale(self):
        rows = run_table2(backends=("csr",), n=60, k=2, mc=10)
        assert len(rows) == 2  # TV and WC
        for row in rows:
            assert row.backend == "csr"
            assert row.seconds > 0
            assert len(row.seeds) == 2
            assert row.sigma_value >= 2
            assert row.n_evals >= 60

    def test_backends_pick_same_seeds(self):
        rows = run_table2(backends=("csr", "pure_python"), n=60, k=2, mc=10)
        by_ewm = {}
        for r in rows:
            by_ewm.setdefault(r.ewm, []).append(r)
        for ewm, cells in by_ewm.items():
            seeds = {tuple(c.seeds) for c in cells}
            assert len(seeds) == 1, f"backends disagree on {ewm}"

    def test_spark_backend_matches_csr_and_releases_its_broadcasts(self, spark, monkeypatch):
        sc = spark.sparkContext
        made, destroyed = [], []
        real_broadcast, real_destroy = sc.broadcast, Broadcast.destroy

        def destroy(self, blocking=False):
            destroyed.append(self)
            real_destroy(self, blocking)

        monkeypatch.setattr(sc, "broadcast", lambda value: made.append(real_broadcast(value)) or made[-1])
        monkeypatch.setattr(Broadcast, "destroy", destroy)
        rows = run_table2(backends=("csr", "spark"), n=60, k=2, mc=10, spark=spark)
        for csr_row, spark_row in zip(rows[::2], rows[1::2]):
            assert (csr_row.backend, spark_row.backend) == ("csr", "spark")
            assert csr_row.ewm == spark_row.ewm
            assert csr_row.seeds == spark_row.seeds
            assert csr_row.sigma_value == spark_row.sigma_value
            assert csr_row.n_evals == spark_row.n_evals
        assert len(made) == 2 and destroyed == made  # one per EWM

    def test_ndlib_extrapolation_positive(self):
        csr = table2_graph(60, 7, seed=1)
        w = edge_weights(csr, "TV", seed=0)
        est = estimate_ndlib_celf_seconds(csr, w, mc=5, sample_candidates=3)
        assert est > 0

    def test_format_is_markdown(self):
        rows = run_table2(backends=("csr",), n=60, k=2, mc=5)
        text = format_table2(rows)
        assert text.startswith("| EWM | backend |")
        fast = Table2Row("TV", "csr", 0.0026, [1, 2], 3.5, 20, 2.0)
        assert "| TV | csr | 0.0026 | 2 |" in format_table2([fast])


def _env_reads(path: Path) -> set[str]:
    """Names a module reads with ``os.environ[...]``, ``os.environ.get`` or ``os.getenv``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        elif isinstance(node, ast.Call) and node.args:
            target, key = node.func, node.args[0]
        else:
            continue
        if ast.unparse(target) in ("os.environ", "os.environ.get", "os.getenv"):
            names.add(key.value if isinstance(key, ast.Constant) else ast.unparse(key))
    return names


def test_src_reads_only_kernel_build_environment():
    """No sizing knobs: the only environment ``src/`` reads is the kernel build's."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    names = set().union(*(_env_reads(p) for p in src.rglob("*.py")))
    assert names == {"CC", "XDG_CACHE_HOME"}


def _broadcasts_and_private_imports(path: Path) -> tuple[list[str], list[str]]:
    """Where ``path`` calls ``<...>sparkContext.broadcast(`` (as ``Class.function``
    paths), and the private names it imports from ``repro`` modules."""
    broadcasts, private = [], []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, [*scope, child.name])
                continue
            if (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == "broadcast"
                and ast.unparse(child.func.value).endswith("sparkContext")
            ):
                broadcasts.append(".".join(scope))
            if isinstance(child, ast.ImportFrom) and (child.module or "").startswith("repro"):
                private.extend(a.name for a in child.names if a.name.startswith("_"))
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return broadcasts, private


def test_src_broadcasts_once_and_imports_no_private_name():
    """One owner of a broadcast graph, and no module reaches into another's internals."""
    src = Path(__file__).resolve().parents[1] / "src"
    broadcasts, private = [], []
    for path in sorted(src.rglob("*.py")):
        found, names = _broadcasts_and_private_imports(path)
        name = path.relative_to(src).as_posix()
        broadcasts += [f"{name}:{where}" for where in found]
        private += [f"{name}:{imported}" for imported in names]
    assert broadcasts == ["repro/diffusion/spark_engine.py:SparkTrialEngine.__init__"]
    assert private == []


def test_benchmark_tracer_patches_and_restores_csr_engine(small_csr):
    """perfbench's tracer patches ``csr_engine`` names by name, so removing
    one fails here, not only in the separately run perfbench suite."""
    from perfbench.tracing import Tracer, instrument

    from repro.diffusion import CSREngine, csr_engine

    before = dict(vars(csr_engine)), dict(vars(CSREngine))
    tracer = Tracer(True)
    with instrument(tracer):
        CSREngine(small_csr, edge_weights(small_csr, "WC")).run([0], 1)
    assert (dict(vars(csr_engine)), dict(vars(CSREngine))) == before
    assert [span[0] for span in tracer.spans] == ["kernel"]
