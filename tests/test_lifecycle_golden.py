"""Golden and oracle tests for the seeded lifecycle harness.

* **Golden stdout.**  Every lifecycle command's output is a pure
  function of its flags: the sha256 of stdout is pinned per command,
  along with the measured I/O of ``benchmarks/bench_simulation.py``'s
  view mixes.  A change to any simulator, the harness or the CLI that
  moves one byte fails here.
* **Oracle coverage.**  Corrupting one stored view row just before the
  final check must flip every warehouse-backed scenario to ``ok ==
  False``.
* **Flag routing.**  The design flags reach the design in every
  warehouse-backed scenario, and the scenario selectors exclude each
  other.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from repro import obs, simulation
from repro.cli import main
from repro.mvpp.config import DesignConfig
from repro.warehouse import DataWarehouse
from repro.workload import paper_rows, paper_workload

SCALE = ["--scale", "0.02"]

#: argv -> sha256 of stdout (every command exits 0).
GOLDEN = {
    ("simulate", "--faults", "--failure-rate", "0.3", "--rounds", "2",
     "--seed", "7", "--format", "json", *SCALE):
        "c006019d1caf39d578ac53c222c3de4f8a7d4195cf55fe56ff38618adf6f1b6d",
    ("simulate", "--rounds", "1", "--format", "json", *SCALE):
        "d30b991e9bbb79592773b6b6f63f7b09aa5c6676c25b5603b2156acf493d3af3",
    ("simulate", "--shards", "8", "--seed", "7", "--format", "json", *SCALE):
        "ad3ec832c8e7c8236420977a3db595f5ff2c156cc4e6e8bbff255cf82ad56a14",
    ("simulate", "--shards", "4", "--replicas", "2", "--seed", "0",
     "--format", "json", *SCALE):
        "78eec5e52652dae4f3bfc4e5660fc895fa21af063df76e89699aeb99f2613da3",
    ("simulate", "--drift", "--seed", "7", "--format", "json"):
        "4de34f1dc24e9666f9f55c9f721c993a6fee82ddbf556f99d3b2d330d79fa4ff",
    ("simulate", "--drift", "--stationary", "--seed", "7", "--format", "json"):
        "40a1ffea60a37e9d736f715f15170d68d8e2762b16de869c32f04d68a02cab19",
    ("stream", "--faults", "--failure-rate", "0.3", "--rounds", "2",
     "--seed", "7", "--format", "json", *SCALE):
        "899c9ee8f4addde2f8d3ca2210a335c7b1f6437aed5c1f3acfb7abd3138ca7d7",
    ("stream", "--rounds", "2", "--seed", "7", "--format", "json", *SCALE):
        "3e70ca41b7258fe9663fd0782d45c479e26de25b3253739cdb9cf8570117c508",
    ("stream", "--workload", "star", "--rounds", "3", "--seed", "11",
     "--format", "json", *SCALE):
        "eb61962bd312519abf6ff982f313da14039946be93debd14450f721aac133a75",
    ("adapt", "--windows", "8", "--format", "json"):
        "ae9a07826ac3b2b981d74e690599ce6c102403f79b4d147e339a516f5537d3da",
    ("trace", "--events", *SCALE):
        "5b8553cd91d1934e1d3e9f8cef77b37deec417c8cc0fb80af19c473309afe9e2",
    ("refresh", "--failure-rate", "0.3", "--seed", "7", *SCALE):
        "55ec91901bb3e2ca372bb8a753b196955b66d58695244c46ae6c24ebb0252fdb",
    ("calibrate", *SCALE):
        "0517dac0e7930af6ab338a87479bb026699f71cac1dab416587dd04fc23d3b09",
}

#: benchmarks/bench_simulation.py: three periods per view mix.
VIEW_MIXES = {
    "virtual": (67726, 21),
    "designed": (1947, 26600),
    "queries": (0, 40903),
}
EXECUTIONS = {"Q1": 30, "Q4": 15, "Q2": 1, "Q3": 2}
BATCHES = {"Product": 3, "Division": 3, "Order": 3, "Customer": 3, "Part": 3}


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


@pytest.fixture()
def obs_off():
    """The goldens are recorded with observability off (the default)."""
    was_enabled = obs.enabled()
    obs.disable()
    yield
    if was_enabled:
        obs.enable()


class TestGoldenStdout:
    @pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
    def test_stdout_digest(self, argv, obs_off):
        code, out = run_cli(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]

    def test_bench_simulation_view_mixes(self):
        path = Path(__file__).parents[1] / "benchmarks" / "bench_simulation.py"
        spec = importlib.util.spec_from_file_location("bench_simulation", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        documents = bench.run_mixes()
        assert list(documents) == list(VIEW_MIXES)
        for mix, (query_io, maintenance_io) in VIEW_MIXES.items():
            document = documents[mix]
            assert document["query_io"] == query_io, mix
            assert document["maintenance_io"] == maintenance_io, mix
            assert document["query_executions"] == EXECUTIONS, mix
            assert document["update_batches"] == BATCHES, mix


def _corrupt_one_row(warehouse) -> None:
    """Change one value of one stored view row, keeping its type."""
    for view in simulation._stored_views(warehouse):
        table = warehouse.database.table(view.name)
        for column in table.columns():
            if not column:
                continue
            value = column[0]
            if isinstance(value, bool):
                column[0] = not value
            elif isinstance(value, (int, float)):
                column[0] = value + 1
            elif isinstance(value, str):
                column[0] = value + "~"
            elif isinstance(value, datetime.date):
                column[0] = value + datetime.timedelta(days=1)
            else:
                continue
            return
    raise AssertionError("no stored view row to corrupt")


class TestOracleCoverage:
    @pytest.fixture()
    def corrupting(self, monkeypatch):
        check_views = simulation.check_views

        def corrupt_then_check(warehouse):
            _corrupt_one_row(warehouse)
            return check_views(warehouse)

        monkeypatch.setattr(simulation, "check_views", corrupt_then_check)

    @pytest.fixture()
    def inputs(self):
        return paper_workload(), paper_rows(scale=0.01, seed=7), DesignConfig(seed=7)

    def test_faults_notices(self, inputs, corrupting):
        assert not simulation.faults(*inputs, rounds=1).ok

    def test_stream_notices(self, inputs, corrupting):
        assert not simulation.stream(*inputs, rounds=1).ok

    def test_shards_notices(self, inputs, corrupting):
        assert not simulation.shards(*inputs, shards=2, workers=(1,)).ok

    def test_periods_notices(self, inputs, corrupting):
        workload, rows, config = inputs
        warehouse = simulation.build(workload, rows, config)
        assert not simulation.periods(warehouse, periods=1).ok

    def test_stale_views_are_not_violations(self):
        # Every retry fails, so an open breaker leaves a view stale at the
        # end: the run does not converge, but a stale view holding its
        # committed snapshot is no consistency violation.
        report = simulation.faults(
            paper_workload(), paper_rows(scale=0.05, seed=7), DesignConfig(seed=7),
            rounds=1, failure_rate=0.9,
        )
        assert not report.document["converged"]
        assert report.document["queries"]["consistency_violations"] == 0
        assert not report.ok

    def test_untouched_runs_pass(self, inputs):
        workload, rows, config = inputs
        assert simulation.faults(*inputs, rounds=1).ok
        assert simulation.periods(
            simulation.build(workload, rows, config), periods=1
        ).ok


class TestFlagRouting:
    SCENARIOS = {
        "faults": ["simulate", "--faults", "--rounds", "1"],
        "shards": ["simulate", "--shards", "2"],
        "drift": ["simulate", "--drift", "--windows-per-phase", "1"],
        "stream": ["stream", "--rounds", "1"],
    }

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_design_flags_reach_the_design(self, scenario, monkeypatch, obs_off):
        seen = []
        design = DataWarehouse.design

        def recording(self, config=None):
            seen.append(config)
            return design(self, config)

        monkeypatch.setattr(DataWarehouse, "design", recording)
        run_cli(
            self.SCENARIOS[scenario]
            + ["--scale", "0.01", "--engine", "reference", "--strategy", "greedy"]
        )
        assert seen
        assert all(c.engine == "reference" for c in seen), seen
        assert all(c.strategy == "greedy" for c in seen), seen

    def test_selector_conflict_is_an_error(self, capsys):
        argv = [
            "simulate", "--drift", "--shards", "4", "--faults",
            "--failure-rate", "0.9", "--rounds", "9",
        ]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
