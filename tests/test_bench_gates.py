"""The benchmark's correctness gates, on its own seed-0 inputs, and its layer sweep.

``bench/run.py`` counts a task as failed when its exit code is not 0, the
reloaded checkpoint does not reproduce ``final_elbo`` exactly, a
regression's ``collapsed_gap`` exceeds ``GAP_TOL``, a Cox fit's integrated
intensity is off the event count by more than ``INTENSITY_RTOL``, verify
does not report ``all_pass``, or a rerun's artifacts differ.  These tests
run each task as ``bench/task.py`` does (``run_task``, which also reloads
the checkpoint and recomputes a regression's reference objective) and put
it through ``run.py``'s own checks, so a wrong output, or a use of
``sparsekl`` that only the benchmark makes, fails here before a benchmark
run.  ``bench/`` is loaded by file path and never changed: the inputs and
the artifacts go to ``tmp_path``, and ``same_as_earlier_runs`` (which
writes ``.bench_work/``) is replaced by the rerun comparison here.
"""

import importlib.util
import json
import math
import pathlib
import sys

import pytest

from sparsekl import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """``bench/inputs.py``, ``run.py``, ``tracing.py`` and ``task.py`` by name, each
    registered under the name ``task.py`` imports it by, for this test only."""
    modules = {}
    for name in ("inputs", "run", "tracing", "task"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules


@pytest.mark.parametrize("workload", ["reg-large", "cox-window", "verify"])
def test_seed_zero_passes_the_gates(tmp_path, monkeypatch, bench, workload):
    run, task = bench["run"], bench["task"]
    inputs = tmp_path / "inputs"
    bench["inputs"].make_inputs(workload, 0, str(inputs))
    monkeypatch.chdir(inputs)
    monkeypatch.setattr(run, "same_as_earlier_runs", lambda key, digest: True)
    gates = run.Run(workload, 0, str(tmp_path))
    gates.digest_key = None
    digests = []
    for i in range(2):
        outdir = str(tmp_path / f"out{i}")
        record = task.run_task(cli, workload, outdir)
        assert record["rc"] == 0
        assert gates.check(record) == []
        if workload == "reg-large":
            assert math.isfinite(record["reference_objective"])
        digests.append(run.tree_digest(outdir, drop_wall_time=True))
    assert digests[0] == digests[1]


def test_sweep_runs_at_its_smallest_size(monkeypatch):
    spec = importlib.util.spec_from_file_location("sweep", BENCH / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    for name, value in (("SIZES_M", (10,)), ("SIZES_N", (100,)), ("BUDGET_S", 0), ("MAX_CALLS", 1)):
        monkeypatch.setattr(sweep, name, value)
    out = sweep.run(0)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        m["name"] for m in declared["per_layer"]
        if m["name"].startswith("sweep.") and m["name"].endswith(".M10")
        and (".n" not in m["name"] or ".n100." in m["name"])
    }
    assert set(out) == expected
    assert all(math.isfinite(v) and v >= 0.0 for v in out.values())
