"""The benchmark's correctness gates, on its own seed-0 inputs.

``bench/run.py`` counts a task as failed when its exit code is not 0, the
reloaded checkpoint does not reproduce ``final_elbo`` exactly, a
regression's ``collapsed_gap`` exceeds ``GAP_TOL``, a Cox fit's integrated
intensity is off the event count by more than ``INTENSITY_RTOL``, verify
does not report ``all_pass``, or a rerun's artifacts differ.  These tests
make the same checks, so a wrong output fails here before a benchmark run.
``bench/`` is loaded by file path and never changed: the inputs and the
artifacts go to ``tmp_path``, and ``same_as_earlier_runs`` (which writes
``.bench_work/``) is not called.
"""

import importlib.util
import math
import os
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
    digests = []
    for i in range(2):
        outdir = str(tmp_path / f"out{i}")
        argv = [run.WORKLOADS[workload], "--config", "config.json", "--out", outdir]
        assert cli.main(argv) == 0
        if workload == "verify":
            assert run.load_json(os.path.join(outdir, "report.json"))["all_pass"] is True
        else:
            summary = run.load_json(os.path.join(outdir, "summary.json"))
            reloaded = task.reload_objective(workload, outdir)[0]
            assert math.isfinite(reloaded) and reloaded == summary["final_elbo"]
        if workload == "reg-large":
            assert abs(summary["collapsed_gap"]) <= run.GAP_TOL
        if workload == "cox-window":
            off = abs(summary["integrated_intensity"] - summary["n_events"]) / summary["n_events"]
            assert off <= run.INTENSITY_RTOL
        digests.append(run.tree_digest(outdir, drop_wall_time=True))
    assert digests[0] == digests[1]
