"""Run one workload's command line task repeatedly in this one process.

    python3 bench/task.py <workload> <run_dir> <seconds> <trace 0|1>

Run with the inputs directory as the working directory.  A task is one
``sparsekl.cli.main`` call, timed alone (imports are outside it), as a
user running the command pays it; task ``i`` writes its artifacts to
``<run_dir>/out<i>``.  The first task is a warm-up.  With trace 0 tasks
follow back to back until ``<seconds>`` have passed since the warm-up
started (at least one after it; none is started that would be expected
to end after that).  With trace 1 the warm-up is followed by one untraced and
one traced task; spans around the public functions give per-layer
calls and self time and are written to ``<run_dir>/spans.csv``.

After each task the checkpoint is reloaded to recompute the final
objective, so the caller can check that it reproduces ``final_elbo``
exactly.  The records go to ``<run_dir>/tasks.json``, with the peak RSS
of this process.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from inputs import COX_DOMAIN, REGRESSION, reference_optimum
from run import WORKLOADS
from tracing import Tracer


def reload_objective(workload, outdir):
    """Final objective recomputed from ``checkpoint.json``, and the state."""
    import sparsekl
    from sparsekl.cli import read_events, read_xy_data

    state = sparsekl.load_checkpoint(os.path.join(outdir, "checkpoint.json"))
    if workload in REGRESSION:
        x, y = read_xy_data("data.csv", 1)
        return sparsekl.elbo(state, x, y), state
    model = sparsekl.CoxModel(lower=[COX_DOMAIN[0]], upper=[COX_DOMAIN[1]],
                              events=read_events("events.csv", 1))
    return sparsekl.cox_elbo(state, model), state


def reference_objective(workload, state):
    """The setup's reference optimum, recomputed if the fit placed its
    features elsewhere than the setup assumed."""
    with open("reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    z = [float(g.location[0]) for g in state.features]
    if z == reference["features"]:
        return reference["objective"]
    from sparsekl.cli import read_xy_data

    x, y = read_xy_data("data.csv", 1)
    return reference_optimum(workload, np.asarray(z), x[:, 0], y)["objective"]


def run_task(cli, workload, outdir, tracer=None):
    record = {"outdir": outdir}
    argv = [WORKLOADS[workload], "--config", "config.json", "--out", outdir]
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        record["rc"] = cli.main(argv)
        record["task_s"] = time.perf_counter() - start
    except Exception:  # a crash is a failed task, reported with its traceback
        traceback.print_exc()
        record["rc"] = "exception"
    if tracer:
        tracer.uninstall()
        record["layers"], record["objective_calls_in_maximize"] = tracer.layer_stats()
    if record["rc"] == 0 and workload != "verify":
        objective, state = reload_objective(workload, outdir)
        record["reload_objective"] = objective if math.isfinite(objective) else None
        if workload in REGRESSION:
            record["reference_objective"] = reference_objective(workload, state)
    return record


def main():
    workload, run_dir, seconds, trace = sys.argv[1:5]
    import sparsekl.cli as cli

    def task(tracer=None):
        outdir = os.path.join(run_dir, f"out{len(records)}")
        records.append(run_task(cli, workload, outdir, tracer))
        return records[-1]

    records = []
    deadline = time.perf_counter() + float(seconds)
    task()  # warm-up
    if trace == "1":
        task()
        tracer = Tracer()
        task(tracer)
        tracer.write(os.path.join(run_dir, "spans.csv"))
    else:
        while True:
            task()
            typical = statistics.median(r.get("task_s", 0.0) for r in records[1:])
            if time.perf_counter() + typical > deadline:
                break
    result = {
        "sparsekl": os.path.abspath(cli.__file__),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tasks": records,
    }
    with open(os.path.join(run_dir, "tasks.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
