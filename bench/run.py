"""Benchmark of the sparsekl command line on seeded inputs it generates itself.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Nothing needs building: children import the package from ``src/`` of
the checkout that holds this file.  Each workload is one command line task
(``sparsekl.cli.main``) on inputs drawn from ``--seed``:

  reg-large   fit-regression, n=4000, M=20 point features, l=0.1,
              optimizer caps 1 + 0 iterations
  cox-window  fit-cox on ~100 events of 100 (1 + sin 2 pi x) on [0, 1],
              M=8 Gaussian-window features, l=0.2, exp link, 50-node
              grid, optimizer caps 20 + 10 iterations
  verify      verify with 500 instances

The load is a closed loop with one client: one fresh process per run,
with BLAS pinned to ``BLAS_THREADS`` threads, runs a warm-up task and
then tasks back to back until ``--seconds`` have passed since the
warm-up started (``task.py``).

Metrics, with ``--trace 0``:
  task_s       median wall seconds of the main() call, warm-up left out
  setup_s      median over SETUP_REPEATS fresh processes of process
               start, imports, input generation and, for regression,
               the reference optimum of the collapsed bound
  peak_rss_mb  peak RSS of the process that ran the tasks

With ``--trace 1`` the run makes a warm-up, one untraced and one traced
task (its spans go to ``.bench_work/spans-<workload>.csv``), then the layer
scaling sweep (``sweep.py``), and prints the per-layer metrics:
``<module>.<function>.calls`` / ``.self_s`` from spans around the public
functions (``tracing.py``), the fit's ``optimize.iterations``, the ratios
``optimize.evals_per_iter`` and ``cox.grid_builds_per_eval``,
``cli.bytes_written``, the task's
``task.final_objective`` and ``task.objective_gap`` (reference optimum
minus final objective, regression only), ``trace.overhead_s`` (traced
minus untraced task seconds) and the ``sweep.*`` seconds per call.
``MOVES`` names the end-to-end metric and workload each should move.

Every task is checked and counted as failed when a check fails: exit
code 0; regression ``collapsed_gap`` <= 1e-3; the reloaded checkpoint
reproduces ``final_elbo`` exactly; the Cox integrated intensity is
within 25 % of the event count; verify reports ``all_pass``; and the
artifacts are byte-identical, apart from ``wall_time_s``, to every other
run of the same workload, inputs and sources (digests are kept in
``.bench_work/digests.json``).  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BLAS_THREADS = 1
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
GAP_TOL = 1e-3  # test_11
INTENSITY_RTOL = 0.25  # test_09

WORKLOADS = {
    "reg-large": "fit-regression",
    "cox-window": "fit-cox",
    "verify": "verify",
}

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  Looked up by the longest matching name prefix.
MOVES = {
    "optimize.": "task_s on cox-window and reg-large, with task.final_objective; no change on verify",
    "svgp.": "task_s and peak_rss_mb on reg-large; no change on cox-window",
    "svgp.predictive_marginals": "task_s on reg-large, and on cox-window (one call per cox_elbo)",
    "gaussians.mvn_logpdf": "task_s and peak_rss_mb on reg-large",
    "svgp.save_checkpoint": "task_s on reg-large",
    "interdomain.assemble_": "task_s on cox-window; no change on reg-large",
    "interdomain.feature_feature_cov_quadrature": "task_s on verify only",
    "cox.": "task_s on cox-window only",
    "kernels.kernel_matrix": "task_s on reg-large (4000x20 Kuf); call overhead on cox-window",
    "gaussians.mvn_kl": "task_s on verify and cox-window",
    "finite_oracle.": "task_s on verify",
    "verify.": "task_s on verify",
    "gaussians.cholesky_jittered": "expected 0 everywhere; nonzero explains failures or objective drift",
    "cli.": "task_s on reg-large",
    "task.": "task.final_objective on reg-large and cox-window; task.objective_gap on reg-large",
    "trace.overhead_s": "none: tracing cost, traced minus untraced task_s",
    "sweep.": "task_s on the workloads that call the layer at that size",
}


def moves(metric):
    prefix = max((p for p in MOVES if metric.startswith(p)), key=len)
    return MOVES[prefix]


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def run_child(script, args, cwd=ROOT):
    """Run a benchmark script in a fresh process; returns its wall seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, script), *args],
        cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return time.perf_counter() - start, proc.returncode


def tree_digest(path, drop_wall_time=False):
    """sha256 over the files under ``path``; ``wall_time_s`` is left out of
    summary.json because it is the one field that may differ on rerun."""
    files = []
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        files.extend(os.path.join(dirpath, name) for name in filenames)
    digest = hashlib.sha256()
    for full in sorted(files):
        with open(full, "rb") as fh:
            data = fh.read()
        if drop_wall_time and os.path.basename(full) == "summary.json":
            record = json.loads(data)
            record.pop("wall_time_s", None)
            data = json.dumps(record, sort_keys=True).encode()
        digest.update(os.path.relpath(full, path).encode() + b"\0" + data)
    return digest.hexdigest()


def same_as_earlier_runs(key, digest):
    """Record the first artifact digest for ``key``; compare later ones to it."""
    store = os.path.join(WORK, "digests.json")
    try:
        with open(store, encoding="utf-8") as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    if key not in known:
        known[key] = digest
        tmp = f"{store}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, store)
    return known[key] == digest


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Run:
    def __init__(self, workload, seed, run_dir):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.inputs = os.path.join(run_dir, "inputs0")
        self.tasks = []

    def setup(self):
        """Generate the inputs SETUP_REPEATS times; all copies must agree."""
        times = []
        for i in range(SETUP_REPEATS):
            wall, rc = run_child(
                "inputs.py",
                [self.workload, str(self.seed), os.path.join(self.run_dir, f"inputs{i}")],
            )
            if rc != 0:
                raise SystemExit(f"setup failed with exit code {rc}")
            times.append(wall)
        digests = {tree_digest(os.path.join(self.run_dir, f"inputs{i}"))
                   for i in range(SETUP_REPEATS)}
        if len(digests) != 1:
            raise SystemExit("setup is not deterministic: input files differ between repeats")
        self.digest_key = f"{self.workload}/{self.seed}/{digests.pop()}/{tree_digest(SRC)}"
        return statistics.median(times)

    def measure(self, seconds, trace=False):
        """One fresh process runs the tasks (task.py); check what each wrote."""
        wall, rc = run_child("task.py", [self.workload, self.run_dir, str(seconds),
                                         str(int(trace))], cwd=self.inputs)
        result_path = os.path.join(self.run_dir, "tasks.json")
        if rc != 0 or not os.path.exists(result_path):
            raise SystemExit(f"task process failed with exit code {rc}")
        result = load_json(result_path)
        if not result["sparsekl"].startswith(SRC + os.sep):
            raise SystemExit(f"imported sparsekl from {result['sparsekl']}, not {SRC}")
        self.peak_rss_mb = result["peak_rss_mb"]
        for i, record in enumerate(result["tasks"]):
            problems = self.check(record)
            if problems:
                sys.stderr.write(f"task {i} failed: {'; '.join(problems)}\n")
            record["failed"] = bool(problems)
            self.tasks.append(record)
        times = [round(t["task_s"], 4) for t in self.tasks if "task_s" in t]
        sys.stderr.write(f"{self.workload} seed {self.seed}: {len(self.tasks)} tasks in "
                         f"{wall:.1f} s, task_s {times}, BLAS threads {BLAS_THREADS}\n")

    def check(self, record):
        if record["rc"] != 0:
            return [f"exit code {record['rc']}"]
        problems = []
        outdir = record["outdir"]
        if self.workload == "verify":
            if load_json(os.path.join(outdir, "report.json"))["all_pass"] is not True:
                problems.append("verify report has all_pass false")
        else:
            summary = load_json(os.path.join(outdir, "summary.json"))
            if record.get("reload_objective") != summary["final_elbo"]:
                problems.append(
                    f"reloaded checkpoint gives {record.get('reload_objective')!r}, "
                    f"summary final_elbo {summary['final_elbo']!r}")
            if "collapsed_gap" in summary and not abs(summary["collapsed_gap"]) <= GAP_TOL:
                problems.append(f"collapsed_gap {summary['collapsed_gap']:.3e} > {GAP_TOL}")
            if "integrated_intensity" in summary:
                rel = abs(summary["integrated_intensity"] - summary["n_events"]) / summary["n_events"]
                if not rel <= INTENSITY_RTOL:
                    problems.append(f"integrated intensity off the event count by {rel:.3f}")
        if not same_as_earlier_runs(self.digest_key, tree_digest(outdir, drop_wall_time=True)):
            problems.append("artifacts differ from an earlier run of this seed")
        return problems

    @property
    def failed(self):
        return sum(1 for t in self.tasks if t["failed"])

    def median_task_s(self):
        """Median over the tasks after the warm-up."""
        times = [t["task_s"] for t in self.tasks[1:] if "task_s" in t]
        if not times:
            raise SystemExit("no task ran to completion")
        return statistics.median(times)


def layer_metrics(untraced, traced, sweep):
    metrics = {}
    layers = traced["layers"]
    for name, stat in layers.items():
        metrics[f"{name}.calls"] = (stat["calls"], "count")
        if name != "gaussians.cholesky_jittered":
            metrics[f"{name}.self_s"] = (stat["self_s"], "s")
    summary_path = os.path.join(traced["outdir"], "summary.json")
    summary = load_json(summary_path) if os.path.exists(summary_path) else {}
    iterations = summary.get("iterations", 0)
    metrics["optimize.iterations"] = (iterations, "count")
    metrics["optimize.evals_per_iter"] = (
        traced["objective_calls_in_maximize"] / iterations if iterations else 0.0,
        "calls/iter")
    cox_calls = layers["cox.cox_elbo"]["calls"]
    metrics["cox.grid_builds_per_eval"] = (
        layers["cox.legendre_grid"]["calls"] / cox_calls if cox_calls else 0.0,
        "builds/eval")
    metrics["cli.bytes_written"] = (
        sum(os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(traced["outdir"]) for f in files),
        "bytes")
    final = summary.get("final_elbo", 0.0)
    reference = traced.get("reference_objective")
    metrics["task.final_objective"] = (final, "nats")
    metrics["task.objective_gap"] = (
        reference - final if reference is not None else 0.0, "nats")
    metrics["trace.overhead_s"] = (traced["task_s"] - untraced["task_s"], "s")
    for name, value in sweep.items():
        metrics[name] = (value, "s")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "sparsekl", "cli.py")):
        raise SystemExit(f"no sparsekl sources under {SRC}")
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        run = Run(args.workload, args.seed, run_dir)
        setup_s = run.setup()
        if args.trace:
            run.measure(args.seconds, trace=True)
            untraced, traced = run.tasks[-2:]
            os.replace(os.path.join(run_dir, "spans.csv"),
                       os.path.join(WORK, f"spans-{args.workload}.csv"))
            sweep_path = os.path.join(run_dir, "sweep.json")
            _, rc = run_child("sweep.py", [str(args.seed), sweep_path])
            if rc != 0:
                raise SystemExit(f"layer sweep failed with exit code {rc}")
            layers = layer_metrics(untraced, traced, load_json(sweep_path))
            metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layers.items()}
        else:
            run.measure(args.seconds)
            metrics = {
                "task_s": {"value": run.median_task_s(), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
            }
        correct = run.failed == 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": len(run.tasks),
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
