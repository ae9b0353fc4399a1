"""Record a baseline: every workload over several seeds, plus one traced run each.

    python3 bench/record.py [--out bench/baseline.json]

Runs ``bench/run.py`` as ``BENCHMARK.json`` says, one run per seed 0-9
with tracing off, and reports for each end-to-end metric the ten values,
their median and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  Then one traced run per workload at
seed 5 gives the per-layer metrics, each with the
end-to-end metric and workload it should move (``run.MOVES``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import BLAS_THREADS, ROOT, moves

SEEDS = tuple(range(10))
TRACE_SEED = 5


def bench_run(command, workload, seed, seconds, trace):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s, correct {result['correct']}, "
          f"{result['failed']}/{result['attempted']} failed", file=sys.stderr, flush=True)
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "bench", "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    command = spec["command"]
    record = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, Python "
                   f"{platform.python_version()}, BLAS threads {BLAS_THREADS}",
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench_run(command, workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {
            "run_wall_s": [round(wall, 2) for _, wall in runs],
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "all_correct": all(r["correct"] for r, _ in runs),
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r, _ in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
            }
        traced, wall = bench_run(command, workload, TRACE_SEED, spec["run_seconds"], 1)
        entry["traced"] = {
            "seed": TRACE_SEED, "run_wall_s": round(wall, 2),
            "correct": traced["correct"],
            "per_layer": {
                m["name"]: {"value": traced["metrics"][m["name"]]["value"], "unit": m["unit"],
                            "better": m["better"], "moves": moves(m["name"])}
                for m in spec["per_layer"]
            },
        }
        record["workloads"][workload] = entry
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
