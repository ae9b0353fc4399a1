"""Workload inputs and reference optima, generated from the benchmark seed.

    python3 bench/inputs.py <workload> <seed> <dir>

writes everything the command line task of ``<workload>`` reads into
``<dir>``: the data file, ``config.json`` (with paths relative to
``<dir>``) and, for the regression workloads, ``reference.json`` with
the reference optimum of the collapsed bound.  The data is drawn here,
not by ``sparsekl generate`` or ``sample_inhomogeneous_pp``, so a change
to those cannot change a workload.  The same seed gives byte-identical
files.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

REG_NOISE_SD = 0.3
REG_INIT = {"variance": 1.0, "noise_var": 0.1}
# cox-window: the test_09 intensity 100 (1 + sin 2 pi x) on [0, 1].
COX_RATE = 100.0
COX_DOMAIN = (0.0, 1.0)
COX_M = 8
COX_ELL = 0.2
COX_OPTIMIZER = {"max_iters": 20, "refine_iters": 10}
VERIFY_INSTANCES = 500


def write_csv(path, header, rows):
    """Same text format as the command line writes: ``repr`` of each float."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_json(path, record):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sin_mixture_data(seed, n):
    """Draws in the order ``sparsekl generate`` uses."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, size=n))
    latent = np.sin(2.0 * np.pi * x) + 0.5 * np.sin(6.0 * np.pi * x + 0.7)
    y = latent + REG_NOISE_SD * rng.standard_normal(n)
    return x, y


def cox_events(seed):
    """Thinning sampler for 100 (1 + sin 2 pi x) on [0, 1], bounded by 200."""
    rng = np.random.default_rng(seed)
    bound = 2.0 * COX_RATE
    lo, hi = COX_DOMAIN
    proposals = rng.uniform(lo, hi, size=int(rng.poisson(bound * (hi - lo))))
    keep = rng.uniform(size=proposals.size) * bound <= COX_RATE * (
        1.0 + np.sin(2.0 * np.pi * proposals)
    )
    return np.sort(proposals[keep])


def spread_locations(x, M):
    """Evenly spaced order statistics, the rule the fit uses for its features."""
    picks = np.unique(np.round(np.linspace(0, x.size - 1, M)).astype(int))
    return np.sort(x)[picks]


def woodbury_collapsed_bound(z, variance, ell, mean, noise_var, x, y):
    """The collapsed bound in O(n M^2) memory-light form, for 1-d point features.

    Same quantity as ``sparsekl.collapsed_bound``, which takes the dense
    n x n route and would make the reference take minutes.
    """
    kuu = variance * np.exp(-0.5 * ((z[:, None] - z[None, :]) / ell) ** 2)
    kuf = variance * np.exp(-0.5 * ((z[:, None] - x[None, :]) / ell) ** 2)
    luu = np.linalg.cholesky(kuu + 1e-10 * variance * np.eye(z.size))
    a = solve_triangular(luu, kuf, lower=True) / math.sqrt(noise_var)
    lb = np.linalg.cholesky(np.eye(z.size) + a @ a.T)
    r = y - mean
    c = solve_triangular(lb, a @ r, lower=True) / math.sqrt(noise_var)
    n = x.size
    fit = -0.5 * (
        n * math.log(2.0 * math.pi * noise_var)
        + 2.0 * float(np.sum(np.log(np.diag(lb))))
        + float(r @ r) / noise_var
        - float(c @ c)
    )
    trace = (n * variance - noise_var * float(np.sum(a * a))) / (2.0 * noise_var)
    return fit - trace


# reg-large uses l=0.1 because with l=0.3 its 20 features on [0, 1] give
# cond(Kuu) ~ 3e17, the jittered factors disagree and collapsed_gap is ~34
# nats, so the gap check (1e-3, as in test_11) fails on every seed.  Its
# reference uses the Woodbury form: the dense route takes ~2 s per
# evaluation at n=4000.
REGRESSION = {
    "reg-large": {"n": 4000, "M": 20, "ell": 0.1,
                  "optimizer": {"max_iters": 1, "refine_iters": 0}},
}


def reference_optimum(workload, z, x, y):
    """L-BFGS-B over log variance, log l, mean and log noise of the collapsed bound.

    Starts from the fit's initial hyperparameters; the features stay at ``z``.
    """
    ell0 = REGRESSION[workload]["ell"]

    def negative(p):
        return -woodbury_collapsed_bound(
            z, math.exp(p[0]), math.exp(p[1]), p[2], math.exp(p[3]), x, y)

    start = [math.log(REG_INIT["variance"]), math.log(ell0), 0.0,
             math.log(REG_INIT["noise_var"])]
    result = minimize(negative, start, method="L-BFGS-B")
    return {
        "objective": -float(result.fun),
        "variance": math.exp(result.x[0]),
        "lengthscale": math.exp(result.x[1]),
        "mean": float(result.x[2]),
        "noise_var": math.exp(result.x[3]),
        "evaluations": int(result.nfev),
    }


def make_regression(workload, seed, outdir):
    s = REGRESSION[workload]
    x, y = sin_mixture_data(seed, s["n"])
    write_csv(os.path.join(outdir, "data.csv"), ["x1", "y"], np.column_stack([x, y]))
    config = {
        "data": "data.csv",
        "seed": 0,
        "model": {
            "kernel": {"variance": REG_INIT["variance"], "lengthscales": [s["ell"]]},
            "num_inducing": s["M"],
            "noise_var": REG_INIT["noise_var"],
        },
        "optimizer": s["optimizer"],
    }
    write_json(os.path.join(outdir, "config.json"), config)
    z = spread_locations(x, s["M"])
    reference = reference_optimum(workload, z, x, y)
    reference["features"] = z.tolist()
    write_json(os.path.join(outdir, "reference.json"), reference)


def make_cox(seed, outdir):
    events = cox_events(seed)
    write_csv(os.path.join(outdir, "events.csv"), ["x1"], events[:, None])
    config = {
        "data": "events.csv",
        "seed": 0,
        "model": {
            "kernel": {
                "variance": 1.0,
                "lengthscales": [COX_ELL],
                "mean": math.log(events.size),
            },
            "num_inducing": COX_M,
            "feature_type": "gwindow",
            "link": "exp",
            "domain": [list(COX_DOMAIN)],
        },
        "optimizer": COX_OPTIMIZER,
    }
    write_json(os.path.join(outdir, "config.json"), config)


def make_verify(seed, outdir):
    config = {"seed": seed, "verify": {"instances": VERIFY_INSTANCES}}
    write_json(os.path.join(outdir, "config.json"), config)


def make_inputs(workload, seed, outdir):
    os.makedirs(outdir, exist_ok=True)
    if workload in REGRESSION:
        make_regression(workload, seed, outdir)
    elif workload == "cox-window":
        make_cox(seed, outdir)
    elif workload == "verify":
        make_verify(seed, outdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
