"""Layer scaling sweep: seconds per call of single layers at sizes n and M.

    python3 bench/sweep.py <seed> <result.json>

Each layer is called on inputs drawn from the seed, at every M in
``SIZES_M`` and, where it takes data, every n in ``SIZES_N``; a value is
the median over repeated calls, up to about 0.05 s of calls per point.
Features sit at (i + 1/2)/M on [0, 1] with lengthscale 1/M and window
width 1/(2M), so Kuu stays well conditioned at every M and no layer
falls back to jitter.  The dense ``collapsed_bound`` stops at n=4000:
n=1e4 needs several GB.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

import numpy as np

from sparsekl import (
    CoxModel,
    GaussianNoise,
    GaussianWindowFeature,
    Kernel,
    PointFeature,
    SVGPState,
    assemble_Kuf,
    assemble_Kuu,
    collapsed_bound,
    cox_elbo,
    elbo,
    kernel_matrix,
    predictive_marginals,
)

SIZES_M = (10, 50, 200)
SIZES_N = (100, 1000, 4000)
BUDGET_S = 0.05
MAX_CALLS = 50


def seconds_per_call(fn):
    times = []
    while not times or (sum(times) < BUDGET_S and len(times) < MAX_CALLS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def features(kind, M):
    centres = (np.arange(M) + 0.5) / M
    if kind == "point":
        return [PointFeature([c]) for c in centres]
    return [GaussianWindowFeature([c], [0.5 / M]) for c in centres]


def state_for(feats, kernel, rng, likelihood=None):
    M = len(feats)
    chol = np.tril(0.05 * rng.standard_normal((M, M)), -1) + np.diag(rng.uniform(0.2, 0.5, M))
    return SVGPState(features=feats, q_mean=0.3 * rng.standard_normal(M),
                     q_chol=chol, kernel=kernel, likelihood=likelihood)


def run(seed):
    rng = np.random.default_rng(seed)
    out = {}
    for M in SIZES_M:
        kernel = Kernel(1.0, [1.0 / M])
        point, window = features("point", M), features("window", M)
        out[f"sweep.assemble_Kuu.point.M{M}"] = seconds_per_call(
            lambda: assemble_Kuu(point, kernel))
        out[f"sweep.assemble_Kuu.window.M{M}"] = seconds_per_call(
            lambda: assemble_Kuu(window, kernel))
        z = np.array([g.location for g in point])
        for n in SIZES_N:
            x = np.sort(rng.uniform(0.0, 1.0, n))[:, None]
            y = np.sin(2.0 * np.pi * x[:, 0]) + 0.3 * rng.standard_normal(n)
            state = state_for(point, kernel, rng, GaussianNoise(0.1))
            cox_state = state_for(window, Kernel(1.0, [1.0 / M], math.log(n)), rng)
            model = CoxModel(lower=[0.0], upper=[1.0], events=x)
            size = f"n{n}.M{M}"
            out[f"sweep.kernel_matrix.{size}"] = seconds_per_call(
                lambda: kernel_matrix(kernel, x, z))
            out[f"sweep.assemble_Kuf.point.{size}"] = seconds_per_call(
                lambda: assemble_Kuf(point, kernel, x))
            out[f"sweep.assemble_Kuf.window.{size}"] = seconds_per_call(
                lambda: assemble_Kuf(window, kernel, x))
            out[f"sweep.predictive_marginals.{size}"] = seconds_per_call(
                lambda: predictive_marginals(state, x))
            out[f"sweep.elbo.{size}"] = seconds_per_call(lambda: elbo(state, x, y))
            out[f"sweep.collapsed_bound.{size}"] = seconds_per_call(
                lambda: collapsed_bound(point, kernel, x, y, 0.1))
            out[f"sweep.cox_elbo.{size}"] = seconds_per_call(
                lambda: cox_elbo(cox_state, model))
    return out


if __name__ == "__main__":
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(run(int(sys.argv[1])), fh)
