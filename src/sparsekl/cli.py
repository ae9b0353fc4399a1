"""Command line interface.

    sparsekl <task> --config <path> [--seed N] [--out DIR]

Tasks: fit-regression, fit-classification, fit-cox, verify, generate.
Configuration is a single JSON file; unknown keys anywhere in it are
rejected with a message listing them.  Artifacts are deterministic
given the config and seed, except for the recorded wall time.

Exit codes: 0 success, 2 config error, 3 data error, 4 verification
failure, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .cox import (
    CoxModel,
    cox_elbo_and_grad,
    cox_elbo_terms,
    fitted_intensity,
    sample_inhomogeneous_pp,
)
from .gaussians import NotPositiveDefiniteError, _chol_with_fallback
from .interdomain import (
    GaussianWindowFeature,
    PointFeature,
    assemble_Kuu,
    feature_prior_mean,
)
from .kernels import Kernel
from .optimize import NonFiniteObjectiveError, maximize, raw_gradient, svgp_parameterization
from .svgp import (
    BernoulliProbit,
    GaussianNoise,
    SVGPState,
    collapsed_bound,
    collapsed_bound_and_grad,
    collapsed_optimal_q,
    elbo_and_grad,
    elbo_and_marginals,
    save_checkpoint,
)
from .verify import run_verification

__all__ = ["main", "ConfigError", "DataError"]

TASKS = ("fit-regression", "fit-classification", "fit-cox", "verify", "generate")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VERIFY = 4
EXIT_NUMERICAL = 5


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config handling

# Schema nodes: dict -> nested schema, tuple -> (required, validator).
# A validator returns the coerced value or raises ValueError.


def _is_number(x):
    """A finite JSON number: not a bool, a string, NaN or Infinity."""
    return not isinstance(x, bool) and isinstance(x, (int, float)) and math.isfinite(x)


def _real(x):
    if not _is_number(x):
        raise ValueError(f"must be a finite number, got {x!r}")
    return float(x)


def _positive(x):
    x = _real(x)
    if x <= 0:
        raise ValueError(f"must be positive, got {x}")
    return x


def _nonneg_int(x):
    if not _is_number(x) or int(x) != x or x < 0:
        raise ValueError(f"must be a nonnegative integer, got {x!r}")
    return int(x)


def _positive_int(x):
    v = _nonneg_int(x)
    if v < 1:
        raise ValueError(f"must be a positive integer, got {x!r}")
    return v


def _string(x):
    if not isinstance(x, str):
        raise ValueError(f"must be a string, got {type(x).__name__}")
    return x


def _bool(x):
    if not isinstance(x, bool):
        raise ValueError(f"must be true or false, got {x!r}")
    return x


def _positive_vector(x):
    items = x if isinstance(x, list) else [x]
    if not items or not all(_is_number(v) and v > 0 for v in items):
        raise ValueError(f"must be a list of positive finite numbers, got {x!r}")
    return np.array(items, dtype=float)


def _domain(x):
    rows = x if isinstance(x, list) else []
    if len(rows) not in (1, 2) or not all(
        isinstance(r, list) and len(r) == 2 and all(map(_is_number, r)) for r in rows
    ):
        raise ValueError(
            f"must be [[lo, hi]] or [[lo1, hi1], [lo2, hi2]] of finite numbers, got {x!r}"
        )
    arr = np.array(rows, dtype=float)
    if np.any(arr[:, 0] >= arr[:, 1]):
        raise ValueError(f"every lower bound must be below its upper bound: {x!r}")
    return arr


def _choice(*options):
    def check(x):
        if x not in options:
            raise ValueError(f"must be one of {options}, got {x!r}")
        return x

    return check


def _order_list(x):
    items = x if isinstance(x, list) else [x]
    if len(items) not in (1, 2) or not all(
        _is_number(v) and int(v) == v and v >= 2 for v in items
    ):
        raise ValueError(f"must be 1 or 2 integer orders, each >= 2, got {x!r}")
    return tuple(int(v) for v in items)


KERNEL_SCHEMA = {
    "variance": (True, _positive),
    "lengthscales": (True, _positive_vector),
    "mean": (False, _real),
}

OPTIMIZER_SCHEMA = {
    "max_iters": (False, _positive_int),
    "tol": (False, _positive),
    "optimize_features": (False, _bool),
    # Accepted and ignored: each fit is one L-BFGS-B run with max_iters as
    # its only budget, but the benchmark's fit workloads (bench/inputs.py)
    # still write this key.
    "refine_iters": (False, _nonneg_int),
}

MODEL_COMMON = {
    "kernel": KERNEL_SCHEMA,
    "num_inducing": (True, _positive_int),
    "feature_type": (False, _choice("point", "gwindow")),
    "window_width": (False, _positive),
}

SCHEMAS = {
    "fit-regression": {
        "data": (True, _string),
        "out": (False, _string),
        "seed": (False, _nonneg_int),
        "model": dict(MODEL_COMMON, noise_var=(True, _positive)),
        "optimizer": OPTIMIZER_SCHEMA,
    },
    "fit-classification": {
        "data": (True, _string),
        "out": (False, _string),
        "seed": (False, _nonneg_int),
        "model": MODEL_COMMON,
        "optimizer": OPTIMIZER_SCHEMA,
    },
    "fit-cox": {
        "data": (True, _string),
        "out": (False, _string),
        "seed": (False, _nonneg_int),
        "model": dict(
            MODEL_COMMON,
            link=(False, _choice("exp", "square")),
            domain=(True, _domain),
            quad_orders=(False, _order_list),
        ),
        "optimizer": OPTIMIZER_SCHEMA,
    },
    "verify": {
        "out": (False, _string),
        "seed": (False, _nonneg_int),
        "verify": {
            "instances": (False, _positive_int),
        },
    },
    "generate": {
        "out": (False, _string),
        "seed": (False, _nonneg_int),
        "generate": {
            "kind": (True, _choice("regression", "classification", "cox")),
            "n": (False, _positive_int),
            "domain": (False, _domain),
            "noise_sd": (False, _positive),
            "rate": (False, _positive),
        },
    },
}


def _validate_level(cfg, schema, path, unknown, missing, bad):
    if not isinstance(cfg, dict):
        bad.append(f"{path or '<root>'}: expected an object")
        return {}
    out = {}
    for key, value in cfg.items():
        dotted = f"{path}.{key}" if path else key
        if key not in schema:
            unknown.append(dotted)
            continue
        node = schema[key]
        if isinstance(node, dict):
            out[key] = _validate_level(value, node, dotted, unknown, missing, bad)
        else:
            _, validator = node
            try:
                out[key] = validator(value)
            except (ValueError, TypeError, OverflowError) as exc:
                bad.append(f"{dotted}: {exc}")
    for key, node in schema.items():
        if key not in cfg and _required(node):
            missing.append(f"{path}.{key}" if path else key)
    return out


def _required(node):
    """A required leaf, or a section that holds one."""
    return any(map(_required, node.values())) if isinstance(node, dict) else node[0]


def load_config(path: str, task: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    unknown, missing, bad = [], [], []
    cfg = _validate_level(raw, SCHEMAS[task], "", unknown, missing, bad)
    problems = []
    if unknown:
        problems.append(f"unknown keys: {', '.join(sorted(unknown))}")
    if missing:
        problems.append(f"missing required keys: {', '.join(sorted(missing))}")
    if bad:
        problems.append("; ".join(bad))
    if problems:
        raise ConfigError(f"config {path}: " + "; ".join(problems))
    return cfg


# ---------------------------------------------------------------------------
# CSV handling


def write_csv(path, header, rows):
    """Header, then one line per row, each value written as ``repr(float(v))``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.asarray(rows, dtype=float):
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _reader_error(path, reader, exc):
    """A ``csv`` or UTF-8 decoding failure as a ``DataError`` that names its line; the
    text layer decodes ahead of the reader, so the bytes are decoded again line by line."""
    lineno = reader.line_num
    if isinstance(exc, UnicodeDecodeError):
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as line_exc:
                    exc = line_exc
                    break
    return DataError(f"{path} line {lineno}: {exc}")


def read_csv(path, expected_header):
    """Strict CSV: exact header, rectangular, finite floats; an error names the first bad line."""
    k = len(expected_header)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected header "
                            f"{','.join(expected_header)}") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _reader_error(path, reader, exc) from exc
        if [h.strip() for h in header] != list(expected_header):
            raise DataError(
                f"{path} line 1: header {','.join(header)!r} does not match "
                f"expected {','.join(expected_header)!r}"
            )
        # a fault is raised after the finiteness check, so an earlier
        # non-finite line is the one named
        values, lines, fault = [], [], None
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != k:
                    raise DataError(f"{path} line {lineno}: expected {k} fields, got {len(row)}")
                try:
                    values.extend(map(float, row))
                except ValueError as exc:
                    raise DataError(f"{path} line {lineno}: {exc}") from exc
                lines.append(lineno)
        except (csv.Error, UnicodeDecodeError) as exc:
            fault = _reader_error(path, reader, exc)
        except (ValueError, OSError) as exc:
            fault = exc
    data = np.array(values[:len(lines) * k], dtype=float).reshape(len(lines), k)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise DataError(f"{path} line {lines[int(np.argmin(finite))]}: non-finite value")
    if fault is not None:
        raise fault
    return data


def _x_header(d):
    return [f"x{i + 1}" for i in range(d)]


def read_xy_data(path, input_dim):
    data = read_csv(path, _x_header(input_dim) + ["y"])
    if data.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    return data[:, :input_dim], data[:, input_dim]


def read_events(path, input_dim):
    return read_csv(path, _x_header(input_dim))


def write_json(path, record):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# model setup shared by the fit tasks


def _build_kernel(model_cfg) -> Kernel:
    k = model_cfg["kernel"]
    return Kernel(k["variance"], k["lengthscales"], k.get("mean", 0.0))


def _spread_locations(X, M):
    """Deterministic feature locations: evenly spaced order statistics."""
    n = X.shape[0]
    order = np.lexsort(X.T[::-1])
    picks = np.unique(np.round(np.linspace(0, n - 1, M)).astype(int))
    locs = X[order[picks]]
    if locs.shape[0] < M:
        # duplicates collapsed; fall back to an even grid over the span
        locs = _grid_locations(X.min(axis=0), X.max(axis=0), M)
    return locs


def _grid_locations(lower, upper, M):
    t = (np.arange(M) + 0.5) / M
    return lower + t[:, None] * (upper - lower)


def _make_features(model_cfg, locations):
    kind = model_cfg.get("feature_type", "point")
    if kind == "point":
        return tuple(PointFeature(loc) for loc in locations)
    width = model_cfg.get("window_width")
    if width is None:
        span = locations.max(axis=0) - locations.min(axis=0)
        width = float(np.max(span)) / (2.0 * max(len(locations), 1)) or 0.1
    widths = np.full(locations.shape[1], float(width))
    return tuple(GaussianWindowFeature(loc, widths) for loc in locations)


def _initial_state(features, kernel, likelihood) -> SVGPState:
    Kuu = assemble_Kuu(features, kernel)
    Luu, _ = _chol_with_fallback(Kuu)
    return SVGPState(
        features=features,
        q_mean=feature_prior_mean(features, kernel),
        q_chol=Luu,
        kernel=kernel,
        likelihood=likelihood,
    )


def _fit(state, value_and_grad_of, cfg):
    """One L-BFGS-B fit over q, the hyperparameters and, if asked, the features.

    ``value_and_grad_of`` maps a state to the objective and its model-space
    gradient (``collapsed_bound_and_grad``, ``elbo_and_grad``, ``cox_elbo_and_grad``).
    Returns the fitted state, the trace rows and the summary fields.
    """
    opt = cfg.get("optimizer", {})
    x0, rebuild = svgp_parameterization(state, True, opt.get("optimize_features", False))

    def fused(pv):
        # maximize checks every value and gradient for finiteness itself
        with np.errstate(all="ignore"):
            value, grads = value_and_grad_of(rebuild(pv))
            return value, raw_gradient(pv, grads)

    result = maximize(
        fused, x0, max_iters=opt.get("max_iters", 300), tol=opt.get("tol", 1e-8), jac=True
    )
    fields = {
        "iterations": result.iterations,
        "objective_evaluations": result.evaluations,
        "gradient_evaluations": result.gradient_evaluations,
        "converged": result.converged,
        "stop_reason": result.message,
    }
    return rebuild(result.x), result.records, fields


def _with_optimal_q(state, X, Y):
    """``state`` with q(u) replaced by the closed-form optimum for Gaussian noise."""
    q = collapsed_optimal_q(state.features, state.kernel, X, Y, state.likelihood.noise_var)
    L, _ = _chol_with_fallback(q.cov)
    return replace(state, q_mean=q.mean, q_chol=L)


def _write_fit_artifacts(outdir, state, trace_rows, preds_header, preds_rows, summary):
    os.makedirs(outdir, exist_ok=True)
    save_checkpoint(state, os.path.join(outdir, "checkpoint.json"))
    write_csv(
        os.path.join(outdir, "trace.csv"),
        ["iter", "objective", "step_scale", "grad_norm"],
        trace_rows,
    )
    write_csv(os.path.join(outdir, "predictions.csv"), preds_header, preds_rows)
    write_json(os.path.join(outdir, "summary.json"), summary)


# ---------------------------------------------------------------------------
# tasks


def _task_fit_gaussian_family(task, cfg, outdir, seed):
    model_cfg = cfg["model"]
    kernel = _build_kernel(model_cfg)
    d = kernel.input_dim
    X, Y = read_xy_data(cfg["data"], d)
    if task == "fit-regression":
        likelihood = GaussianNoise(model_cfg["noise_var"])
        value_and_grad_of = lambda s: collapsed_bound_and_grad(s, X, Y)
    else:
        likelihood = BernoulliProbit()
        value_and_grad_of = lambda s: elbo_and_grad(s, X, Y)
    try:
        likelihood.validate_targets(Y)
    except ValueError as exc:
        raise DataError(f"{cfg['data']}: {exc}") from exc
    features = _make_features(model_cfg, _spread_locations(X, model_cfg["num_inducing"]))
    state = _initial_state(features, kernel, likelihood)
    started = time.perf_counter()
    state, rows, fields = _fit(state, value_and_grad_of, cfg)
    if task == "fit-regression":
        state = _with_optimal_q(state, X, Y)
    wall = time.perf_counter() - started
    final, mu, var = elbo_and_marginals(state, X, Y)
    preds = np.column_stack([X, mu, var])
    summary = {
        "task": task,
        "n_data": int(X.shape[0]),
        "num_inducing": len(state.features),
        "seed": seed,
        "final_elbo": final,
        **fields,
        "wall_time_s": wall,
    }
    if task == "fit-regression":
        summary["collapsed_bound"] = collapsed_bound(
            state.features, state.kernel, X, Y, state.likelihood.noise_var
        )
        summary["collapsed_gap"] = summary["collapsed_bound"] - final
    _write_fit_artifacts(
        outdir, state, rows, _x_header(d) + ["mean", "variance"], preds, summary
    )
    print(f"{task}: elbo {final:.6f} after {fields['iterations']} iterations -> {outdir}")
    return EXIT_OK


def _task_fit_cox(cfg, outdir, seed):
    model_cfg = cfg["model"]
    kernel = _build_kernel(model_cfg)
    d = kernel.input_dim
    domain = model_cfg["domain"]
    if domain.shape[0] != d:
        raise ConfigError(
            f"model.domain has {domain.shape[0]} dimensions but the kernel "
            f"has {d} lengthscales"
        )
    events = read_events(cfg["data"], d)
    try:
        model = CoxModel(
            lower=domain[:, 0],
            upper=domain[:, 1],
            events=events,
            link=model_cfg.get("link", "exp"),
            quad_orders=model_cfg.get("quad_orders"),
        )
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    features = _make_features(
        model_cfg, _grid_locations(model.lower, model.upper, model_cfg["num_inducing"])
    )
    state = _initial_state(features, kernel, None)
    started = time.perf_counter()
    state, rows, fields = _fit(state, lambda s: cox_elbo_and_grad(s, model), cfg)
    wall = time.perf_counter() - started
    # the objective's integral term is the fitted intensity integrated over the
    # quadrature grid, so one evaluation gives both
    terms = cox_elbo_terms(state, model)
    final = -terms.kl_term + terms.event_term - terms.integral_term
    integrated = terms.integral_term
    per_axis = 200 if d == 1 else 32
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(model.lower, model.upper)]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    intensity = fitted_intensity(state, model, grid)
    summary = {
        "task": "fit-cox",
        "n_events": model.n_events,
        "num_inducing": len(state.features),
        "seed": seed,
        "final_elbo": final,
        "integrated_intensity": integrated,
        **fields,
        "wall_time_s": wall,
    }
    preds = np.column_stack([grid, intensity])
    _write_fit_artifacts(
        outdir, state, rows, _x_header(d) + ["intensity"], preds, summary
    )
    print(
        f"fit-cox: elbo {final:.6f}, integrated intensity {integrated:.2f} "
        f"over {model.n_events} events -> {outdir}"
    )
    return EXIT_OK


def _task_verify(cfg, outdir, seed):
    instances = cfg.get("verify", {}).get("instances", 100)
    report = run_verification(seed=seed, n_instances=instances)
    os.makedirs(outdir, exist_ok=True)
    write_json(os.path.join(outdir, "report.json"), report)
    status = "pass" if report["all_pass"] else "FAIL"
    print(
        f"verify: {status} over {instances} instances "
        f"(max equivalence diff {report['max_equivalence_diff']:.3e}, "
        f"max chain residual {report['max_chain_residual']:.3e})"
    )
    if not report["all_pass"]:
        failing = [r["instance_seed"] for r in report["instances"] if not r["pass"]]
        print(f"verify: failing instance seeds: {failing}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _sin_mixture(x):
    return np.sin(2.0 * np.pi * x) + 0.5 * np.sin(6.0 * np.pi * x + 0.7)


def _task_generate(cfg, outdir, seed):
    gen = cfg["generate"]
    kind = gen["kind"]
    rng = np.random.default_rng(seed)
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "dataset.csv")
    domain = gen.get("domain")
    if kind in ("regression", "classification"):
        n = gen.get("n", 100)
        lo, hi = (domain[0] if domain is not None else (0.0, 1.0))
        x = np.sort(rng.uniform(lo, hi, size=n))
        t = (x - lo) / (hi - lo)
        latent = _sin_mixture(t)
        noise_sd = gen.get("noise_sd", 0.3)
        if kind == "regression":
            y = latent + noise_sd * rng.standard_normal(n)
        else:
            y = np.where(latent + noise_sd * rng.standard_normal(n) >= 0, 1.0, -1.0)
        write_csv(path, ["x1", "y"], np.column_stack([x, y]))
        print(f"generate: wrote {n} {kind} rows -> {path}")
        return EXIT_OK
    # cox: thin a rate * (1 + sin) intensity along the first coordinate
    domain = domain if domain is not None else np.array([[0.0, 1.0]])
    rate = gen.get("rate", 100.0)
    lower, upper = domain[:, 0], domain[:, 1]

    def intensity(pts):
        t = (pts[:, 0] - lower[0]) / (upper[0] - lower[0])
        return rate * (1.0 + np.sin(2.0 * np.pi * t))

    events = sample_inhomogeneous_pp(
        intensity, 2.0 * rate, lower, upper, seed=seed
    )
    write_csv(path, _x_header(domain.shape[0]), events)
    print(f"generate: wrote {events.shape[0]} cox events -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsekl",
        description="Sparse variational Gaussian process inference and verification.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.task)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        outdir = args.out if args.out is not None else cfg.get("out", "sparsekl-out")
        if "data" in SCHEMAS[args.task] and not os.path.exists(cfg["data"]):
            raise ConfigError(f"data path does not exist: {cfg['data']}")
        if args.task in ("fit-regression", "fit-classification"):
            return _task_fit_gaussian_family(args.task, cfg, outdir, seed)
        if args.task == "fit-cox":
            return _task_fit_cox(cfg, outdir, seed)
        if args.task == "verify":
            return _task_verify(cfg, outdir, seed)
        return _task_generate(cfg, outdir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NotPositiveDefiniteError, NonFiniteObjectiveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
