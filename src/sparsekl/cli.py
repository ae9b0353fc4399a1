"""Command line interface.

    sparsekl <task> --config <path> [--seed N] [--out DIR]

Tasks: fit-regression, fit-classification, fit-cox, verify, generate.
Configuration is a single JSON file; unknown keys anywhere in it are
rejected with a message listing them.  Artifacts are deterministic
given the config and seed, except for the recorded wall time.

Every fit task is one run (:func:`_task_fit`): its setup, one fit from
q at the prior, and one factorization at the fitted state that serves the
closed-form q for Gaussian noise, the conversion and its report.  Only the
setup and the report depend on the task.

Exit codes: 0 success, 2 config error, 3 data error, 4 verification
failure, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import math
import os
import re
import sys
import time

import numpy as np

from .cox import (
    LINKS,
    CoxModel,
    _tensor_grid,
    cox_elbo_and_grad,
    expected_rate,
    sample_inhomogeneous_pp,
)
from .gaussians import NotPositiveDefiniteError
from .interdomain import GaussianWindowFeature
from .kernels import Kernel, is_json_number, write_json
from .optimize import NonFiniteObjectiveError, maximize, raw_gradient, svgp_parameterization
from .svgp import (
    BernoulliProbit,
    GaussianNoise,
    WhitenedState,
    _fitted_pass,
    collapsed_bound_and_grad,
    elbo_and_grad,
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
    return is_json_number(x) and math.isfinite(x)


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

RUN_KEYS = {
    "out": (False, _string),
    "seed": (False, _nonneg_int),
}


def _fit_schema(**model_keys):
    """A fit task's schema: its data, the run keys, its model's keys and the optimizer."""
    return {
        "data": (True, _string),
        **RUN_KEYS,
        "model": dict(MODEL_COMMON, **model_keys),
        "optimizer": OPTIMIZER_SCHEMA,
    }


SCHEMAS = {
    "fit-regression": _fit_schema(noise_var=(True, _positive)),
    "fit-classification": _fit_schema(),
    "fit-cox": _fit_schema(
        link=(False, _choice(*LINKS)),
        domain=(True, _domain),
        quad_orders=(False, _order_list),
    ),
    "verify": {
        **RUN_KEYS,
        "verify": {
            "instances": (False, _positive_int),
        },
    },
    "generate": {
        **RUN_KEYS,
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
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%r"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + (line * len(rows)) % tuple(rows.ravel().tolist()))


_LINE_END = re.compile(rb"\r\n?|\n")


def read_csv(path, expected_header):
    """Strict CSV: exact header, rectangular, finite floats; an error names the first
    bad line in file order.  The file is read and decoded once."""
    k = len(expected_header)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    # every fault is raised after the finiteness check, so an earlier
    # non-finite line is the one named
    try:
        text, fault = raw.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        # the lines before the undecodable one are parsed; its fault is the
        # error that decoding it alone, with its line ending, raises.  Lines
        # end as csv ends them: at LF, CRLF or a lone CR.
        start = max(raw.rfind(b"\n", 0, exc.start), raw.rfind(b"\r", 0, exc.start)) + 1
        end = _LINE_END.search(raw, exc.start)
        line = raw[start:end.end() if end else None]
        exc = UnicodeDecodeError(exc.encoding, line, exc.start - start, exc.end - start, exc.reason)
        lineno = len(_LINE_END.findall(raw, 0, start)) + 1
        fault = DataError(f"{path} line {lineno}: {exc}")
        text = raw[:start].decode("utf-8")
    reader = csv.reader(io.StringIO(text, newline=""))
    values, lines = [], []
    try:
        header = next(reader, None)
        if header is None:
            raise fault or DataError(f"{path}: empty file, expected header "
                                     f"{','.join(expected_header)}")
        if [h.strip() for h in header] != list(expected_header):
            raise DataError(f"{path} line 1: header {','.join(header)!r} does not match "
                            f"expected {','.join(expected_header)!r}")
        end = reader.line_num
        for row in reader:
            # a record starts on the line after the previous one ends
            lineno, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != k:
                raise DataError(f"{path} line {lineno}: expected {k} fields, got {len(row)}")
            try:
                values.extend(map(float, row))
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from exc
            lines.append(lineno)
    except csv.Error as exc:
        fault = DataError(f"{path} line {reader.line_num}: {exc}")
    except ValueError as exc:
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
    point = model_cfg.get("feature_type", "point") == "point"
    width = 0.0 if point else model_cfg.get("window_width")
    if width is None:
        span = locations.max(axis=0) - locations.min(axis=0)
        width = float(np.max(span)) / (2.0 * max(len(locations), 1)) or 0.1
    return tuple(GaussianWindowFeature(loc, width) for loc in locations)


def _initial_state(features, kernel, likelihood) -> WhitenedState:
    """q(u) at the prior: ``alpha = 0`` and ``half = I`` in whitened coordinates."""
    M = len(features)
    return WhitenedState(features, np.zeros(M), np.eye(M), kernel, likelihood)


def _fit(state, value_and_grad_of, cfg):
    """One L-BFGS-B fit over q, the hyperparameters and, if asked, the features.

    ``value_and_grad_of`` maps a state to the objective and its model-space
    gradient (``collapsed_bound_and_grad``, ``elbo_and_grad``, ``cox_elbo_and_grad``).
    Returns the fitted :class:`WhitenedState`, the trace rows and the summary fields.
    """
    opt = cfg.get("optimizer", {})
    x0, rebuild = svgp_parameterization(state, True, opt.get("optimize_features", False))

    def fused(pv):
        # maximize checks every value and gradient for finiteness itself
        with np.errstate(all="ignore"):
            value, grads = value_and_grad_of(rebuild(pv))
            return value, raw_gradient(pv, grads)

    result = maximize(fused, x0, max_iters=opt.get("max_iters", 300), tol=opt.get("tol", 1e-8))
    fields = {
        "iterations": result.iterations,
        "objective_evaluations": result.evaluations,
        "gradient_evaluations": result.gradient_evaluations,
        "converged": result.converged,
        "stop_reason": result.message,
    }
    return rebuild(result.x), result.records, fields


# ---------------------------------------------------------------------------
# tasks


def _task_fit(task, cfg, outdir, seed):
    """Every fit task: its setup, one fit from q at the prior, one post-fit pass, its report."""
    model_cfg = cfg["model"]
    # a setting that the features do not read is an error, not silently dropped
    if "window_width" in model_cfg and model_cfg.get("feature_type", "point") == "point":
        raise ConfigError("model.window_width does not apply to feature_type 'point'")
    kernel = _build_kernel(model_cfg)
    d = kernel.input_dim
    # setup: the data, the likelihood or Cox model, the objective, the starting
    # locations and the rows the report covers
    if task == "fit-cox":
        domain, orders = model_cfg["domain"], model_cfg.get("quad_orders")
        # quad_orders gives one order per dimension, like the domain's rows
        for key, size in (("domain", domain.shape[0]), ("quad_orders", len(orders or domain))):
            if size != d:
                raise ConfigError(f"model.{key} has {size} dimensions but the kernel has {d} lengthscales")
        events = read_events(cfg["data"], d)
        try:
            model = CoxModel(
                lower=domain[:, 0],
                upper=domain[:, 1],
                events=events,
                link=model_cfg.get("link", CoxModel.link),
                quad_orders=orders,
            )
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        likelihood, objective, data, covered = None, cox_elbo_and_grad, (model,), (model.points, None, model)
        locations = _grid_locations(model.lower, model.upper, model_cfg["num_inducing"])
    else:
        data = covered = X, Y = read_xy_data(cfg["data"], d)
        if task == "fit-regression":
            likelihood, objective = GaussianNoise(model_cfg["noise_var"]), collapsed_bound_and_grad
        else:
            likelihood, objective = BernoulliProbit(), elbo_and_grad
        try:
            likelihood.validate_targets(Y)
        except ValueError as exc:
            raise DataError(f"{cfg['data']}: {exc}") from exc
        locations = _spread_locations(X, model_cfg["num_inducing"])
    state = _initial_state(_make_features(model_cfg, locations), kernel, likelihood)
    started = time.perf_counter()
    state, rows, fields = _fit(state, lambda s: objective(s, *data), cfg)
    # the stored state and one pass at it over the covered rows, from one factorization
    state, fp, bound = _fitted_pass(state, *covered)
    wall = time.perf_counter() - started
    # report: the final objective, the predictions, the task's summary fields and line
    values = fp.moments()[0]
    final = fp.factors.lik.total(values, fp.kl)
    if task == "fit-cox":
        # the objective's integral term is the fitted intensity integrated over the
        # quadrature grid, so the pass gives both; the prediction grid is a pass at
        # the same q over the same factor of Kuu
        per_axis = 200 if d == 1 else 32
        grid = _tensor_grid([np.linspace(lo, hi, per_axis) for lo, hi in zip(model.lower, model.upper)])
        g = fp.rows(grid)
        columns, preds = ["intensity"], np.column_stack([grid, expected_rate(model.link, g.mean, g.var)])
        reported = {"n_events": model.n_events, "final_elbo": final,
                    "integrated_intensity": model.terms(values, fp.kl).integral_term}
        line = ("{task}: elbo {final_elbo:.6f}, integrated intensity "
                "{integrated_intensity:.2f} over {n_events} events")
    else:
        columns, preds = ["mean", "variance"], np.column_stack([X, fp.mean, fp.var])
        reported = {"n_data": int(X.shape[0]), "final_elbo": final}
        if bound is not None:
            reported.update(collapsed_bound=bound, collapsed_gap=bound - final)
        line = "{task}: elbo {final_elbo:.6f} after {iterations} iterations"
    # summary.json: the head keys the task reports, then the optimizer's fields, the
    # wall time and the rest of the report
    record = {"task": task, "num_inducing": len(state.features), "seed": seed, **fields,
              "wall_time_s": wall, **reported}
    head = ("task", "n_data", "n_events", "num_inducing", "seed", "final_elbo", "integrated_intensity")
    summary = {key: record.pop(key) for key in head if key in record} | record
    os.makedirs(outdir, exist_ok=True)
    save_checkpoint(state, os.path.join(outdir, "checkpoint.json"))
    write_csv(
        os.path.join(outdir, "trace.csv"),
        ["iter", "objective", "step_scale", "grad_norm"],
        rows,
    )
    write_csv(os.path.join(outdir, "predictions.csv"), _x_header(d) + columns, preds)
    write_json(os.path.join(outdir, "summary.json"), summary)
    print(f"{line.format(**summary)} -> {outdir}")
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
    domain = gen.get("domain")
    # a setting that this kind does not read is an error, not silently dropped
    for key in ("n", "noise_sd") if kind == "cox" else ("rate",):
        if key in gen:
            raise ConfigError(f"generate.{key} does not apply to kind {kind!r}")
    if kind != "cox" and domain is not None and domain.shape[0] != 1:
        raise ConfigError(f"generate.domain must be one row [[lo, hi]] for kind {kind!r}")
    rng = np.random.default_rng(seed)
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "dataset.csv")
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


# glibc's own settings of its allocator, which the CLI never overrides
_MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_"}


def _keep_freed_heap() -> bool:
    """Keep the heap memory this process frees mapped, so that each fit evaluation
    reuses its M x n arrays' pages instead of faulting them in again.

    By default glibc unmaps a freed block above its mmap threshold and trims the
    heap's free top, so a block of 640 KB (M = 20, n = 4,000) costs a page fault
    per 4 KB on every evaluation.  ``mallopt`` raises the mmap threshold to
    32 MiB, glibc's 64-bit maximum, and then the trim threshold to 128 MiB;
    either alone leaves more faults than the default.  Returns whether both were
    set: not when the user set glibc's own ``MALLOC_*_`` or ``glibc.malloc.``
    tunables, and not without glibc's ``mallopt``.
    """
    if _MALLOC_ENV & os.environ.keys() or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return mallopt(m_mmap_threshold, 32 << 20) == 1 and mallopt(m_trim_threshold, 128 << 20) == 1


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.task)
        # --seed and --out follow the config's rules for the keys they override
        for key, (_, validator) in RUN_KEYS.items():
            if getattr(args, key) is not None:
                try:
                    cfg[key] = validator(getattr(args, key))
                except ValueError as exc:
                    raise ConfigError(f"--{key}: {exc}") from None
        seed, outdir = cfg.get("seed", 0), cfg.get("out", "sparsekl-out")
        if "data" in SCHEMAS[args.task] and not os.path.exists(cfg["data"]):
            raise ConfigError(f"data path does not exist: {cfg['data']}")
        if os.path.exists(outdir) and not os.path.isdir(outdir):
            raise ConfigError(f"output path exists and is not a directory: {outdir}")
        if args.task.startswith("fit-"):
            return _task_fit(args.task, cfg, outdir, seed)
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
