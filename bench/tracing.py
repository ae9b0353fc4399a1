"""Spans around the public functions of sparsekl, recorded from outside.

Modules bind functions by name at import (``cli`` binds ``elbo``,
``svgp`` binds ``assemble_Kuu``), so ``install`` rebinds every
``sparsekl.*`` module attribute that is the original function object,
not only the defining module's attribute.  Spans (name, start, end,
parent) are kept in memory; ``layer_stats`` turns them into calls and
self time, where self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = (
    "cli.main",
    "cli.read_csv",
    "cli.write_csv",
    "cli.write_json",
    "optimize.maximize",
    "optimize.numeric_grad",
    "svgp.elbo",
    "svgp.collapsed_bound",
    "svgp.collapsed_optimal_q",
    "svgp.predictive_marginals",
    "svgp.save_checkpoint",
    "gaussians.mvn_logpdf",
    "gaussians.mvn_kl",
    "gaussians.cholesky_jittered",
    "interdomain.assemble_Kuu",
    "interdomain.assemble_Kuf",
    "interdomain.feature_feature_cov_quadrature",
    "kernels.kernel_matrix",
    "cox.cox_elbo",
    "cox.legendre_grid",
    "finite_oracle.check_finite_equivalence",
    "finite_oracle.augmentation_gap",
    "finite_oracle.deterministic_union_kl",
    "verify.instance_record",
    "verify.quadrature_crosschecks",
)

OBJECTIVES = ("svgp.elbo", "cox.cox_elbo")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self._bindings = []

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "sparsekl" or n.startswith("sparsekl.")]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"sparsekl.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._bindings.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in self._bindings:
            setattr(mod, key, original)
        self._bindings.clear()

    def layer_stats(self):
        """Calls and self seconds per traced name, and objective calls
        made inside ``optimize.maximize``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {name: {"calls": 0, "self_s": 0.0} for name in TRACED}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            stats[name]["calls"] += 1
            stats[name]["self_s"] += end - start - covered
        in_maximize = [False] * len(self.spans)
        objective_calls = 0
        for i, (name, _, _, parent) in enumerate(self.spans):
            inside = parent >= 0 and (in_maximize[parent]
                                      or self.spans[parent][0] == "optimize.maximize")
            in_maximize[i] = inside
            if inside and name in OBJECTIVES:
                objective_calls += 1
        return stats, objective_calls

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")
