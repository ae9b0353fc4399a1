"""The names the benchmark binds in sparsekl exist and are callable.

``bench/tracing.py`` wraps every ``TRACED`` name with ``getattr`` when a
traced run starts, ``bench/task.py`` reloads checkpoints through the
package, and ``bench/sweep.py`` (the layer sweep of a traced run) imports
the layers it times, so a renamed or deleted function would break
``bench/run.py`` without failing any other test.  ``bench/`` is read here,
never imported as a package (``sweep.py``'s imports are read with ``ast``),
so nothing under it changes.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
SWEEP = BENCH / "sweep.py"

# what bench/task.py reads
TASK_NAMES = (
    "sparsekl.load_checkpoint",
    "sparsekl.elbo",
    "sparsekl.cox_elbo",
    "sparsekl.CoxModel",
    "sparsekl.cli.main",
    "sparsekl.cli.read_events",
    "sparsekl.cli.read_xy_data",
)


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_names():
    """The names ``bench/sweep.py`` imports ``from sparsekl``."""
    tree = ast.parse(SWEEP.read_text(encoding="utf-8"))
    return [
        f"sparsekl.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sparsekl"
        for alias in node.names
    ]


def _bound_names():
    tracing = _tracing()
    traced = [f"sparsekl.{name}" for name in tracing.TRACED + tracing.OBJECTIVES]
    assert traced, "bench/tracing.py lists no names"
    swept = _sweep_names()
    assert swept, "bench/sweep.py imports no names from sparsekl"
    return list(dict.fromkeys(traced + list(TASK_NAMES) + swept))


@pytest.mark.parametrize("dotted", _bound_names())
def test_bound_name_is_a_callable_attribute(dotted):
    module, _, attr = dotted.rpartition(".")
    assert callable(getattr(importlib.import_module(module), attr, None)), dotted
