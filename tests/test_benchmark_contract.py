"""The names the benchmark's layer tracer wraps must exist in the library.

``perfbench/spans.py`` replaces each ``(module, attribute)`` of its ``WRAPPED``
table at run time and reads the bound arguments of some calls.  A missing
name only prints "untraced" there, so a rename would silently drop a layer
from the benchmark; these tests fail instead.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from mmdtube import bootstrap, tube

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    missing = [f"{module}.{attr}" for module, attr, _ in load_spans().WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_captured_calls_keep_the_parameters_the_checks_read():
    boot = inspect.signature(bootstrap.bootstrap_deviation_quantile).parameters
    assert {"data", "lam", "spec", "m_b", "seed"} <= set(boot)
    assert "op" in inspect.signature(tube.propagate_tube).parameters
