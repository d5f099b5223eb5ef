"""Every name the benchmark tracer wraps still exists on the package.

``bench/tracer.py`` replaces the functions in its ``TARGETS`` table, and
``dvr.LinearOperator`` and ``dvr.eigsh``, with timed wrappers; a missing
name would only surface when a traced benchmark run fails.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _hooked_names():
    # Executed from source, so nothing is written next to the tracer.
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    targets = [(module, attr) for module, attr, _ in namespace["TARGETS"]]
    return targets + [("dvr", "LinearOperator"), ("dvr", "eigsh")]


@pytest.mark.parametrize("module_name,attr", _hooked_names())
def test_tracer_hooks_resolve(module_name, attr):
    module = importlib.import_module(f"splittrap.{module_name}")
    assert callable(getattr(module, attr, None)), f"splittrap.{module_name}.{attr} is gone"
