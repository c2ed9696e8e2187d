"""The benchmark's named spans must name public adjointlab functions.

`perfbench/spans.py` wraps functions by (module, name); a renamed or deleted
function silently drops its per-layer metrics, so the names are checked here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_named_spans_are_public_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.NAMED
    for module, name in spans.NAMED:
        mod = importlib.import_module(f"adjointlab.{module}")
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn), f"{module}.{name} is not a function"
        assert not name.startswith("_"), f"{module}.{name} is private"
        assert fn.__module__ == f"adjointlab.{module}", f"{module}.{name} is not defined there"
