"""Every library name that the benchmark's tracer wraps still exists.

perfbench/tracing.py skips a binding whose attribute is gone, so a renamed
or deleted layer would silently drop its metrics; this test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.BINDINGS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracing.BINDINGS and missing == []
