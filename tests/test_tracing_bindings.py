"""Every library name that the benchmark's tracer wraps still exists, and its
counts read real results.

perfbench/tracing.py skips a binding whose attribute is gone, so a renamed
or deleted layer would silently drop its metrics; the first test fails
instead.  A count hook that reads a renamed result field fails only in a
traced run, so the second test makes one, in-process.
"""

import importlib
import importlib.util
import json
import os
from pathlib import Path

from rado_lab import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_binding_resolves():
    tracing = load_tracing()
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.BINDINGS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracing.BINDINGS and missing == []


def test_traced_counts_read_the_results(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    with load_tracing().Tracer() as tracer:
        assert cli.main(["sample-graph", "--ball", "builtin:cube_2", "--n", "12", "--window",
                         "2", "--seed", "3", "--out", str(graph)]) == 0
        assert cli.main(["bj-audit", "--graph", str(graph), "--kmax", "3",
                         "--out", os.devnull]) == 0
        assert cli.main(["bf-run", "--ball", "builtin:cube_1", "--nu", "4", "--fibre", "3",
                         "--p", "1/2", "--budget", "4", "--seed", "1", "--out", os.devnull]) == 0
    capsys.readouterr()
    metrics = tracer.summarize()
    edges = len(json.loads(graph.read_text())["edges"])  # p = 1: the unit graph's own edges
    assert edges > 0
    assert metrics["sample_typical_points.points"] == 12
    assert metrics["unit_graph.edges"] == edges
    assert metrics["make_fibred_sample.points"] == 4 * 3
