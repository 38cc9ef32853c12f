"""The library runs in one process and one thread.

`s0_experiment` runs its trials in a plain loop, and `bf_run` is one
cursor loop, so a run's trace and counters describe a single process.  An
AST scan refuses any import of `concurrent.futures`, `multiprocessing` or
`threading`, or of a submodule of one, at any depth of a module under
`src/`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))
POOL_MODULES = ("concurrent.futures", "multiprocessing", "threading")


def pool_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each import in the source that names one of
    `POOL_MODULES` or a submodule of one, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        found += [
            (node.lineno, name) for name in names
            if any(name == m or name.startswith(m + ".") for m in POOL_MODULES)
        ]
    return sorted(found)


def test_checker_flags_pool_imports_at_any_depth():
    source = (
        "import os, threading\nfrom concurrent import futures\n"
        "def f():\n    from concurrent.futures import ProcessPoolExecutor\n"
        "    import multiprocessing.pool as mp\n"
        "import concurrent\nfrom . import threading_notes\nimport threadpoolctl\n"
    )
    assert pool_imports(source) == [
        (1, "threading"),
        (2, "concurrent.futures"),
        (4, "concurrent.futures"),
        (4, "concurrent.futures.ProcessPoolExecutor"),
        (5, "multiprocessing.pool"),
    ]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_imports_a_worker_pool(path):
    assert pool_imports(path.read_text(encoding="utf-8")) == []
