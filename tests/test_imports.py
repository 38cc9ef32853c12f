"""No unused top-level import in the package or its tests, and no private
name imported across the package's modules.

A name bound by a module-level import must be read somewhere in its file.
An import line marked `# noqa` is exempt, for a binding kept on purpose
for another module, and so is a package `__init__.py`, which re-exports
what it imports.  A module under `src/` imports no underscore-prefixed
name from another `rado_lab` module: such a name is private to its module.
"""

import ast
from pathlib import Path

import pytest

import rado_lab
from rado_lab import errors

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))
FILES = [
    path for path in SRC + sorted((ROOT / "tests").rglob("*.py")) if path.name != "__init__.py"
]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    bound[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_checker_flags_an_unused_import_and_honours_noqa():
    source = (
        "from __future__ import annotations\nimport os\nimport sys\n"
        "import json  # noqa: F401\nfrom a import (\n    b as c,\n    d,\n)\nimport e.f\n"
        "sys.exit(c(e.f))\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 7: d"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names imported from a `rado_lab` module, at any depth."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "rado_lab")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_checker_flags_a_private_import():
    source = (
        "from __future__ import annotations\nfrom .geometry import norm, _facets\n"
        "from os import _exit\ndef f():\n    from rado_lab.cli import _load\n"
    )
    assert private_imports(source) == ["line 2: _facets", "line 5: _load"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_name_imported_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_every_error_type_is_exported():
    defined = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.RadoLabError)
    }
    assert defined - set(rado_lab.__all__) == set()
