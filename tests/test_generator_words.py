"""Only `grid` reads the generator's own words.

`grid` replays `random.Random` draws from its 32-bit words and winds the
generator back, through `getrandbits`, `getstate` and `setstate`.  Every
other module under `src/` draws through `randrange` or through `grid`, so
the rule that turns words into draws is written in one place.  An AST scan
refuses any use of the three methods outside `grid.py`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))
GRID = ROOT / "src" / "rado_lab" / "grid.py"
WORD_METHODS = {"getrandbits", "getstate", "setstate"}


def word_uses(source: str) -> list[tuple[int, int, str]]:
    """Every attribute or name in the source that is one of `WORD_METHODS`,
    in source order."""
    return sorted(
        (node.lineno, node.col_offset, name)
        for node in ast.walk(ast.parse(source))
        if (name := getattr(node, "attr", None) or getattr(node, "id", None)) in WORD_METHODS
    )


def test_checker_flags_the_word_methods():
    source = (
        "import random\nrng = random.Random(1)\nrng.randrange(5)\nrng.getrandbits(32)\n"
        "state = rng.getstate\nfrom random import setstate\nsetstate(state())\n"
    )
    assert word_uses(source) == [(4, 0, "getrandbits"), (5, 8, "getstate"), (7, 0, "setstate")]


def test_grid_reads_the_words():
    assert word_uses(GRID.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "path", [p for p in SRC if p != GRID], ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_other_module_reads_the_words(path):
    assert word_uses(path.read_text(encoding="utf-8")) == []
