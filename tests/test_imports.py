"""Every module of the package and of the test suite reads each name it imports.

An AST scan: a name bound by ``import`` or ``from ... import`` must be read
(an ``ast.Name`` in load context) somewhere in the same module.  The
package's ``__init__`` imports in order to re-export and is skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "nchns").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unread_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_flags_an_unread_import():
    source = ("from functools import cached_property, partial\n"
              "import numpy as np\nimport os.path\n"
              "x = partial(np.sum)\ny = os.path.sep\n")
    assert unread_imports(source) == [(1, "cached_property")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []
