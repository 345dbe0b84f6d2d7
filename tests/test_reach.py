"""Every public name the package defines is read by the package or the benchmark.

An AST scan, like ``test_imports.py``.  The names checked are the public
module-level functions and classes of ``src/nchns`` and the public methods
(properties and class methods included) of those classes.  A name counts as
reached when a module of ``src/nchns`` or a script under ``perfbench/``
reads it, as an ``ast.Name`` in load context or as the attribute of an
``ast.Attribute``.  The package's ``__init__`` only re-exports, so its
reads do not count, and the test suite's reads do not count either: code
that only the tests read belongs in ``tests/oracles.py``.

The scan matches by name, not by binding, so a read of a same-named
variable elsewhere also counts; it errs towards passing.

``config.py`` is skipped, as a definer and as a reader: no solve reads it,
and it goes once the benchmark's tracer test stops importing it (ROADMAP
item 2).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nchns"
SKIPPED = {"__init__.py", "config.py"}
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in SKIPPED)
READERS = [*SOURCES, *sorted((ROOT / "perfbench").rglob("*.py"))]


def public_definitions(source: str) -> list:
    """(qualified name, name) of each public function, class and method."""
    out = []
    for node in ast.parse(source).body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{m.name}", m.name) for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def read_names(source: str) -> set:
    """Every name a module reads, as a variable or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unreached(sources: dict, readers: dict) -> list:
    """Qualified names defined in ``sources`` that no module of ``readers`` reads."""
    read = set().union(*(read_names(text) for text in readers.values()))
    return sorted(qual for text in sources.values()
                  for qual, name in public_definitions(text) if name not in read)


def test_scan_flags_a_definition_only_an_outsider_reads():
    lib = ("class Field:\n"
           "    def copy(self):\n        return self\n"
           "    @classmethod\n    def from_function(cls, fn):\n        return cls()\n"
           "def used(f):\n    return f.copy()\n"
           "def only_tested():\n    return used(Field())\n"
           "def _private():\n    pass\n")
    caller = "from lib import used\nused(None)\n"
    assert unreached({"lib": lib}, {"lib": lib, "caller": caller}) == [
        "Field.from_function", "only_tested"]


def test_every_public_name_is_reached():
    readers = {p: p.read_text() for p in READERS}
    assert unreached({p: readers[p] for p in SOURCES}, readers) == []
