"""Checks on the package source itself, by the standard library alone."""

from __future__ import annotations

import ast
from pathlib import Path

import ova360

MODULES = sorted(Path(ova360.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names tree's import statements bind that no expression reads
    and __all__ does not list, in source order."""
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                # `import a.b` binds a
                bound += [(node.lineno, a.asname or a.name.partition(".")[0])
                          for a in node.names]
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for line, name in sorted(bound)
            if name not in used]


def test_every_imported_name_is_used():
    assert {p.name for p in MODULES} >= {"__init__.py", "matrix.py", "cli.py"}
    unused = {p.name: _unused_imports(ast.parse(p.read_text(encoding="utf-8")))
              for p in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport math\n"
                     "import numpy as np\nfrom functools import cache, lru_cache\n"
                     "from os import path\n__all__ = ['path']\n"
                     "np.zeros(math.pi)\n@cache\ndef f(): pass\n")
    assert _unused_imports(tree) == ["lru_cache (line 4)"]
