"""Checks on the package source itself, by the standard library alone."""

from __future__ import annotations

import ast
import re
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


def _private_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each private function, class and constant that
    tree defines at module level: one leading underscore, not a dunder."""
    named = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            named.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            named += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in named
            if name.startswith("_") and not name.startswith("__")]


def _read_names(trees: list[ast.Module]) -> set[str]:
    """The names trees read: as a variable, as an attribute or through
    a from-import."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return read


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names of sources (module name -> text)
    that no module reads, as 'module: name (line n)'."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = _read_names(list(trees.values()))
    return [f"{name}: {var} (line {line})" for name, tree in trees.items()
            for line, var in _private_names(tree) if var not in read]


def test_every_private_name_is_read():
    # a helper left without a caller fails here, as an unused import does
    # above; the package is read as a whole, as private names cross modules
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": "import math\n_WHEEL = 30\n_WHEEL_LINES = (1, 7)\n__all__ = []\n"
                "def _strike(n): return n\nclass _Seg: pass\n_used: int = 2\n"
                "def f(): return math.gcd(_used, 4) + _Seg.x\n",
        "b.py": "from .a import _strike\nimport a\nprint(a._WHEEL)\n"
                "def _stranded(): pass\n",
    }
    assert _unread_private_names(sources) == ["a.py: _WHEEL_LINES (line 3)",
                                              "b.py: _stranded (line 4)"]


# the bound may be named in the text or passed in, as check_range does
_RANGE_MESSAGE = re.compile(r"must be >= .*, got|exceeds .*(bound|\{\})")


def _hand_written_range_messages(tree: ast.Module) -> list[str]:
    """The raises of DomainError or BoundError in tree whose message
    words one of errors.check_range's two, as 'line n: template' with
    {} for each formatted value."""
    found = []
    for node in ast.walk(tree):
        exc = node.exc if isinstance(node, ast.Raise) else None
        func = getattr(exc, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) not in (
                "DomainError", "BoundError"):
            continue
        for part in ast.walk(exc):
            if isinstance(part, ast.JoinedStr):
                text = "".join(v.value if isinstance(v, ast.Constant) else "{}"
                               for v in part.values)
                if _RANGE_MESSAGE.search(text):
                    found.append(f"line {node.lineno}: {text}")
    return found


def test_range_messages_are_worded_in_errors_only():
    # every below-domain and past-bound check goes through check_range
    written = {p.name: _hand_written_range_messages(
        ast.parse(p.read_text(encoding="utf-8"))) for p in MODULES}
    assert len(written.pop("errors.py")) == 2
    assert {name: found for name, found in written.items() if found} == {}


def test_a_hand_written_range_message_is_found():
    tree = ast.parse(
        "from . import errors\nfrom .errors import BoundError, DomainError\n"
        "def f(n):\n"
        "    if n < 1: raise DomainError(f'n must be >= 1, got {n}')\n"
        "    if n > 9:\n"
        "        raise errors.BoundError(\n"
        "            f'n {n} exceeds scan '\n"
        "            f'bound {9}')\n"
        "    if n % 2: raise DomainError(f'n must be even and >= 6, got {n}')\n"
        "    if n > 8: raise BoundError(f'{n} alpha values exceed bound 8')\n"
        "    if n > 7: raise ValueError(f'n {n} exceeds bound 7')\n"
        "    if n > 6: raise BoundError(f'n {n} exceeds {n}')\n"
        "    raise DomainError('--to must be >= --from')\n")
    assert _hand_written_range_messages(tree) == [
        "line 4: n must be >= 1, got {}", "line 6: n {} exceeds scan bound {}",
        "line 12: n {} exceeds {}"]
