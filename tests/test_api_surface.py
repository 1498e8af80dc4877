"""Every top-level name of ``rvbsim`` has a caller outside the tests.

A top-level ``def``, ``class`` or module constant of ``src/rvbsim/*.py``
counts as used when it is referenced from

- ``src/rvbsim`` outside its own definition (the ``__init__`` re-exports
  do not count),
- ``demos/``,
- ``perfbench/*.py``, where loaded names, attributes and dotted string
  constants such as ``spans.TARGETS`` entries all count, or
- code in the README (inline code spans and fenced blocks).

A name that only tests call belongs in ``tests/`` or nowhere.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rvbsim"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
_IDENT = re.compile(r"[A-Za-z_]\w*")


def _definitions(tree: ast.Module):
    """(name, statement) for each top-level def, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:  # a tuple target defines each of its names
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(node: ast.AST, strings: bool = False) -> set[str]:
    """Names loaded and attributes read under ``node``; with ``strings``, dotted constants too."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _DOTTED.fullmatch(sub.value):
                out.update(sub.value.split("."))
    return out


def _readme_code() -> set[str]:
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```", text, flags=re.S)
    code += re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(_IDENT.findall("\n".join(code)))


def _unused_names() -> list[str]:
    modules = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    outside = _readme_code()
    for path in sorted((ROOT / "demos").glob("*.py")):
        outside |= _references(ast.parse(path.read_text()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _references(ast.parse(path.read_text()), strings=True)
    # references per top-level statement, so a definition does not count for itself
    statements = [(stmt, _references(stmt)) for tree in modules.values() for stmt in tree.body]
    unused = []
    for path, tree in modules.items():
        for name, node in _definitions(tree):
            callers = [stmt for stmt, refs in statements if name in refs and stmt is not node]
            if name not in outside and not callers:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_library_name_has_a_non_test_caller():
    assert _unused_names() == []
