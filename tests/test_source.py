"""Static checks on the library source."""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "iml"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; entries of `__all__` count as reads."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return sorted(imported - used)


def test_unused_imports_detector():
    src = "from __future__ import annotations\nimport os, sys\nimport a.b as c\n" \
          "from m import x, y as z\n__all__ = ['x']\nsys.exit(z)\n"
    assert unused_imports(src) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _reads(tree: ast.AST) -> Counter:
    """Names read in `tree`: loaded names and attribute names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def unreferenced_defs(sources: list[str], external: set[str]) -> list[str]:
    """Top-level functions and classes of `sources` that nothing reads.

    A read counts when it is in any of `sources`, outside the definition's
    own body, or when the name is in `external`.
    """
    trees = [ast.parse(src) for src in sources]
    reads = sum((_reads(t) for t in trees), Counter())
    defs = [node for t in trees for node in t.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return sorted(d.name for d in defs
                  if d.name not in external and reads[d.name] == _reads(d)[d.name])


def external_names() -> set[str]:
    """Names read from outside the library: `iml.__all__`, and names or strings in bench/."""
    init = ast.parse((SRC / "__init__.py").read_text())
    names = {e.value for n in init.body if isinstance(n, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)
             for e in n.value.elts}
    for path in (ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text())
        names |= set(_reads(tree))
        names |= {n.value for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and n.value.isidentifier()}
    return names


def test_unreferenced_defs_detector():
    a = "def used(): pass\ndef unused(): pass\ndef rec(): return rec()\n" \
        "class C: pass\ndef ext(): pass\nx = used()\n"
    b = "import a\nprint(a.C)\n"
    assert unreferenced_defs([a, b], {"ext"}) == ["rec", "unused"]


def test_no_unreferenced_definitions():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_defs(sources, external_names()) == []
