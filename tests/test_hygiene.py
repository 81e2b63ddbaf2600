"""Source hygiene: no unused imports in src/, tests/, scripts/ or bench/.

An AST scan in place of a linter: a name bound by an import must be read
somewhere in its module (or listed in `__all__`).  An import line carrying
`# noqa: F401` is exempt, and a package `__init__.py` re-exports what it
imports, so it is not scanned.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TREES = ("src", "tests", "scripts", "bench")


def unused_imports(path: str) -> list[str]:
    with open(path) as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    lines = source.splitlines()
    bound = {}  # name -> line of the import statement that binds it
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
    return [f"{os.path.relpath(path, ROOT)}:{line}: {name!r} imported but unused"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in used]


def python_files():
    for tree in TREES:
        for dirpath, _, files in os.walk(os.path.join(ROOT, tree)):
            for name in sorted(files):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.join(dirpath, name)


def test_no_unused_imports():
    problems = [p for path in python_files() for p in unused_imports(path)]
    assert not problems, "\n".join(problems)


def test_scan_flags_unused_and_honours_noqa(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nimport os\n"
                    "import sys  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n")
    assert [p.split(": ", 1)[1] for p in unused_imports(str(path))] == [
        "'os' imported but unused", "'tau' imported but unused"]
