"""Source hygiene: no unused imports in src/, tests/, scripts/ or bench/,
and no scipy.integrate in the package.

An AST scan in place of a linter: a name bound by an import must be read
somewhere in its module (or listed in `__all__`).  An import line carrying
`# noqa: F401` is exempt, and a package `__init__.py` re-exports what it
imports, so it is not scanned.

Every integral in src/ is a closed form or a fixed rule, so importing
scipy.integrate (which also loads scipy.optimize and scipy.sparse, about a
quarter of a cold CLI call) would only cost start-up time.
"""

import ast
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TREES = ("src", "tests", "scripts", "bench")
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse")


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


def integrate_imports(path: str) -> list[str]:
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "scipy.integrate" or n.startswith("scipy.integrate.") for n in names):
            found.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}: imports scipy.integrate")
    return found


def python_files(trees=TREES):
    for tree in trees:
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


def test_src_does_not_import_scipy_integrate():
    problems = [p for path in python_files(("src",)) for p in integrate_imports(path)]
    assert not problems, "\n".join(problems)


def test_integrate_scan_flags_every_import_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import scipy.integrate\nfrom scipy import integrate\n"
                    "from scipy.integrate import quad\nfrom scipy import special\n"
                    "import scipy.special\n")
    assert [p.split(":")[1] for p in integrate_imports(str(path))] == ["1", "2", "3"]


CLI_SCRIPT = """
import contextlib, io, sys
import test_golden
from carleson_lab import cli, halfplane, measures
for name in test_golden.CASES:
    test_golden.run_case(name)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["carleson", "--measure", "power:p=0.5"]) == cli.EXIT_OK
pi = measures.VerticalMeasure(pieces=(measures.VerticalPiece(1.0, 2.0, 1.0, -2.5),))
measures.laplace_transform(pi, [0.5, 1.0])
halfplane.w_pi_truncated_fourier_check(measures.lebesgue_halfplane(), 0.1, 10.0)
print(" ".join(sorted(set(sys.argv[1:]) & set(sys.modules))))
"""


def test_cli_and_integrals_leave_heavy_scipy_unloaded():
    """The golden commands, the singular integral of a piece, a p <= -1
    Laplace transform and the truncated Fourier check, in one fresh
    interpreter, never load scipy.integrate, scipy.optimize or scipy.sparse."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]))
    out = subprocess.run([sys.executable, "-c", CLI_SCRIPT, *HEAVY], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
