"""Source hygiene: no unused imports in src/, tests/, scripts/ or bench/,
no scipy in the package, and no public function or method without a caller.

An AST scan in place of a linter: a name bound by an import must be read
somewhere in its module (or listed in `__all__`).  An import line carrying
`# noqa: F401` is exempt, and a package `__init__.py` re-exports what it
imports, so it is not scanned.

Every special function and transform in src/ is numpy or `math` code, so
importing any part of scipy (scipy.special alone pulls in its array-API
layer, numpy.testing and numpy.f2py) would only cost start-up time.  scipy
stays a test dependency: the SLSQP oracle and some references use it.

A public module-level function of the package, and each non-dunder
method, classmethod and property of its classes, must be read somewhere
a real caller lives: src/ (outside its own def), bench/, scripts/ or the
acceptance criteria.  A method or property counts only where it is read
as an attribute, so a local variable of the same name is no caller.  A name that only its own unit tests reach is code
nobody needs.  In the same way each defaulted parameter of such a function
must be passed, by keyword or at its position, by some real caller: an
option that only tests set is an option nobody needs.
"""

import ast
import math
import os
import subprocess
import sys

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


def scipy_imports(path: str) -> list[str]:
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            found.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}: imports scipy")
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
    # no part of scipy at all, scipy.integrate included
    problems = [p for path in python_files(("src",)) for p in scipy_imports(path)]
    assert not problems, "\n".join(problems)


def test_integrate_scan_flags_every_import_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import scipy.integrate\nfrom scipy import integrate\n"
                    "from scipy.integrate import quad\nfrom scipy import special\n"
                    "import scipy.special\n")
    assert [p.split(":")[1] for p in scipy_imports(str(path))] == ["1", "2", "3", "4", "5"]


def definitions(path: str) -> list[tuple[str, ast.FunctionDef, bool]]:
    """(label, def, is a method) of each public module-level function and
    each non-dunder method, classmethod and property of a module-level class."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found.append((node.name, node, False))
        elif isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{f.name}", f, True) for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")]
    return found


def units(path: str) -> list[ast.AST]:
    """The module's top-level statements, each class split into its body."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    return [unit for stmt in tree.body for unit in (
        [*stmt.decorator_list, *stmt.bases, *stmt.body] if isinstance(stmt, ast.ClassDef) else [stmt])]


def names_read(path: str, attributes_only: bool = False) -> set[str]:
    """Every ast.Name and ast.Attribute read in the file (only the
    ast.Attribute reads with attributes_only), except a function's or
    method's own name read inside its body (recursion)."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    found = set()
    for unit in units(path):
        names = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(unit)
                 if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)}
        if isinstance(unit, ast.FunctionDef):
            names.discard(unit.name)
        found |= names
    return found


def calls_made(path: str) -> dict[str, list[tuple[float, set]]]:
    """name -> (positional argument count, keyword names) of each call of
    that name in the file, except a function's or method's call of its own
    name inside its body.  A *args counts as every position and a **kwargs
    as every keyword (None)."""
    found = {}
    for unit in units(path):
        for node in ast.walk(unit):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None or (isinstance(unit, ast.FunctionDef) and name == unit.name):
                continue
            count = math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            found.setdefault(name, []).append((count, {k.arg for k in node.keywords}))
    return found


def defaulted_params(fn: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    """(name, position in a call) of each defaulted parameter; keyword-only
    ones have no position, and a method's first parameter is bound."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args][int(is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)):]
    found = [(a.arg, i) for i, a in enumerate(positional)][len(positional) - len(args.defaults):]
    return found + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def real_callers() -> list[str]:
    return list(python_files(("src", "bench", "scripts"))) + [
        os.path.join(ROOT, "tests", "test_acceptance.py")]


def unread(path: str, read: set[str], attributes: set[str]) -> list[str]:
    """Labels of the file's definitions whose name is not read: a method or
    property is reached only as an attribute, so a local variable of the
    same name does not count for it."""
    return [label for label, fn, is_method in definitions(path)
            if fn.name not in (attributes if is_method else read)]


def functions_without_callers() -> list[str]:
    read = set().union(*(names_read(path) for path in real_callers()))
    attributes = set().union(*(names_read(path, attributes_only=True) for path in real_callers()))
    return [label for path in python_files(("src",)) for label in unread(path, read, attributes)]


def options_without_callers(sources=None, callers=None) -> list[str]:
    calls = {}
    for path in callers or real_callers():
        for name, made in calls_made(path).items():
            calls.setdefault(name, []).extend(made)
    return [f"{label}({param})" for path in sources or python_files(("src",))
            for label, fn, is_method in definitions(path)
            for param, pos in defaulted_params(fn, is_method)
            if not any(param in kws or None in kws or (pos is not None and pos < count)
                       for count, kws in calls.get(fn.name, ()))]


def test_public_functions_have_callers():
    missing = functions_without_callers()
    assert not missing, "public functions and methods no caller reads: " + ", ".join(missing)


def test_caller_scan_sees_methods(tmp_path):
    # a local variable named like a method or property is no read of it;
    # a module-level function may be read by its bare name
    path = tmp_path / "mod.py"
    path.write_text("class A:\n    def __len__(self): return 0\n    @property\n    def p(self): return 1\n"
                    "    @classmethod\n    def c(cls): return cls.c()\n    def _m(self): return self.p\n"
                    "    @property\n    def ns(self): return 2\n"
                    "def f(): return f()\ndef g(): return 3\ndef h():\n    ns = g()\n    return ns\n")
    path = str(path)
    assert unread(path, names_read(path), names_read(path, attributes_only=True)) == [
        "A.c", "A._m", "A.ns", "f", "h"]


def test_public_options_have_callers():
    missing = options_without_callers()
    assert not missing, "options no caller passes: " + ", ".join(missing)


def test_option_scan_counts_keywords_and_positions(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class A:\n    def m(self, x, y=1, *, z=2): return self.m(x, y, z=z)\n"
                    "    @staticmethod\n    def s(x=0): return x\n"
                    "def f(a, b=1, c=2, d=3): return f(a, b, c, d)\ndef g(x=0): return x\n"
                    "A().m(0, 1)\nA.s(5)\nf(0, 1, c=1)\ng(*[])\n")
    assert options_without_callers([str(path)], [str(path)]) == ["A.m(z)", "f(d)"]


CLI_SCRIPT = """
import contextlib, io, sys
import test_golden
from carleson_lab import cli, halfplane, measures, norms
for name in test_golden.CASES:
    test_golden.run_case(name)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["carleson", "--measure", "power:p=0.5"]) == cli.EXIT_OK
segment = measures.RadialMeasure(pieces=((0.2, 0.6, 3.0, 0.5, 2.0), (0.1, 0.95, 1.0, 0.7, 0.5)))
measures.moment_array(segment, 40)
segment.tail_mass([0.1, 0.5])
norms.poisson_sup(measures.RadialMeasure(pieces=((0.0, 0.9, 1.0, 0.7),)))
norms.analyze_w_sigma_errors(measures.power_disk(0.5), 512, 16)
pi = measures.VerticalMeasure(pieces=(measures.VerticalPiece(1.0, 2.0, 1.0, -2.5),
                                      measures.VerticalPiece(0.0, 3.0, 1.0, 0.5)))
measures.laplace_transform(pi, [0.5, 1.0, 40.0])
halfplane.w_pi(pi, [0.01, 1.0])
halfplane.garnett_check(measures.LineMeasure(pieces=((-2.0, 3.0, 1.0, 0.5),)))
halfplane.w_pi_truncated_fourier_check(measures.lebesgue_halfplane(), 0.1, 10.0, xi_test=[0.001, 0.05, 0.5])
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_cli_and_integrals_leave_heavy_scipy_unloaded():
    """Every golden command, the singular integral of a piece, moments and
    tails of pieces off the origin, poisson_sup, the w_sigma error check,
    W, Garnett's check, Laplace transforms with p <= -1 and p > -1 and the
    truncated Fourier check (Si by both of its forms), in
    one fresh interpreter, load no scipy module at all."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]))
    out = subprocess.run([sys.executable, "-c", CLI_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
