"""Source hygiene that no installed linter checks."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hopfext"
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items()
                    if name not in used)
    assert not unused, f"{path.name}: imported and never used: {unused}"


def _import_sources(nodes):
    """(level, module) of every import among `nodes`; a `from . import x`
    counts x as the module."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            out.update((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.update((node.level, node.module or alias.name)
                       for alias in node.names)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_reimports(path):
    # an import inside a function from a module the file already imports at
    # the top belongs at the top; a lazy import of any other module is legal
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    nested = [node for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and id(node) not in top]
    again = sorted((node.lineno, node.module or "")
                   for node in nested
                   if _import_sources([node]) & _import_sources(tree.body))
    assert not again, f"{path.name}: re-imported inside a function: {again}"


def _definitions(path):
    """(qualified name, first line, last line) of every module-level
    function, class and constant and every method of a module-level
    class, dunders left out since the language calls them."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        out.extend((name, node.lineno, node.end_lineno) for name in names)
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{item.name}", item.lineno, item.end_lineno)
                       for item in node.body if isinstance(item, ast.FunctionDef))
    return [d for d in out if not d[0].endswith("__")]


def _references(path):
    """(name, line) of every loaded name, attribute, imported name and
    string constant (such as a tracer row) in one file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((alias.name.split(".")[-1], node.lineno)
                       for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def _unreferenced(dirs):
    """Definitions in src/hopfext that no file under `dirs` references
    outside the definition itself (so recursion does not count)."""
    refs = {}
    for path in (p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))):
        for name, line in _references(path):
            refs.setdefault(name, []).append((path, line))
    out = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, first, last in _definitions(path):
            name = qualname.split(".")[-1]
            if not any(p != path or not first <= line <= last
                       for p, line in refs.get(name, ())):
                out.append(f"{path.stem}.{qualname}")
    return out


def test_no_unreferenced_definitions():
    unreferenced = _unreferenced(("src", "tests", "scripts", "perfbench"))
    assert not unreferenced, f"defined and never referenced: {unreferenced}"


# reached from tests alone, on purpose
TEST_ONLY = {
    # the documented ceiling of the 5-adic precision, which a test reads
    "flinalg.K_MAX",
    # a paper statement, as stated, that an acceptance test checks
    "invariants.c_formula_discrepancy",
}


def test_definitions_reach_beyond_tests():
    # library code that only its own tests reach is dead code with tests
    unreached = set(_unreferenced(("src", "scripts", "perfbench")))
    assert unreached == TEST_ONLY, \
        (f"reached from tests alone: {sorted(unreached - TEST_ONLY)};"
         f" listed but reached: {sorted(TEST_ONLY - unreached)}")


def _traced_names():
    """(module, class or None, attribute) for every row of the benchmark
    tracer's SPANS and COUNTS tables, read from its source."""
    out = []
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign):
            target = node.target
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        else:
            continue
        if not isinstance(target, ast.Name) or target.id not in ("SPANS", "COUNTS"):
            continue
        for row in node.value.elts:
            vals = [e.value if isinstance(e, ast.Constant) else None
                    for e in row.elts]
            if target.id == "SPANS":
                out.append((vals[1], None, vals[2]))
            else:
                out.append((vals[1], vals[2], vals[3]))
    return out


def test_traced_names_resolve():
    # the benchmark's traced runs wrap these names; one that is gone makes
    # every traced sample fail
    names = _traced_names()
    assert len({m for m, _, _ in names}) > 3
    missing = []
    for modname, cls, attr in names:
        holder = importlib.import_module(f"hopfext.{modname}")
        if cls:
            holder = getattr(holder, cls, None)
        if holder is None or attr not in vars(holder):
            missing.append(".".join(x for x in (modname, cls, attr) if x))
    assert not missing, f"traced names no longer in hopfext: {missing}"


def _unused_parameters(path):
    """(line, function, parameter) for every parameter of a function,
    method or lambda in one file that its body never reads; `self` and
    `cls` are left out."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs
                                  + [args.vararg, args.kwarg]) if a is not None]
        body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        out.extend((node.lineno, name, p) for p in params
                   if p not in read and p not in ("self", "cls"))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    # a parameter no caller needs is part of an interface that says more
    # than the function does
    unused = _unused_parameters(path)
    assert not unused, f"{path.name}: parameters never read: {unused}"


def test_package_import_leaves_out_dataclasses():
    # every CLI run is a fresh interpreter and pays the package import.
    # With its thirteen records as dataclasses, whose decorators build
    # their methods through exec, that import took 19 ms after numpy; as
    # NamedTuples 11.4-12.7 ms, and with `fractions` (which loads
    # `decimal`) imported only where a Fraction is made, 9.1-9.9 ms
    # (benchmark medians, 2-core Xeon, Python 3.11).  numpy loads none of
    # these three modules, so neither may the package.
    code = ("import importlib, pkgutil, sys, numpy, hopfext\n"
            "for info in pkgutil.iter_modules(hopfext.__path__):\n"
            "    importlib.import_module(f'hopfext.{info.name}')\n"
            "print(*(m for m in ('dataclasses', 'fractions', 'decimal')\n"
            "        if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
