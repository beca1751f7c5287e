"""Source hygiene that no installed linter checks."""

import ast
import importlib
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
