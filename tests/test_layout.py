"""Module layout: package imports sit at module top, so the import graph
of ffdioph stays acyclic by construction rather than by deferred imports,
every function, class and method the package defines is referenced
somewhere in the package or its tests, and every imported name is used."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ffdioph"


def _local_package_imports(tree: ast.AST) -> list[tuple[str, int]]:
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if node.level > 0 or mod == "ffdioph" or mod.startswith("ffdioph."):
                    found.append((fn.name, node.lineno))
            elif isinstance(node, ast.Import):
                if any(a.name == "ffdioph" or a.name.startswith("ffdioph.")
                       for a in node.names):
                    found.append((fn.name, node.lineno))
    return found


def test_no_function_local_package_imports():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no modules under {SRC}"
    offenders = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line} in {name}()"
                      for name, line in _local_package_imports(tree)]
    assert not offenders, "function-local package imports: " + ", ".join(offenders)


def _referenced_names(tree: ast.AST) -> Counter:
    """Names the code refers to: bare names, attributes and imported names
    (docstrings, comments and string keys do not count)."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rpartition(".")[2]] += 1
    return refs


def test_every_defined_name_is_used():
    where = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    where.setdefault(name, f"{path.name}:{node.lineno}")
    refs: Counter = Counter()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        refs.update(_referenced_names(ast.parse(path.read_text(), filename=str(path))))
    unused = sorted(f"{loc} {n}" for n, loc in where.items() if not refs[n])
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """Names a module imports but never reads: no Name node refers to them
    and ``__all__`` does not export them (``from __future__`` is exempt)."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    found.append((name, node.lineno))
    return found


def test_no_unused_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    unused = [f"{path.relative_to(ROOT)}:{line} {name}" for path in paths
              for name, line in _unused_imports(ast.parse(path.read_text(), filename=str(path)))]
    assert not unused, "imported but never used: " + ", ".join(unused)
