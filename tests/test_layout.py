"""Module layout: package imports sit at module top, so the import graph
of ffdioph stays acyclic by construction rather than by deferred imports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ffdioph"


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
