"""Module layout: package imports sit at module top, in the package and in
its tests, so the import graph of ffdioph stays acyclic by construction
rather than by deferred imports, every function, class and method the
package defines is referenced somewhere in the package or its tests, every
imported name is used, every defaulted parameter has a caller that sets
it, only ``cells`` reads the digit layout of a sweep, and every hook of the
benchmark's layer tracer names an attribute the package has."""

import ast
import importlib
from collections import Counter
from pathlib import Path
from typing import Optional

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
    files += sorted((ROOT / "tests").rglob("*.py"))
    offenders = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(ROOT)}:{line} in {name}()"
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


def _defaulted_params(fn: ast.FunctionDef) -> list[tuple[str, Optional[int]]]:
    """(name, positional index after self/cls, None for keyword-only) of
    every parameter of ``fn`` that has a default."""
    pos = fn.args.posonlyargs + fn.args.args
    skip = int(bool(pos) and pos[0].arg in ("self", "cls"))
    first_default = len(pos) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(pos) if i >= first_default]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def test_every_default_is_set_by_a_caller():
    """Every defaulted parameter of the package is passed, by keyword or by
    position, at one call site or more in the package or its tests; a call
    with *args or **kwargs sets every parameter.  Calls are matched by name
    (a class call is a call of its __init__), so a default that no call of
    that name sets is an option nobody uses."""
    defaults = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            owner = getattr(cls, "name", None)
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = owner if fn.name == "__init__" else fn.name
                    for param, index in _defaulted_params(fn):
                        where = f"{path.name}:{fn.lineno} {fn.name}({param})"
                        defaults[name, param, index] = where
    calls: dict = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            if name is None:
                continue
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (starred, len(node.args), {k.arg for k in node.keywords}))
    unset = sorted(where for (name, param, index), where in defaults.items()
                   if not any(starred or param in kws or (index is not None and index < npos)
                              for starred, npos, kws in calls.get(name, ())))
    assert not unset, f"{len(unset)} defaults no call sets: " + ", ".join(unset)


def test_only_cells_reads_the_digit_layout():
    """SweepData is defined in cells alone, and its layout attributes (slot
    widths, column bases, read floors and the largest shift) are read there
    alone; every other module asks cells for packed sums and their
    digits."""
    layout = {"slots", "bases", "floors", "jmax"}
    readers: dict = {}
    definers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in layout:
                readers.setdefault(path.name, []).append(f"{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ClassDef) and node.name == "SweepData":
                definers.append(path.name)
    assert definers == ["cells.py"]
    assert list(readers) == ["cells.py"], f"digit layout read outside cells: {readers}"


def _tracer_spans() -> list:
    """The (module, attribute, span) triples of the benchmark's layer
    tracer, read from its source without running it."""
    tree = ast.parse((ROOT / "bench" / "layertrace.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/layertrace.py defines no SPANS")


def test_tracer_hooks_resolve():
    """Every (module, attribute) the tracer hooks resolves on ffdioph, and
    every hooked method sits in its class's own body, where the tracer
    replaces it: moving one breaks the traced benchmark run."""
    spans = _tracer_spans()
    assert spans
    missing = []
    for modname, attr, _ in spans:
        owner = importlib.import_module(f"ffdioph.{modname}")
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            if cls is None or meth not in vars(cls):
                missing.append(f"{modname}.{attr}")
        elif not hasattr(owner, attr):
            missing.append(f"{modname}.{attr}")
    assert not missing, "tracer hooks that do not resolve: " + ", ".join(missing)
