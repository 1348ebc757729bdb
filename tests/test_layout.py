"""Package structure rules, checked on the source text alone.

* Intra-package imports sit at module level, never inside a function.
* No module imports another module's private (``_``-prefixed) names, nor
  reads a private attribute (``obj._name``) that it does not define itself.
* The module import graph is acyclic.
* :mod:`stablectl.generators` builds instances from :mod:`stablectl.model`
  alone: it imports no other package module.
* Every import from outside the package, at any level, is of a standard
  library module: the core has no third-party dependency.
* Only :mod:`stablectl.classic` reads the structure of a stable partition
  (``parties``, ``odd_parties``, ``singletons``, ``successor``): whether
  a stable matching exists, and whom it must leave alone, is stated there
  once, and other modules ask it for a diagnosis cost.
* Every ``(module, function)`` pair that the benchmark's tracer wraps
  (``TARGETS`` in ``bench/spans.py``, read with ``ast``) names a
  function of the package.
* Every package name that the benchmark's workloads reach as
  ``m.<module>.<name>``, directly or through a local alias such as
  ``C, P = m.classic, m.poly`` (``bench/workloads.py``, read with
  ``ast``), resolves on the package.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stablectl"
SPANS = ROOT / "bench" / "spans.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def modules() -> dict:
    """Module name -> parsed source, for every module of the package."""
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}


MODULE_NAMES = frozenset(p.stem for p in PACKAGE.glob("*.py"))


def package_imports(tree: ast.Module):
    """``(node, imported module names)`` for each intra-package import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "stablectl":
                continue
            path = (node.module or "").split(".")
            if node.level == 0:
                path = path[1:]
            if path and path[0]:
                yield node, {path[0]}
            else:  # ``from . import x, y``
                yield node, {a.name for a in node.names if a.name in MODULE_NAMES}
        elif isinstance(node, ast.Import):
            targets = {a.name.split(".")[1] for a in node.names if a.name.startswith("stablectl.")}
            if targets:
                yield node, targets


def test_no_function_level_package_imports():
    lazy = []
    for name, tree in modules().items():
        top = {id(node) for node in tree.body}
        for node, _ in package_imports(tree):
            if id(node) not in top:
                lazy.append(f"{name}.py:{node.lineno}")
    assert lazy == []


def test_no_private_names_imported_across_modules():
    private = []
    for name, tree in modules().items():
        for node, _ in package_imports(tree):
            private += [
                f"{name}.py:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")
            ]
    assert private == []


def test_no_private_attributes_read_across_modules():
    foreign = []
    for name, tree in modules().items():
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                defined.add(node.id if isinstance(node, ast.Name) else node.attr)
        foreign += [
            f"{name}.py:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and node.attr not in defined
        ]
    assert foreign == []


def test_module_import_graph_is_acyclic():
    graph = {
        name: {dep for _, deps in package_imports(tree) for dep in deps} - {name}
        for name, tree in modules().items()
    }
    done: set = set()

    def visit(name: str, path: tuple) -> None:
        assert name not in path, "import cycle: " + " -> ".join(path + (name,))
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, path + (name,))
        done.add(name)

    for name in sorted(graph):
        visit(name, ())


def test_generators_import_only_the_model():
    tree = modules()["generators"]
    assert {dep for _, deps in package_imports(tree) for dep in deps} == {"model"}


def test_package_imports_only_the_standard_library():
    foreign = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [(node.module or "").split(".")[0]]
            else:
                continue
            foreign += [
                f"{name}.py:{node.lineno} {top}"
                for top in tops
                if top != "stablectl" and top not in sys.stdlib_module_names
            ]
    assert foreign == []


def test_only_classic_reads_partition_structure():
    structure = {"parties", "odd_parties", "singletons", "successor"}
    reads = [
        f"{name}.py:{node.lineno} {node.attr}"
        for name, tree in modules().items()
        if name != "classic"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in structure
    ]
    assert reads == []


def test_benchmark_trace_targets_resolve():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    assigned = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    assert len(assigned) == 1
    targets = ast.literal_eval(assigned[0])
    assert targets
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _ in targets
        if not callable(getattr(importlib.import_module(f"stablectl.{mod}"), fn, None))
    ]
    assert missing == []


def attribute_chain(node: ast.expr):
    """``(root name, attribute names)`` of ``a.b.c``; ``None`` for any other expression."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else None


def workload_package_chains() -> set:
    """``(module, name, ...)`` for every package reference in the workloads.

    The package namespace is the parameter ``m``; a name that a function
    binds to ``m.<module>...``, alone or in a tuple assignment, is an
    alias for that chain within the function.
    """
    chains = set()
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = {"m": ()}
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                names, values = [target], [node.value]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    names, values = target.elts, node.value.elts
                for name, value in zip(names, values):
                    chain = attribute_chain(value)
                    if isinstance(name, ast.Name) and chain and chain[0] == "m":
                        aliases[name.id] = tuple(chain[1])
        for node in ast.walk(func):
            chain = attribute_chain(node)
            if chain and chain[0] in aliases:
                chains.add(aliases[chain[0]] + tuple(chain[1]))
    return {c for c in chains if c}


def test_benchmark_workload_names_resolve():
    chains = workload_package_chains()
    # Direct references and references through aliases are both seen.
    assert ("poly", "fixing_deletions") in chains
    assert ("classic", "gale_shapley") in chains  # C = m.classic
    assert ("reductions", "make_graph") in chains  # R = m.reductions
    assert ("control", "ControlGoal", "ma") in chains  # G = m.control.ControlGoal
    missing = []
    for module, *names in sorted(chains):
        if module not in MODULE_NAMES:
            missing.append(module)
            continue
        obj = importlib.import_module(f"stablectl.{module}")
        for name in names:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(".".join([module, *names]))
    assert missing == []
