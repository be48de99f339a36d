"""Every function in src/bubblelab has a caller outside the tests, and no
module holds mutable state.

A function or method whose name is referenced nowhere in the package, nor in
the benchmark under bench/, except inside its own definition, is called only
by tests; it belongs in the tests. Names exported by bubblelab/__init__.py,
the gallery's cluster builders and dunder methods are exempt. References are
matched by name (any ast.Name or attribute of that name), so the check can
miss a dead method that shares its name with a live one, but never flags a
live function.

No module of the package binds a dict, list or set at module level, apart
from the sample memo sampling._unit_cache: a read-only table is a tuple or a
types.MappingProxyType. Dunder names (__path__, __all__, __builtins__) are the
import system's and exempt.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bubblelab"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _references(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unreferenced_functions() -> list[str]:
    """module:qualified name of every function or method only tests can call."""
    refs, own_refs, defined = Counter(), Counter(), []
    for path in CALLERS:
        tree = ast.parse(path.read_text())
        refs += _references(tree)
        if path.parent != PACKAGE:
            continue
        scopes = [(tree, "")]
        while scopes:
            scope, prefix = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((node, f"{prefix}{node.name}."))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    own_refs[node.name] += _references(node)[node.name]
                    defined.append((path.stem, f"{prefix}{node.name}", node.name))
    exempt = _exported()
    return sorted(f"{module}:{qualname}" for module, qualname, name in defined
                  if refs[name] == own_refs[name] and name not in exempt
                  and module != "gallery"
                  and not (name.startswith("__") and name.endswith("__")))


def test_no_function_is_called_only_by_tests():
    assert unreferenced_functions() == []


def module_level_containers() -> list[str]:
    """module:name of every dict, list or set a package module binds."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "bubblelab" if path.stem == "__init__" else f"bubblelab.{path.stem}"
        for attr, value in vars(importlib.import_module(name)).items():
            if (isinstance(value, (dict, list, set))
                    and not (attr.startswith("__") and attr.endswith("__"))):
                found.append(f"{path.stem}:{attr}")
    return found


def test_no_module_holds_a_mutable_container():
    assert module_level_containers() == ["sampling:_unit_cache"]
