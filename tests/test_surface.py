"""Every function in src/bubblelab has a caller outside the tests, and no
module holds mutable state.

A function or method whose name is referenced nowhere in the package, nor in
the benchmark under bench/, except inside its own definition, is called only
by tests; it belongs in the tests. Names exported by bubblelab/__init__.py,
the gallery's cluster builders and dunder methods are exempt. References are
matched by name (any ast.Name or attribute of that name), so the check can
miss a dead method that shares its name with a live one, but never flags a
live function.

No module of the package binds a dict, list, set or writable numpy array at
module level, so no module keeps state between calls: a read-only table is a
tuple, a types.MappingProxyType or an array with setflags(write=False). An
object that keeps state, such as the sample points of measure.VolumeTracker,
is made by its caller and released with it. Dunder names (__path__, __all__,
__builtins__) are the import system's and exempt.

Every parameter of every function and lambda in the package is read in its
body, apart from those in UNREAD_PARAMETERS.

The package runs on numpy alone: scipy is a test dependency, and a use of it
in the package imports it inside the function that needs it.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

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
    """module:name of every dict, list, set or writable array a package module binds."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "bubblelab" if path.stem == "__init__" else f"bubblelab.{path.stem}"
        for attr, value in vars(importlib.import_module(name)).items():
            mutable = (isinstance(value, (dict, list, set))
                       or isinstance(value, np.ndarray) and value.flags.writeable)
            if mutable and not (attr.startswith("__") and attr.endswith("__")):
                found.append(f"{path.stem}:{attr}")
    return found


def test_no_module_holds_a_mutable_container():
    assert module_level_containers() == []


# (module, function, parameter) accepted unread, in module order
UNREAD_PARAMETERS = [
    ("cluster", "detect_interfaces", "rng_seed"),  # still passed by the benchmark
    ("plateau", "certify_plateau", "sample_budget"),  # still passed by the benchmark
    ("plateau", "certify_plateau", "seed"),  # still passed by the benchmark
    ("quantum_graph", "<lambda>", "pts"),  # piecewise_constant_field's pointwise fn
]


def unread_parameters() -> list[tuple[str, str, str]]:
    """(module, function, parameter) of every parameter its function never reads."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            found += [(path.stem, getattr(node, "name", "<lambda>"), name)
                      for name in names if name not in read]
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == UNREAD_PARAMETERS


NUMPY_ONLY_RUN = """
import json, sys
import numpy as np
import bubblelab as bl
params = bl.standard_of_curvature(2, 3, np.array([0.3, 0.1, -0.4]))
graph = bl.detect_interfaces(params)
system = bl.assemble_jacobi(bl.build_graph(params, graph), 1e-2)
report = bl.eigen_count_positive(system)
solve = bl.conformal_jacobi_solve(system, np.array([0.5, 0.2, -0.7]))
mc = bl.measure_mc(params, graph, samples=20_000, seed=1)
print(json.dumps({"index": report.count_positive, "kernel": solve.kernel_dim,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_the_package_runs_without_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    done = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    assert out == {"index": 2, "kernel": 3, "scipy": []}
