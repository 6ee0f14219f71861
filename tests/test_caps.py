"""The size bounds behind potnum's functions: where a CapExceededError is raised.

Each bound does one job. Graph input (a file or an expression) has an
order bound, the oracle bounds the length it decides and the order of the
pattern, and the probe's step 2 bounds the length it realizes. A graph
itself, and a realization, have no size check of their own.
"""

import ast
import pkgutil
from pathlib import Path

import potnum

AUDITED = {
    "potnum.graphs.parse_graph_file",
    "potnum.generators.build",
    "potnum.oracle.potentially",
    "potnum.oracle.sigma_exact",
    "potnum.probe._iterate",  # step 2, before the canonical realization
}


def _raisers():
    """Every function of a potnum module that raises CapExceededError
    itself, by qualified name."""
    found = set()
    for info in pkgutil.iter_modules(potnum.__path__):
        path = Path(potnum.__path__[0]) / f"{info.name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Raise) and child.exc is not None:
                    exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                    if isinstance(exc, ast.Name) and exc.id == "CapExceededError":
                        found.add(".".join([f"potnum.{info.name}"] + scope))
                visit(child, scope)

        visit(tree, [])
    return found


def test_the_caps_are_the_audited_ones():
    assert _raisers() == AUDITED
