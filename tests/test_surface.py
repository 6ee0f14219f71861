"""potnum's public surface: the package's ``__all__``, and a caller for every public member.

``potnum.__all__`` is a literal list of the records and the entry points.
Each public function, class and method of a potnum module is referenced
from some potnum module (the CLI counts) outside its own definition, or is
listed here with the reason it stays. Tests are not callers: a member that
only a test calls is deleted, not kept.
"""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import potnum

AUDITED = {
    "potnum.graphs.SmallGraph.degree_sequence": "the benchmark's set-up decides each graph's own degree sequence",
    "potnum.probe.ProbeTrace.removals_accounting": "acceptance criterion 9 checks the removal bookkeeping with it",
    "potnum.potential.best_deleted_subgraph": "acceptance criterion 8, a by-design failure, reads its coefficient",
    "potnum.sequences.layoff": "the Kleitman–Wang reference that criterion 5 and the batch lay-off test compare against",
}


def _sources():
    """The parsed source of every potnum module, by module name."""
    root = Path(potnum.__path__[0])
    return {
        f"potnum.{info.name}": ast.parse((root / f"{info.name}.py").read_text(encoding="utf-8"))
        for info in pkgutil.iter_modules(potnum.__path__)
    }


def _public_members(tree):
    """(qualified name, name, definition, is a method) for each public
    function and class of a module and each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member.name, member, True


def _referenced(tree, name, method, own):
    """Whether ``tree`` names ``name`` outside the definition ``own``: as an
    attribute, or, unless it is a method, as a bare name."""
    inside = {id(node) for node in ast.walk(own)} if own is not None else set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if not method and isinstance(node, ast.Name) and node.id == name:
            return True
    return False


def _uncalled():
    """Every public member no potnum module references, by qualified name."""
    sources = _sources()
    found = set()
    for module, tree in sources.items():
        for qualname, name, node, method in _public_members(tree):
            if not any(
                _referenced(other, name, method, node if other is tree else None)
                for other in sources.values()
            ):
                found.add(f"{module}.{qualname}")
    return found


def test_every_public_member_has_a_caller():
    assert _uncalled() == set(AUDITED)


def test_all_is_a_literal_list_of_the_names_the_package_imports():
    tree = ast.parse(Path(potnum.__file__).read_text(encoding="utf-8"))
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    ]
    assert isinstance(value, ast.List)
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in value.elts)
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert len(set(potnum.__all__)) == len(potnum.__all__)
    assert sorted(imported) == sorted(potnum.__all__)


def test_all_resolves_to_no_submodule():
    for name in potnum.__all__:
        assert not isinstance(getattr(potnum, name), ModuleType), name


def test_no_module_binds_a_public_mutable_value():
    modules = [potnum] + [
        importlib.import_module(f"potnum.{info.name}") for info in pkgutil.iter_modules(potnum.__path__)
    ]
    for module in modules:
        for name, value in vars(module).items():
            if not name.startswith("_"):
                assert not isinstance(value, (dict, list, set, bytearray)), f"{module.__name__}.{name}"
