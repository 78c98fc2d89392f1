"""No public name that only the tests use.

Every name a `dutchbook` submodule lists in `__all__`, and every public
method or property of the classes among them, must be referred to by the
program (`src/dutchbook/*.py`) or the benchmark (`bench/*.py`, not its
tests) outside its own definition: as a name, an attribute or an imported
name.  A public attribute that such a class's `__init__` assigns as
``self.<name> = ...`` must be read as an attribute (``x.<name>``) outside
that class; a bare variable of the same name is not a use.  The package's
re-exports in `__init__.py` are not uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dutchbook"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(
    p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))
SUBMODULES = [p for p in SOURCES
              if p.parent == PACKAGE and p.name != "__init__.py"]


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _instance_attributes(init: ast.FunctionDef) -> set[str]:
    """Public names assigned as ``self.<name> = ...`` in `init`."""
    return {target.attr for node in ast.walk(init)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name) and target.value.id == "self"
            and not target.attr.startswith("_")}


def _public_api(path: Path, tree: ast.Module) -> dict[tuple, tuple]:
    """Definition key -> (identifier, scope, attribute reads only) for the
    module's exported names, the public methods and properties of its
    exported classes, and the public attributes their `__init__` assigns.
    A reference inside the scope's definition is not a use."""
    exported = set(_exported(tree))
    api = {(path, name): (name, (path, name), False) for name in exported}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in exported:
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if not item.name.startswith("_"):
                    key = (path, f"{node.name}.{item.name}")
                    api[key] = (item.name, key, False)
                elif item.name == "__init__":
                    for attr in _instance_attributes(item):
                        api[(path, f"{node.name}.{attr}")] = (
                            attr, (path, node.name), True)
    return api


def _references(path: Path, tree: ast.Module):
    """(identifier, whether it is an attribute read, keys of the definitions
    enclosing it) for every name, attribute and imported name the module
    reads."""
    refs = []

    def visit(node, enclosing, prefix):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualified = f"{prefix}{node.name}"
            enclosing = enclosing | {(path, qualified)}
            prefix = f"{qualified}."
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.append((node.id, False, enclosing))
        elif (isinstance(node, ast.Attribute)
              and not isinstance(node.ctx, ast.Store)):
            refs.append((node.attr, True, enclosing))
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            refs.extend((alias.name, False, enclosing) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, prefix)

    visit(tree, frozenset(), "")
    return refs


def test_every_public_name_is_used_by_the_program():
    api, refs = {}, []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path in SUBMODULES:
            api.update(_public_api(path, tree))
        refs.extend(_references(path, tree))
    # The scan sees names, methods, properties, classmethods and instance
    # attributes.
    assert {"check_coherence", "main", "Povm.n_outcomes", "BitString.zeros",
            "TemporalModel.from_conditionals", "TemporalModel.has_base",
            } <= {qualified for _, qualified in api}
    keys_of = {}
    for key, (name, _, _) in api.items():
        keys_of.setdefault(name, []).append(key)
    used = {key for identifier, is_attribute, enclosing in refs
            for key in keys_of.get(identifier, ())
            if api[key][1] not in enclosing
            and (is_attribute or not api[key][2])}
    unused = sorted(f"{path.stem}.{qualified}"
                    for path, qualified in api.keys() - used)
    assert unused == []
