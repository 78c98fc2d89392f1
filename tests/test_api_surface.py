"""No public name that only the tests use.

Every name a `dutchbook` submodule lists in `__all__`, and every public
method or property of the classes among them, must be referred to by the
program (`src/dutchbook/*.py`) or the benchmark (`bench/*.py`, not its
tests) outside its own definition: as a name, an attribute or an imported
name.  The package's re-exports in `__init__.py` are not uses.
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


def _public_api(path: Path, tree: ast.Module) -> dict[tuple, str]:
    """Definition key -> identifier for the module's exported names and the
    public methods and properties of its exported classes."""
    exported = set(_exported(tree))
    api = {(path, name): name for name in exported}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in exported:
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    api[(path, f"{node.name}.{item.name}")] = item.name
    return api


def _references(path: Path, tree: ast.Module):
    """(identifier, keys of the definitions enclosing it) for every name,
    attribute and imported name the module reads."""
    refs = []

    def visit(node, enclosing, prefix):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualified = f"{prefix}{node.name}"
            enclosing = enclosing | {(path, qualified)}
            prefix = f"{qualified}."
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.append((node.id, enclosing))
        elif (isinstance(node, ast.Attribute)
              and not isinstance(node.ctx, ast.Store)):
            refs.append((node.attr, enclosing))
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            refs.extend((alias.name, enclosing) for alias in node.names)
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
    # The scan sees names, methods, properties and classmethods.
    assert {"check_coherence", "main", "Povm.n_outcomes",
            "BeliefState.scaled_pmf", "TemporalModel.from_conditionals",
            } <= {qualified for _, qualified in api}
    keys_of = {}
    for key, name in api.items():
        keys_of.setdefault(name, []).append(key)
    used = {key for identifier, enclosing in refs
            for key in keys_of.get(identifier, ()) if key not in enclosing}
    unused = sorted(f"{path.stem}.{qualified}"
                    for path, qualified in api.keys() - used)
    assert unused == []
