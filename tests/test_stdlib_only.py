"""The program needs nothing beyond the standard library.

Every import in `src/dutchbook/*.py`, at any depth, names a standard
library module or the package itself; numpy and the other test and
benchmark dependencies stay out of the program.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dutchbook"


def _imported_roots(tree: ast.Module):
    """(line, top-level module name) of every import; a relative import
    is the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, ("dutchbook" if node.level
                                else node.module.partition(".")[0])


def test_program_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in sources} >= {"__init__.py", "cli.py", "quantum.py"}
    foreign = [f"{path.name}:{line}: {name}"
               for path in sources
               for line, name in _imported_roots(
                   ast.parse(path.read_text(encoding="utf-8")))
               if name != "dutchbook" and name not in sys.stdlib_module_names]
    assert foreign == []
