"""No handler in the package catches every exception.

A broad handler (``except Exception``, ``except BaseException`` or a bare
``except:``) turns a fault in the program into whatever the handler
reports, such as an input error; each handler must name the types it
expects.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dutchbook"


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # a bare ``except:``
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
               for t in types)


def test_no_broad_exception_handlers():
    broad = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ExceptHandler) and _is_broad(node)]
    assert broad == []
