"""No module under src/ imports a name at top level that it neither uses
nor lists in __all__."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _unused_imports(tree):
    """Names bound by the module's top-level imports that no expression
    in it reads and its __all__ does not list."""
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported
            if name not in used and name not in exported]


def test_no_module_under_src_has_an_unused_import():
    unused = {}
    for path in sorted(SRC.rglob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[str(path.relative_to(SRC))] = names
    assert unused == {}
