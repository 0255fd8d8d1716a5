"""Every name a char2conf module imports is used in that module."""

import ast
import pathlib

import char2conf

SRC = pathlib.Path(char2conf.__file__).parent
# re-exports: __init__.py is the package namespace, and metric documents
# ORTHOGONAL so that callers can name both group kinds from it
ALLOWED = {("metric", "ORTHOGONAL")}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_imported_name_is_used():
    unused = sorted("%s.%s" % (path.stem, name)
                    for path in SRC.glob("*.py") if path.stem != "__init__"
                    for name in _unused_imports(path)
                    if (path.stem, name) not in ALLOWED)
    assert unused == []
