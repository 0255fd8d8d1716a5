"""Every name a char2conf module imports is used in that module, no
module imports another's private (`_`-prefixed) name, and every name the
package exports is used outside the tests."""

import ast
import pathlib

import char2conf

SRC = pathlib.Path(char2conf.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
# where an exported name counts as used: the library (the CLI included),
# the demos and the benchmark's workloads
CONSUMERS = (sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
             + [ROOT / "bench" / "workloads.py"])
# exports with no caller there, each kept for the reason given
UNCALLED = {
    "ort_group": "the abstract model Ort(alpha) that the acceptance gate"
                 " compares line groups against",
}


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
                    for name in _unused_imports(path))
    assert unused == []


def test_no_module_imports_a_private_name():
    # a module's `_` names are its own; another module that needs one
    # needs a public entry point instead
    private = sorted("%s: %s.%s" % (path.stem, node.module, alias.name)
                     for path in SRC.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.ImportFrom)
                     for alias in node.names if alias.name.startswith("_"))
    assert private == []


def _references(node, inside=()):
    """Names and attributes read in the tree, each outside every def or
    class of the same name that encloses it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        inside += (node.name,)
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def test_every_export_has_a_caller_outside_the_tests():
    used = {name for path in CONSUMERS
            for name in _references(ast.parse(path.read_text()))}
    uncalled = sorted(set(char2conf.__all__) - used - set(UNCALLED))
    assert uncalled == []
    # an allow-list entry goes once its name gains a caller
    assert sorted(used & set(UNCALLED)) == []
    assert set(UNCALLED) <= set(char2conf.__all__)


def test_only_enumerate_isometries_runs_the_isometry_search():
    # isometries are built where theory gives them; the search lists the
    # rest, behind the guards of enumerate_isometries' listing
    callers = sorted({"%s.%s" % (path.stem, getattr(top, "name", "<module>"))
                      for path in SRC.glob("*.py")
                      for top in ast.parse(path.read_text()).body
                      if "_isometry_search" in _references(top)})
    assert callers == ["quadspace.enumerate_isometries"]
