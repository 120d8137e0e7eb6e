"""The ``maflow`` namespace exports only what the program itself uses."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "maflow"
# no program calls these; the acceptance gate and the series-column test use them as oracles
ORACLES = {"lp_norm", "newton_residual_and_linearization"}


def exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def references(tree):
    """Names the code reads (as a name or an attribute), each outside a definition of its own."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_export_but_the_oracles_has_a_caller_outside_the_tests():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(references(ast.parse(p.read_text())) for p in files))
    names = exported()
    assert ORACLES <= names
    assert sorted(names - used - ORACLES) == []
