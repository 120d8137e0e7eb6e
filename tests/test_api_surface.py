"""The ``maflow`` namespace exports only what the program itself uses, and every
defaulted parameter of the package is one that a program call passes."""

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


# defaulted parameters that no program call passes, each kept for a stated reason:
# every defaulted parameter of these functions ...
UNPASSED_FUNCTIONS = {
    **{name: "an oracle of the acceptance gate and the series-column test" for name in ORACLES},
    "integrate": "the volume identity's reference, which only tests call",
    "mean_value": "the I column's reference, which only tests call",
    "density": "the density columns' reference, which only tests call",
}
# ... and these parameters of any function
UNPASSED_PARAMETERS = {
    "tol": "each check's tolerance, which [verify] tol.<check> sets",
    "slope_tol": "the mean-value slope tolerance the acceptance gate states",
    "convex_tol": "the mean-value convexity tolerance the acceptance gate states",
    "slope_tol_rel": "the Lelong slope tolerance the acceptance gate states",
}


def program_files():
    return [*PACKAGE.glob("*.py"), *(ROOT / "tools").glob("*.py"),
            *(ROOT / "perfbench").glob("*.py")]


def defaulted_parameters(tree):
    """(callees, function, parameter, position) of each parameter with a default.

    The callees are the names a call uses: the class for an ``__init__``
    and every subclass that inherits it.  The position counts the arguments a
    call writes, so a method's starts after ``self``; a keyword-only one is None.
    """
    classes = {node.name: ([b.id for b in node.bases if isinstance(b, ast.Name)],
                           any(isinstance(d, ast.FunctionDef) and d.name == "__init__"
                               for d in node.body))
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def heirs(cls):   # cls and the subclasses that take its __init__
        return {cls}.union(*(heirs(sub) for sub, (bases, own) in classes.items()
                             if cls in bases and not own))

    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, cls)
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            skip = 1 if cls and not static else 0
            callees = heirs(cls) if child.name == "__init__" else {child.name}
            a = child.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
            params += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None]
            found.extend((callees, child.name, name, pos) for name, pos in params)
            visit(child, None)

    visit(tree, None)
    return found


def passes(call, name, pos):
    """Whether ``call`` passes the parameter: by keyword, by position or through a splat."""
    star = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)), None)
    keywords = {k.arg for k in call.keywords}   # None stands for a ** splat
    return (name in keywords or None in keywords
            or pos is not None and (star is not None or pos < len(call.args)))


def test_every_defaulted_parameter_is_passed_by_a_program_call():
    # a setting that no caller sets is a constant; tests do not count as callers
    calls = {}
    for path in program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(callee, []).append(node)
    unpassed = [(path.name, function, name) for path in PACKAGE.glob("*.py")
                for callees, function, name, pos in
                defaulted_parameters(ast.parse(path.read_text()))
                if not any(passes(call, name, pos) for callee in callees
                           for call in calls.get(callee, ()))]
    assert sorted(f"{path}: {function}({name})" for path, function, name in unpassed
                  if function not in UNPASSED_FUNCTIONS and name not in UNPASSED_PARAMETERS) == []
    # an exemption that exempts nothing goes
    assert set(UNPASSED_FUNCTIONS) <= {function for _, function, _ in unpassed}
    assert set(UNPASSED_PARAMETERS) <= {name for _, _, name in unpassed}
