"""Every setting of the package is one that some caller sets.

A parameter with a default, or a dataclass field with one, is a settable
value: each doubles the configurations the tests and the benchmark must
cover. One that no call in ``src/``, ``tests/`` or ``benchmarks/`` passes
is a constant in disguise, so this guard asks for each to be passed, by
keyword or by position, in at least one call of a function (or class) of
its name."""

import ast
import pathlib

import mqclab

PACKAGE = pathlib.Path(mqclab.__file__).parent
CALLERS = (PACKAGE, PACKAGE.parents[1] / "tests", PACKAGE.parents[1] / "benchmarks")

# Defaults that no call passes under the name of their function, with the
# reason each may stay.
ALLOWED = {
    "equilibria.gibbs_conditional(check_confined)":
        "set through the builder table of equilibrium_at, which calls build(sub, check_confined=...)",
    "equilibria.gibbs_uhlmann(check_confined)":
        "set through the builder table of equilibrium_at",
    "equilibria.gibbs_meanfield_uncoupled(check_confined)":
        "set through the builder table of equilibrium_at",
    "dynamics.RunResult(*)":
        "a result record: rk4_run fills its fields after it is built, none is a setting",
}


def _is_dataclass(node):
    return any((getattr(d, "id", None) or getattr(getattr(d, "func", None), "id", None))
               == "dataclass" for d in node.decorator_list)


def defaulted_parameters():
    """(label, the name a call of it goes by, position or None, keyword) for
    every defaulted parameter of a def and every defaulted dataclass field;
    a method's positions do not count ``self``."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign)]
                    for i, f in enumerate(fields):
                        if f.value is not None:
                            label = f"{module}.{child.name}({f.target.id})"
                            found.append((label, child.name, i, f.target.id))
                visit(child, module, scope + (child,))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                method = bool(scope) and isinstance(scope[-1], ast.ClassDef)
                skip = int(method and not any(getattr(d, "id", None) == "staticmethod"
                                              for d in child.decorator_list))
                name = scope[-1].name if child.name == "__init__" else child.name
                qual = ".".join(s.name for s in scope + (child,))
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    found.append((f"{module}.{qual}({arg.arg})", name, i - skip, arg.arg))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((f"{module}.{qual}({arg.arg})", name, None, arg.arg))
                visit(child, module, scope + (child,))
            else:
                visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return found


def calls_by_name():
    """Every call, under the name it calls: a function's or a class's, and
    for ``super().__init__`` those of the enclosing class's bases."""
    calls = {}

    def visit(node, bases):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, [getattr(b, "id", None) for b in child.bases])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                        and getattr(func.value, "func", None) is not None
                        and getattr(func.value.func, "id", None) == "super"):
                    names = bases
                elif isinstance(func, ast.Attribute):
                    names = [func.attr]
                else:
                    names = [getattr(func, "id", None)]
                for name in names:
                    calls.setdefault(name, []).append(child)
            visit(child, bases)

    for root in CALLERS:
        for path in sorted(root.glob("*.py")):
            visit(ast.parse(path.read_text()), [])
    return calls


def passes(call, position, keyword):
    if any(kw.arg in (keyword, None) for kw in call.keywords):  # None: a **mapping
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_default_is_passed_by_some_caller():
    calls = calls_by_name()
    unset = {label for label, name, position, keyword in defaulted_parameters()
             if not any(passes(c, position, keyword) for c in calls.get(name, []))}

    def allowed(label):
        return label in ALLOWED or label.split("(")[0] + "(*)" in ALLOWED

    assert sorted(label for label in unset if not allowed(label)) == []
    # and the allowlist names nothing that has since been set or removed
    assert set(ALLOWED) <= unset | {label.split("(")[0] + "(*)" for label in unset}
