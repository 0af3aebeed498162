"""No production code that only tests call.

Every function, method and class defined in ``src/emofuse/*.py`` must be
referenced from the program: by name (``ast.Name``) or as an attribute
(``ast.Attribute``) somewhere in ``src/``, in ``perfbench/*.py`` other
than its tests, or in ``scripts/*.py``. Dunders are exempt, and so are
the names the tests are meant to call: ``finite_diff_check``, the
gradient checker every op is checked with, and ``fuse_dialogue`` and
``pick``, which ``tests/test_acceptance.py`` pins.

Likewise every defaulted parameter of a function in ``src/emofuse/*.py``
must be passed, positionally or by keyword, by some call in the same
program. Exempt are the parameters ``tests/test_acceptance.py`` pins:
``man_forward``'s ``trace``, ``fuse_dialogue``'s ``mix``,
``Rng.uniform``'s ``lo`` and ``hi``, and ``finite_diff_check``'s
``step``.

This is a floor, not a proof: a reference or a call is matched by bare
name, so a local variable or an attribute of something else with the
same name counts. ``Rng.normal`` went unnoticed by this kind of check,
because ``fit_surrogate`` has a local variable called ``normal``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {"finite_diff_check", "fuse_dialogue", "pick"}
EXEMPT_PARAMETERS = {("man_forward", "trace"), ("fuse_dialogue", "mix"),
                     ("uniform", "lo"), ("uniform", "hi"), ("finite_diff_check", "step")}


def trees(paths):
    return [(p, ast.parse(p.read_text(encoding="utf-8"), str(p))) for p in paths]


def src_and_program():
    src = trees(sorted(ROOT.glob("src/emofuse/*.py")))
    return src, src + trees(sorted(p for p in ROOT.glob("perfbench/*.py")
                                   if not p.name.startswith("test_")) +
                            sorted(ROOT.glob("scripts/*.py")))


def test_every_definition_in_src_is_referenced_by_the_program():
    src, program = src_and_program()
    refs = set()
    for _, tree in program:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    unused = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
              for path, tree in src for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in EXEMPT | refs]
    assert not unused, "defined in src/ but referenced only by tests, or not at all: " + \
        ", ".join(unused)


def defaulted_parameters(tree):
    """(function, the name its calls use, parameter, its index among a
    call's positional arguments or None if keyword-only) for every
    defaulted parameter. A class's ``__init__`` is called by the class
    name; a method's call passes ``self`` or ``cls`` implicitly."""
    methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        cls = methods.get(id(f))
        if f.name.startswith("__") and not (cls and f.name == "__init__"):
            continue
        name = cls if f.name == "__init__" else f.name
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield f, name, arg.arg, i - bound
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield f, name, arg.arg, None


def passes(call, param, index):
    """Whether ``call`` passes ``param``: by keyword or ``**``, or by
    position or ``*`` when ``index`` is not None."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index or
                                  any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_in_src_is_passed_by_the_program():
    src, program = src_and_program()
    calls = {}
    for _, tree in program:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else \
                    fn.attr if isinstance(fn, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    dead = [f"{path.relative_to(ROOT)}:{f.lineno} {name}({param})"
            for path, tree in src for f, name, param, index in defaulted_parameters(tree)
            if (name, param) not in EXEMPT_PARAMETERS
            and not any(passes(call, param, index) for call in calls.get(name, []))]
    assert not dead, "defaulted parameters no program call passes: " + ", ".join(dead)
