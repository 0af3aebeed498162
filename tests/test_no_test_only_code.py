"""No production code that only tests call.

Every function, method and class defined in ``src/emofuse/*.py`` must be
referenced from the program: by name (``ast.Name``) or as an attribute
(``ast.Attribute``) somewhere in ``src/``, in ``perfbench/*.py`` other
than its tests, or in ``scripts/*.py``. Dunders are exempt, and so are
the names the tests are meant to call: ``finite_diff_check``, the
gradient checker every op is checked with, and ``fuse_dialogue`` and
``pick``, which ``tests/test_acceptance.py`` pins.

This is a floor, not a proof: a reference is matched by bare name, so a
local variable or an attribute of something else with the same name
counts. ``Rng.normal`` went unnoticed by this kind of check, because
``fit_surrogate`` has a local variable called ``normal``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {"finite_diff_check", "fuse_dialogue", "pick"}


def trees(paths):
    return [(p, ast.parse(p.read_text(encoding="utf-8"), str(p))) for p in paths]


def test_every_definition_in_src_is_referenced_by_the_program():
    src = trees(sorted(ROOT.glob("src/emofuse/*.py")))
    program = src + trees(sorted(p for p in ROOT.glob("perfbench/*.py")
                                 if not p.name.startswith("test_")) +
                          sorted(ROOT.glob("scripts/*.py")))
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
