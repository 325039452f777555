"""Every function, method and class defined in the package is referenced
somewhere in the package beyond its own definition; a name the package
exports in `__all__` may instead be referenced by a demo.  Tests do not
count, so no public API exists only for the tests that call it.  Every
top-level helper of tests/oracles.py is referenced by some test module.

References are counted by name (plain names and attribute names), so the
check is conservative: a definition passes when any same-named reference
exists outside its own body.  `__init__.py` only imports and lists names,
which are not references.
"""

import ast
from collections import Counter
from pathlib import Path

import deformedw

SRC = Path(deformedw.__file__).resolve().parent
DEMOS = SRC.parent.parent / "demos"
TESTS = Path(__file__).resolve().parent


def _references(tree, methods_only=False) -> Counter:
    """Name and attribute references in the tree; a method is called through
    an attribute, so with methods_only plain names are not counted."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not methods_only:
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _definitions(tree):
    """(node, is_method) for every function and class definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    methods = {id(child) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for child in node.body}
    return [(node, id(node) in methods) for node in ast.walk(tree)
            if isinstance(node, defs)]


def test_every_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs, attr_refs = Counter(), Counter()
    for tree in trees.values():
        refs.update(_references(tree))
        attr_refs.update(_references(tree, methods_only=True))
    demo_refs = Counter()
    for path in sorted(DEMOS.glob("*.py")):
        demo_refs.update(_references(ast.parse(path.read_text())))
    public = set(deformedw.__all__)
    unused = []
    for module, tree in trees.items():
        for node, is_method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            seen = attr_refs if is_method else refs
            uses = seen[name] - _references(node, is_method)[name]
            if name in public and not is_method:
                uses += demo_refs[name]
            if uses <= 0:
                unused.append(f"{module}:{node.lineno} {name}")
    assert not unused, unused


def test_every_oracle_is_used_by_a_test():
    # tests/oracles.py holds reference code the package no longer calls; a
    # helper there that no test reads is dead too
    refs = Counter()
    for path in sorted(TESTS.glob("test_*.py")):
        refs.update(_references(ast.parse(path.read_text())))
    tree = ast.parse((TESTS / "oracles.py").read_text())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = [f"oracles.py:{node.lineno} {node.name}" for node in tree.body
              if isinstance(node, defs) and not refs[node.name]]
    assert not unused, unused
