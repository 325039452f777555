"""Every function, method and class defined in the package is referenced
somewhere in the package beyond its own definition.

References are counted by name (plain names and attribute names), so the
check is conservative: a definition passes when any same-named reference
exists outside its own body.
"""

import ast
from collections import Counter
from pathlib import Path

import deformedw

SRC = Path(deformedw.__file__).resolve().parent

# Kept although nothing in the package calls them: test fixtures and oracles,
# and one demo helper.
TEST_ONLY = {
    "from_terms",       # LaurentWindow: exact Laurent polynomial operands
    "delta_window",     # LaurentWindow: the formal delta distribution
    "is_empty",         # LaurentWindow: the empty window of a bad product
    "partition_count",  # characters: brute-force partition oracle
    "leading",          # QSeries.leading: character tests and demo 04
}


def _references(tree) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _definitions(tree):
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in ast.walk(tree) if isinstance(node, defs)]


def test_every_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    exempt = set(deformedw.__all__) | TEST_ONLY
    unused = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            name = node.name
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if refs[name] - _references(node)[name] <= 0:
                unused.append(f"{module}:{node.lineno} {name}")
    assert not unused, unused
