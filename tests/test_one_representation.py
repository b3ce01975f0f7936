"""Real subspaces have one representation: complex basis columns.

hilbert.py is the only module that turns complex columns a + ib into real
columns (a, b), and only where it needs a real matrix.  This test keeps
realification from spreading back into the other modules of src/modlab.
It parses each of them and fails when one names realify, unrealify or
times_i (as a definition, an import, a name or an attribute), or passes
both a .real and a .imag to a concatenating call such as np.concatenate.

A subspace is its basis, and d is the row count of the basis.  The scan
also fails when a module other than hilbert.py names ComplexVectorSpace
or reads an attribute .space: no subspace carries a space object.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "modlab"
NAMES = {"realify", "unrealify", "times_i"}
CONCATENATE = {"concatenate", "hstack", "vstack", "stack", "column_stack",
               "block"}


def _named(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.alias):
        return node.asname or node.name
    return None


def realifications(tree):
    """(line, what) of each realification in a parsed module."""
    out = []
    for node in ast.walk(tree):
        if _named(node) in NAMES:
            out.append((getattr(node, "lineno", 0), _named(node)))
        if isinstance(node, ast.Call) and _named(node.func) in CONCATENATE:
            attrs = {n.attr for arg in node.args for n in ast.walk(arg)
                     if isinstance(n, ast.Attribute)}
            if {"real", "imag"} <= attrs:
                out.append((node.lineno, ".real with .imag"))
    return out


def space_objects(tree):
    """(line, what) of each use of a space object in a parsed module."""
    return [(getattr(node, "lineno", 0), _named(node))
            for node in ast.walk(tree)
            if _named(node) == "ComplexVectorSpace"
            or isinstance(node, ast.Attribute) and node.attr == "space"]


def scan(find):
    """'module:line: what' for each finding outside hilbert.py."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5, "the scan found too few modules to be working"
    return [f"{path.name}:{line}: {what}"
            for path in modules if path.name != "hilbert.py"
            for line, what in find(ast.parse(path.read_text()))]


def test_the_scan_sees_a_realification():
    tree = ast.parse("from .x import realify\n"
                     "z = np.concatenate([v.real.T, v.imag.T])\n")
    assert sorted(realifications(tree)) == [(1, "realify"),
                                            (2, ".real with .imag")]


def test_only_hilbert_realifies():
    found = scan(realifications)
    assert not found, "realification outside hilbert.py: " + "; ".join(found)


def test_the_scan_sees_a_space_object():
    tree = ast.parse("from .hilbert import ComplexVectorSpace\n"
                     "V = ComplexVectorSpace(K.space.dim)\n"
                     "space = fs.dim + rep.grid.space_dim\n")
    assert sorted(space_objects(tree)) == [(1, "ComplexVectorSpace"),
                                           (2, "ComplexVectorSpace"),
                                           (2, "space")]


def test_no_module_but_hilbert_holds_a_space_object():
    found = scan(space_objects)
    assert not found, "space object outside hilbert.py: " + "; ".join(found)
