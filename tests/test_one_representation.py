"""Real subspaces have one representation: complex basis columns.

hilbert.py is the only module that turns complex columns a + ib into real
columns (a, b), and only where it needs a real matrix.  This test keeps
realification from spreading back into the other modules of src/modlab.
It parses each of them and fails when one names realify, unrealify or
times_i (as a definition, an import, a name or an attribute), or passes
both a .real and a .imag to a concatenating call such as np.concatenate.
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


def test_the_scan_sees_a_realification():
    tree = ast.parse("from .x import realify\n"
                     "z = np.concatenate([v.real.T, v.imag.T])\n")
    assert sorted(realifications(tree)) == [(1, "realify"),
                                            (2, ".real with .imag")]


def test_only_hilbert_realifies():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5, "the scan found too few modules to be working"
    found = [f"{path.name}:{line}: {what}"
             for path in modules if path.name != "hilbert.py"
             for line, what in realifications(ast.parse(path.read_text()))]
    assert not found, "realification outside hilbert.py: " + "; ".join(found)
