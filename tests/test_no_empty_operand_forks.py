"""The subspace and Fock kernels take one path at every size.

numpy's svd and eigvalsh accept empty matrices (test_hilbert.py checks
that contract), so hilbert's kernels, and modloc's use of them, need no
branch for an empty operand: the general code itself returns the empty
subspace, the zero residual or the empty angle array, and keeps a
stack's axis, which an early return can drop.  Likewise fock's
symmetrizations give the vacuum at degree 0 from their general path:
one permutation of nothing, over the one empty word.  This test parses
those modules and fails on any `if` that compares an operand with 0
and returns from its body, so such a fork cannot creep back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "modlab"
MODULES = ("hilbert.py", "modloc.py", "fock.py")


def compares_with_zero(test):
    """Whether an if-test compares an operand with 0."""
    return any(isinstance(node, ast.Compare)
               and any(isinstance(o, ast.Constant) and o.value == 0
                       for o in [node.left, *node.comparators])
               for node in ast.walk(test))


def empty_operand_forks(tree):
    """Line of each if that compares an operand with 0 and returns from
    its body."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.If) and compares_with_zero(node.test)
            and any(isinstance(n, ast.Return)
                    for stmt in node.body for n in ast.walk(stmt))]


def test_the_scan_finds_an_empty_operand_fork():
    tree = ast.parse("def intersection(K1, K2):\n"
                     "    if K1.dim == 0 or K2.dim == 0:\n"
                     "        return K1\n"
                     "    if K1.dim > 0:\n"
                     "        K1 = K2\n"
                     "    warning = K2.dim == 0\n"
                     "    if K2.dim == 3:\n"
                     "        return K2\n"
                     "    if 0 >= K2.dim:\n"
                     "        return None\n"
                     "    if n == 0:\n"
                     "        return vacuum(space)\n"
                     "    return K1\n")
    assert sorted(empty_operand_forks(tree)) == [2, 9, 11]


def test_no_subspace_kernel_forks_on_an_empty_operand():
    found = [f"{name}:{line}" for name in MODULES
             for line in empty_operand_forks(ast.parse((SRC / name).read_text()))]
    assert not found, "early return for an empty operand: " + "; ".join(found)
