"""The wedge Tomita operator has one spectral kernel.

s_W = conj after delta^(1/2), and delta^(1/2) of the origin right wedge
is the capped multiplier exp(_log_multiplier) in the rapidity frequency.
freefield._half_spectrum is the one function that forms it; every wedge
map, and modloc's extraction through them, reads the spectrum it
returns.  This test parses each module of src/modlab and fails when any
other function (or module-level code, or an import) names
_log_multiplier, so a second copy of the multiplier cannot creep back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "modlab"
MULTIPLIER = "_log_multiplier"
KERNEL = "_half_spectrum"


def readers(node, owner="<module>"):
    """(line, function) of each name of MULTIPLIER in a parsed module,
    with the innermost function around it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.asname or node.name if isinstance(node, ast.alias)
            else None)
    found = [(getattr(node, "lineno", 0), owner)] if name == MULTIPLIER else []
    for child in ast.iter_child_nodes(node):
        found += readers(child, owner)
    return found


def test_the_scan_sees_every_reader():
    tree = ast.parse("from .freefield import _log_multiplier\n"
                     "def _log_multiplier(grid):\n"
                     "    return grid.omega\n"
                     "def _half_spectrum(c, grid):\n"
                     "    return c * _log_multiplier(grid)\n"
                     "def _capped(c, grid):\n"
                     "    def inner():\n"
                     "        return ff._log_multiplier(grid)\n"
                     "    return inner()\n")
    assert sorted(readers(tree)) == [(1, "<module>"), (5, KERNEL),
                                     (8, "inner")]


def test_only_the_kernel_reads_the_log_multiplier():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5, "the scan found too few modules to be working"
    found = {f"{path.name}:{line}: {owner}"
             for path in modules
             for line, owner in readers(ast.parse(path.read_text()))}
    kernel = {f for f in found if f.startswith("freefield.py:")
              and f.endswith(f": {KERNEL}")}
    assert found == kernel, ("the multiplier is formed outside "
                             f"{KERNEL}: " + "; ".join(sorted(found - kernel)))
    assert len(kernel) == 1, "the kernel no longer reads the multiplier"
