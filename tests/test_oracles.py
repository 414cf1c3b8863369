"""The reference oracles must not share the code they check."""

import ast
import inspect
import re
import sys
import textwrap
from pathlib import Path

from haloslopes import padic_core
from haloslopes.charpoly import berkowitz_charpoly
from haloslopes.checks import charpoly_cofactor_oracle
from haloslopes.iwasawa import LambdaElt

import oracles

# what the reference action path may take from the kernel's module: the
# matrix type, its classification and the precision budget, nothing computed
MONOID_ACTION_ALLOWED = {
    "DeltaMat",
    "MonoidClass",
    "check_monoid",
    "column_input_prec",
}


def oracle_tree():
    return ast.parse(Path(oracles.__file__).read_text())


def test_oracles_name_no_primitive_of_padic_core():
    primitives = {
        name
        for name, obj in vars(padic_core).items()
        if callable(obj)
        and getattr(obj, "__module__", None) == padic_core.__name__
        and re.search(r"torsion|teich|log|binom", name)
    }
    assert {"torsion_residue", "log_line", "binomials"} <= primitives
    named = set()
    for node in ast.walk(oracle_tree()):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            named |= {alias.name for alias in node.names}
    assert not named & primitives


def test_oracles_import_only_matrix_data_from_monoid_action():
    for node in ast.walk(oracle_tree()):
        if isinstance(node, ast.Import):
            assert all(a.name != "haloslopes.monoid_action" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module == "haloslopes":
                assert "monoid_action" not in names
            if node.module == "haloslopes.monoid_action":
                assert names <= MONOID_ACTION_ALLOWED, names - MONOID_ACTION_ALLOWED


CODEC = {"pack", "unpack", "reduce_digits", "ring_width"}


def reached_names(roots) -> set:
    """Every name the sources of roots mention, following each one that names
    a function or class of the package or of the oracles to its source."""
    seen, names, todo = set(), set(), list(roots)
    while todo:
        obj = todo.pop()
        if obj in seen:
            continue
        seen.add(obj)
        scope = vars(sys.modules[obj.__module__])
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(obj)))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            names.add(name)
            target = scope.get(name)
            if (inspect.isfunction(target) or inspect.isclass(target)) and (
                target.__module__.startswith("haloslopes") or target.__module__ == "oracles"
            ):
                todo.append(target)
    return names


def test_cofactor_reference_side_never_reaches_the_packed_codec():
    # the Berkowitz tests feed charpoly_cofactor_oracle CoeffLambda entries,
    # whose coefficients are PAdicNum records, and the charpoly-oracle check
    # LambdaElt entries; a codec fault must reach only Berkowitz's side
    reference = reached_names([charpoly_cofactor_oracle, oracles.CoeffLambda, LambdaElt.__mul__])
    assert {"PAdicNum", "LambdaElt"} <= reference
    assert not reference & CODEC
    # the walk does find the codec where it is used
    assert CODEC <= reached_names([berkowitz_charpoly])
