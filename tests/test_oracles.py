"""The reference oracles must not share the kernel's primitive code."""

import ast
import re
from pathlib import Path

from haloslopes import padic_core

import oracles

# what the reference action path may take from the kernel's module: the
# matrix type, its classification and the precision budget, nothing computed
MONOID_ACTION_ALLOWED = {
    "DeltaMat",
    "MonoidClass",
    "NotInMonoid",
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
