"""Each module of the package keeps its underscore names to itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "haloslopes"


def private_imports(root):
    """'module.py: source.name' for every _name imported from the package."""
    found = []
    paths = sorted(root.glob("*.py"))
    assert len(paths) >= 9, f"no package sources under {root}"
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level or module.split(".")[0] == "haloslopes":
                found += [
                    f"{path.name}: {module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    return found


def test_package_imports_no_private_name_of_another_module():
    assert private_imports(PACKAGE) == []


# PAdicNum stays only behind the forms the benchmark and the oracles read
PADICNUM_MODULES = {"padic_core.py", "iwasawa.py", "monoid_action.py"}


def modules_naming(root, name):
    """The package sources that name `name` as an identifier or attribute."""
    found = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and name in (node.name, node.asname))
                or (isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name)
            )
            if named:
                found.add(path.name)
    return found


def test_padicnum_named_only_where_allowed():
    assert modules_naming(PACKAGE, "PAdicNum") <= PADICNUM_MODULES
    assert "padic_core.py" in modules_naming(PACKAGE, "PAdicNum")


def test_padicnum_is_a_record_without_arithmetic():
    # its fields, their constructor, the key equality and hashing read, and
    # is_unit: no operator, no precision change, nothing aliased to one
    (cls,) = [
        node
        for node in ast.walk(ast.parse((PACKAGE / "padic_core.py").read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "PAdicNum"
    ]
    methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    assigned = {
        target.id
        for node in cls.body
        if isinstance(node, ast.Assign)
        for target in node.targets
    }
    assert methods == {"__init__", "_key", "is_unit"}
    assert assigned == {"__slots__"}


def test_no_module_keeps_the_object_path():
    # valuations come from val_p_int on plain residues, precision changes
    # from constructing the value again
    for name in ("val_p", "with_prec"):
        assert modules_naming(PACKAGE, name) == set(), name
