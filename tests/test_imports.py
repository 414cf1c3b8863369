"""Each module of the package keeps its underscore names to itself."""

import ast
import importlib
import inspect
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


def public_functions(root):
    """(qualified name, function) for each public function and method the
    package's modules define; __main__ is left out, importing it runs the CLI."""
    for path in sorted(root.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"haloslopes.{path.stem}")
        owners = [(path.stem, module)] + [
            (f"{path.stem}.{name}", obj) for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        ]
        for prefix, owner in owners:
            for name, obj in vars(owner).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    yield f"{prefix}.{name}", obj


def test_the_prime_alone_names_q():
    # q = q_for(p) and phi(q) = phi_q(p): no function takes q beside p
    found = [name for name, fn in public_functions(PACKAGE)
             if {"p", "q"} <= set(inspect.signature(fn).parameters)]
    assert len(dict(public_functions(PACKAGE))) > 50
    assert found == []
    assert not hasattr(importlib.import_module("haloslopes.polygon"), "_phi")


def test_one_error_class_per_exit_code():
    # the CLI tells errors apart only by exit code; the message names the case
    from haloslopes.padic_core import OrderBound, PadicError

    errors = {
        obj for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__main__"
        for obj in vars(importlib.import_module(f"haloslopes.{path.stem}")).values()
        if inspect.isclass(obj) and issubclass(obj, PadicError) and obj is not PadicError
    }
    codes = sorted(cls.exit_code for cls in errors)
    assert codes == [1, 2, 3], {cls.__name__: cls.exit_code for cls in errors}
    assert "error" not in inspect.signature(OrderBound.meets).parameters
