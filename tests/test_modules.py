"""Module boundaries inside the package: no module reads another
module's private names, the search module stands below the families,
and no check is an ``assert`` statement that ``python -O`` drops."""

import ast
from pathlib import Path

import rlid

PACKAGE = Path(rlid.__file__).parent

def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _cross_module_private_names(path):
    """(module, source, name) for each private name ``path`` takes from
    another package module, by ``from .m import _x`` or as ``m._x``."""
    here = path.stem
    tree = ast.parse(path.read_text())
    aliases = {}  # local name -> package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append((here, node.module, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            found.append((here, aliases[node.value.id], node.attr))
    return found


def _imported_modules(path):
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(alias.name for alias in node.names)
            else:
                modules.add(node.module)
    return modules


def test_no_module_reads_another_modules_private_names():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _cross_module_private_names(path)
    assert found == []


def test_solvers_does_not_import_families():
    assert "families" not in _imported_modules(PACKAGE / "solvers.py")


def test_the_package_holds_no_assert_statement():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_attribute(node, owner, name):
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and (node.value.id, node.attr) == (owner, name)
    )


def test_cli_leaves_every_layout_to_io():
    """``cli`` passes --output on to an ``io`` writer: it compares
    ``args.output`` with nothing and calls no graph writer itself."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.Compare) and any(
            _is_attribute(x, "args", "output") for x in [node.left, *node.comparators]
        ):
            found.append("cli.py:%d compares args.output" % node.lineno)
        if isinstance(node, ast.Call) and any(
            _is_attribute(node.func, "io", name) for name in ("export_dot", "write_graph_edgelist")
        ):
            found.append("cli.py:%d calls io.%s" % (node.lineno, node.func.attr))
    assert found == []
