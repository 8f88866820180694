"""No module of the package reads a private name of another module.

A helper that a second module needs gets a public name in its home module;
`other._helper` would tie the reader to the other module's internals.  The
check parses each module with `ast` and reports every attribute `x._name`
(dunders excepted) whose `x` an import of that module binds to a module.
"""

import ast
import importlib.util
from pathlib import Path

import areaflow

PACKAGE_DIR = Path(areaflow.__file__).resolve().parent


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:       # a parent is a module, not a package
        return False


def private_reads(source, package):
    """'x._name' for each private attribute read on an imported module x;
    package is the package that relative imports resolve against."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            modules.update(alias.asname or alias.name for alias in node.names
                           if _is_module(f"{base}.{alias.name}"))
    return sorted(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")
                  and not node.attr.startswith("__"))


def test_no_module_reads_another_modules_private_names():
    found = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        package = ".".join(("areaflow",) + path.relative_to(PACKAGE_DIR).parts[:-1])
        reads = private_reads(path.read_text(), package)
        if reads:
            found[str(path.relative_to(PACKAGE_DIR))] = reads
    assert found == {}


def test_the_check_reports_a_private_read():
    source = ("import numpy as np\nfrom . import torus\nfrom .state import TorusState\n"
              "torus._padded(np._x, TorusState._y, torus.__name__)\n")
    assert private_reads(source, "areaflow.flowsim") == ["np._x", "torus._padded"]
