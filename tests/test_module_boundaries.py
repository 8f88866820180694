"""No module of the package reads a private name of another module.

A helper that a second module needs gets a public name in its home module;
`other._helper` would tie the reader to the other module's internals.  The
check parses each module with `ast` and reports every attribute `x._name`
(dunders excepted) whose `x` an import of that module binds to a module.

A second check keeps code that serves one flow backend in that backend's
module (`backend_only`).
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


# Code that serves one flow backend lives in that backend's module: state.py
# holds what both share, runner.py drives both.
FLOWSIM = "areaflow.flowsim"
BACKENDS = {f"{FLOWSIM}.torus", f"{FLOWSIM}.equivariant"}


def _module_of(relpath):
    """(module, package) of a path relative to the package directory."""
    parts = Path(relpath).parts
    package = ".".join(("areaflow",) + parts[:-1])
    stem = Path(relpath).stem
    return (package if stem == "__init__" else f"{package}.{stem}"), package


def _bindings(tree, package):
    """Module-level imports: local name -> module, and local name ->
    (module, attribute) for a name imported from a module."""
    modules, names = {}, {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name) for alias in node.names if alias.asname)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            for alias in node.names:
                full = f"{base}.{alias.name}"
                if _is_module(full):
                    modules[alias.asname or alias.name] = full
                else:
                    names[alias.asname or alias.name] = (base, alias.name)
    return modules, names


def _reads(node, modules, names):
    """(module, attribute) for each module attribute read under node:
    `x.name` with x an imported module, or a bare name imported from one."""
    found = set()
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and sub.value.id in modules):
            found.add((modules[sub.value.id], sub.attr))
        elif isinstance(sub, ast.Name) and sub.id in names:
            found.add(names[sub.id])
    return found


def backend_only(sources):
    """'state.f' for each function f of flowsim/state.py read by exactly one
    backend module and by no other module, and 'runner.f' for each
    module-level function f of flowsim/runner.py that reads the attributes of
    exactly one backend module.  sources maps paths relative to the package
    directory to module text."""
    state, runner = f"{FLOWSIM}.state", f"{FLOWSIM}.runner"
    reads, functions = {}, {}
    for relpath, text in sources.items():
        module, package = _module_of(relpath)
        tree = ast.parse(text)
        modules, names = _bindings(tree, package)
        reads[module] = _reads(tree, modules, names) | set(names.values())
        functions[module] = [(node.name, _reads(node, modules, names)) for node in tree.body
                             if isinstance(node, ast.FunctionDef)]
    found = []
    for name, _ in functions.get(state, []):
        readers = {module for module, read in reads.items()
                   if module != state and (state, name) in read}
        if len(readers) == 1 and readers <= BACKENDS:
            found.append(f"state.{name}")
    for name, read in functions.get(runner, []):
        if len({module for module, _ in read} & BACKENDS) == 1:
            found.append(f"runner.{name}")
    return sorted(found)


def test_backend_only_code_lives_in_its_backend():
    sources = {str(path.relative_to(PACKAGE_DIR)): path.read_text()
               for path in sorted(PACKAGE_DIR.rglob("*.py"))}
    assert backend_only(sources) == []


def test_the_check_reports_backend_only_code():
    sources = {
        "flowsim/state.py": ("def second_difference(x, h): pass\n"
                             "def node_angles(J): pass\n"
                             "def source_side(J): return node_angles(J)\n"
                             "def initial_state(config): pass\n"),
        "flowsim/equivariant.py": "from .state import second_difference, source_side\n",
        "flowsim/consistency.py": "from .state import initial_state\n",
        "flowsim/runner.py": ("from . import equivariant, torus\n"
                              "from .state import initial_state\n"
                              "def _mu_rel(state): return equivariant.normal_velocity(state)\n"
                              "def run(config):\n"
                              "    return torus.step_torus, equivariant.step_equivariant\n"
                              "def fitted_decay_rate(t, y): return initial_state(t)\n"),
    }
    assert backend_only(sources) == ["runner._mu_rel", "state.second_difference",
                                     "state.source_side"]
