"""No module of the package reads a private name of another module.

A helper that a second module needs gets a public name in its home module;
`other._helper` would tie the reader to the other module's internals.  The
check parses each module with `ast` and reports every attribute `x._name`
(dunders excepted) whose `x` an import of that module binds to a module.

A second check keeps code that serves one flow backend in that backend's
module (`backend_only`, `state_backend_reads`): a backend is reached only
through its table of operations in `state.BACKENDS`, which a toy backend
registered here runs through `runner.run` and `areaflow flow`.
"""

import ast
import importlib.util
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import areaflow
from areaflow.cli import main
from areaflow.errors import ConfigurationError
from areaflow.flowsim import equivariant, initial_state, run, torus
from areaflow.flowsim.state import BACKENDS, MonitorRecord, ScenarioConfig

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
# holds what both share and the table of operations, runner.py drives both.
FLOWSIM = "areaflow.flowsim"
BACKEND_MODULES = {f"{FLOWSIM}.torus", f"{FLOWSIM}.equivariant"}


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


def _imported_modules(tree, package):
    """Every module an import anywhere in tree names: `import x`, and
    `from x import y` as x, or as x.y where that is a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names
                         if _is_module(f"{base}.{alias.name}"))
    return found


def backend_only(sources):
    """'state.f' for each function f of flowsim/state.py read by exactly one
    backend module and by no other module, and 'runner binds m' for each
    backend module m that flowsim/runner.py imports.  sources maps paths
    relative to the package directory to module text."""
    state, runner = f"{FLOWSIM}.state", f"{FLOWSIM}.runner"
    reads, functions, imported = {}, {}, {}
    for relpath, text in sources.items():
        module, package = _module_of(relpath)
        tree = ast.parse(text)
        modules, names = _bindings(tree, package)
        reads[module] = _reads(tree, modules, names) | set(names.values())
        functions[module] = [node.name for node in tree.body
                             if isinstance(node, ast.FunctionDef)]
        imported[module] = _imported_modules(tree, package)
    found = []
    for name in functions.get(state, []):
        readers = {module for module, read in reads.items()
                   if module != state and (state, name) in read}
        if len(readers) == 1 and readers <= BACKEND_MODULES:
            found.append(f"state.{name}")
    found += [f"runner binds {module.rsplit('.', 1)[1]}"
              for module in imported.get(runner, set()) & BACKEND_MODULES]
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
        "flowsim/runner.py": ("from .state import initial_state\n"
                              "def run(config):\n"
                              "    from .torus import step_torus\n"
                              "    from . import equivariant as eq\n"
                              "    return step_torus, eq.step_equivariant\n"
                              "def fitted_decay_rate(t, y): return initial_state(t)\n"),
    }
    assert backend_only(sources) == ["runner binds equivariant", "runner binds torus",
                                     "state.second_difference", "state.source_side"]


def _is_derived_field(stmt):
    return (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
            and getattr(stmt.value.func, "id", None) == "derived")


def state_backend_reads(text):
    """'<where> reads <backend>.<name>' for each read of a backend module in
    the text of flowsim/state.py outside the `BACKENDS` table and the state
    types' derived fields; <where> is the enclosing top-level name."""
    tree = ast.parse(text)
    modules, names = _bindings(tree, FLOWSIM)
    found = []

    def check(node, where):
        found.extend(f"{where} reads {module.rsplit('.', 1)[1]}.{attr}"
                     for module, attr in _reads(node, modules, names)
                     if module in BACKEND_MODULES)

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if not _is_derived_field(stmt):
                    check(stmt, node.name)
        elif not (isinstance(node, ast.Assign)
                  and [ast.unparse(t) for t in node.targets] == ["BACKENDS"]):
            check(node, getattr(node, "name", "module"))
    return sorted(found)


def test_state_reads_backends_only_in_the_table_and_derived_fields():
    assert state_backend_reads((PACKAGE_DIR / "flowsim" / "state.py").read_text()) == []


def test_the_check_reports_a_backend_read_in_state():
    source = ("from . import torus\n"
              "from .equivariant import initial\n"
              "class S:\n"
              "    df = derived(lambda s: torus.first_derivatives(s))\n"
              "    h = property(lambda s: torus.spacing(s))\n"
              "def initial_state(config):\n"
              "    return initial(config)\n"
              "BACKENDS = {'torus': torus.OPERATIONS}\n"
              "LIMIT = torus.NODE_BLOCK\n")
    assert state_backend_reads(source) == ["S reads torus.spacing",
                                           "initial_state reads equivariant.initial",
                                           "module reads torus.NODE_BLOCK"]


OPERATION_KEYS = {"validate", "initial", "time_step", "step", "light", "monitor",
                  "velocity", "self_check"}


def _declares_the_operations(ops):
    check = ops["self_check"]
    return (set(ops) == OPERATION_KEYS
            and all(callable(ops[key]) for key in OPERATION_KEYS - {"self_check"})
            and (check is None or (isinstance(check[0], str) and callable(check[1]))))


def test_every_backend_declares_the_operations():
    assert [name for name, ops in BACKENDS.items() if not _declares_the_operations(ops)] == []


# Each table entry looks its function up in its module when called, so a
# wrapper installed on the module (a traced benchmark run, a test's counter)
# sees every call; an entry bound to the function object at import would not.
RUNS = {"torus": (torus, dict(backend="torus", resolution=16, initial="sine",
                               amplitude=0.4, t_max=0.1, cadence=5)),
        "equivariant": (equivariant, dict(backend="equivariant_sphere", resolution=32,
                                          initial="sine", amplitude=0.3, t_max=0.05,
                                          cadence=5))}
WRAPPED = [*(("torus", name) for name in (
               "step_torus", "flow_velocity", "first_derivatives", "pointwise_phi_stats",
               "torus_monitors", "max_step", "initial")),
           *(("equivariant", name) for name in (
               "step_equivariant", "profile_spectrum", "equivariant_monitors",
               "normal_velocity", "profile_derivative", "profile_velocity",
               "mu_orthogonality", "initial"))]


@pytest.mark.parametrize("backend, name", WRAPPED, ids=[".".join(w) for w in WRAPPED])
def test_a_wrapper_installed_on_the_backend_module_sees_the_run(monkeypatch, backend, name):
    module, config = RUNS[backend]
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    _, verdict = run(ScenarioConfig(**config))
    assert verdict["steps"] > config["cadence"] and calls


def test_run_refuses_a_state_of_another_backend():
    state = initial_state(ScenarioConfig(backend="torus", resolution=16))
    config = ScenarioConfig(backend="equivariant_sphere", resolution=64)
    with pytest.raises(ConfigurationError, match="state: torus at resolution 16; config: "
                                                 "equivariant_sphere at resolution 64"):
        run(config, state)


def test_run_refuses_a_state_at_another_resolution():
    state = initial_state(ScenarioConfig(backend="torus", resolution=16))
    with pytest.raises(ConfigurationError, match="state: torus at resolution 16; "
                                                 "config: torus at resolution 32"):
        run(ScenarioConfig(backend="torus", resolution=32), state)


def test_run_refuses_a_torus_state_of_another_shape():
    state = initial_state(ScenarioConfig(backend="torus", n=3, m=2, resolution=8))
    with pytest.raises(ConfigurationError, match=re.escape(
            "state: torus at resolution 8; config: torus at resolution 8; "
            "(n, m) = (3, 2) and (2, 2)")):
        run(ScenarioConfig(backend="torus", resolution=8), state)
    # an equivariant state is the sphere pair n = m = 2 of its config
    state = initial_state(ScenarioConfig(backend="equivariant_sphere", resolution=16))
    assert (state.n, state.m) == (2, 2)


def test_unknown_backend_lists_the_registered_ones():
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(backend="x")
    assert str(err.value) == "unknown backend 'x' (one of: equivariant_sphere, torus)"
    with pytest.raises(ConfigurationError, match="^equivariant backend is the sphere pair "
                                                 "n = m = 2$"):
        ScenarioConfig(backend="equivariant_sphere", n=3)


# A toy backend: a graph rho over the circle under the curve-shortening flow
# rho_t = rho'' / (1 + rho'^2), with centred differences on N periodic nodes.
@dataclass(frozen=True)
class CurveState:
    resolution: int
    rho: np.ndarray
    t: float = 0.0
    steps: int = 0

    h = property(lambda s: 2.0 * math.pi / s.resolution)
    backend = "curve"
    n = m = 1


def _curve_differences(state):
    ahead, behind = np.roll(state.rho, -1), np.roll(state.rho, 1)
    return (ahead - behind) / (2.0 * state.h), (ahead - 2.0 * state.rho + behind) / state.h**2


def _curve_velocity(state):
    d1, d2 = _curve_differences(state)
    return d2 / (1.0 + d1**2)


def _curve_light(state, config=None):
    lam = float(np.abs(_curve_differences(state)[0]).max())
    return -math.log1p(lam**2), 0.0, lam, False


def _curve_monitor(state):
    d1, d2 = _curve_differences(state)
    min_phi, max_pair, max_lam, flagged = _curve_light(state)
    return MonitorRecord(t=state.t, min_phi=min_phi, max_two_dilation=max_pair,
                         max_lambda=max_lam, sup_a2=float((d2**2 / (1.0 + d1**2)**3).max()),
                         flagged=flagged)


def _curve_initial(config):
    x = np.arange(config.resolution) * (2.0 * math.pi / config.resolution)
    return CurveState(config.resolution, config.amplitude * np.sin(x))


def _curve_validate(config):
    if (config.n, config.m) != (1, 1):
        raise ConfigurationError("the curve backend is n = m = 1")


CURVE_OPERATIONS = {
    "validate": _curve_validate,
    "initial": _curve_initial,
    "time_step": lambda state, config: config.cfl * state.h**2,
    "step": lambda state, dt, config: CurveState(state.resolution,
                                                 state.rho + dt * _curve_velocity(state),
                                                 state.t + dt, state.steps + 1),
    "light": _curve_light,
    "monitor": _curve_monitor,
    "velocity": _curve_velocity,
    # the maximum principle: sup |rho| does not grow
    "self_check": ("curve_sup_abs_rho", lambda state: float(np.abs(state.rho).max())),
}
CURVE_SCENARIO = ("backend = curve\nn = 1\nm = 1\nresolution = 32\ninitial = sine\n"
                  "amplitude = 0.3\nlambda_stop = 1e-2\ncadence = 20\n")


def test_a_toy_backend_runs_through_the_runner_and_the_cli(monkeypatch, tmp_path, capsys):
    assert _declares_the_operations(CURVE_OPERATIONS)
    monkeypatch.setitem(BACKENDS, "curve", CURVE_OPERATIONS)
    with pytest.raises(ConfigurationError, match="n = m = 1"):
        ScenarioConfig(backend="curve")
    with pytest.raises(ConfigurationError, match=r"\(one of: curve, equivariant_sphere, "
                                                 r"torus\)"):
        ScenarioConfig(backend="x")

    config = ScenarioConfig(backend="curve", n=1, m=1, resolution=32, amplitude=0.3,
                            lambda_stop=1e-2, cadence=20)
    records, verdict = run(config)
    assert verdict["outcome"] == "converged" and verdict["backend"] == "curve"
    assert verdict["monotonicity_violations"] == 0
    assert verdict["final_max_lambda"] < config.lambda_stop
    assert verdict["curve_sup_abs_rho"] == np.abs(initial_state(config).rho).max()
    assert records[0].t == 0.0 and records[-1].t == verdict["t_final"]

    scenario = tmp_path / "curve.cfg"
    scenario.write_text(CURVE_SCENARIO)
    assert main(["flow", str(scenario), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == (tmp_path / "out" / "verdict.json").read_text()
    assert (tmp_path / "out" / "timeseries.csv").read_text().count("\n") == len(records) + 1
