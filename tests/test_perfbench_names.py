"""Every name the benchmark's traced run wraps exists in the package.

``perfbench/workloads.py`` wraps kernels, samplers and flow functions by
name; deleting or renaming one breaks only a traced benchmark run.  These
tests call each workload's ``instrument`` with a recorder that checks the
names and patches nothing, so such a change fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from areaflow import campaigns

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
MODULES = ("campaigns", "verifier", "flowsim.torus", "flowsim.equivariant",
           "flowsim.runner", "flowsim.consistency")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


class NameCheckingRecorder:
    """The part of the benchmark's recorder that ``instrument`` calls: each
    call asserts that its attribute exists, and nothing is replaced."""

    def __init__(self):
        self.names = []

    def time_calls(self, module, attr):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        self.names.append(f"{module.__name__}.{attr}")

    count_calls = time_calls

    def patch(self, owner, key, replacement):
        assert key in owner if isinstance(owner, dict) else hasattr(owner, key), key

    def timed(self, fn, name):
        return fn


@pytest.mark.parametrize("name", sorted(_workloads()))
def test_every_wrapped_name_exists(name):
    mods = [importlib.import_module(f"areaflow.{m}") for m in MODULES]
    before = [dict(vars(m)) for m in mods]
    suites = dict(campaigns.SUITES)
    rec = NameCheckingRecorder()
    _workloads()[name].instrument(rec)
    assert rec.names
    for m, b in zip(mods, before):
        assert all(vars(m)[k] is v for k, v in b.items()), m.__name__
    assert all(campaigns.SUITES[k] is v for k, v in suites.items())


def test_a_deleted_wrapped_name_fails(monkeypatch):
    monkeypatch.delattr(campaigns, "phi_values")
    with pytest.raises(AssertionError, match="areaflow.campaigns.phi_values"):
        _workloads()["verify_sweep"].instrument(NameCheckingRecorder())
