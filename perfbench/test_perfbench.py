"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys

import pytest

import rep
import run
import workloads
from tracing import Recorder, Tree, self_times

rep.import_checkout_package()
campaigns = importlib.import_module("areaflow.campaigns")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    rec = Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with rec.span("root"):
        with rec.span("a"):
            with rec.span("a1"):
                pass
        with rec.span("b"):
            pass
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 0]
    assert self_times(rec.spans) == [3, 2, 1, 4]
    tree = Tree(rec.spans)
    assert sum(tree.self_time) == tree.total(tree.roots())
    assert tree.where({"a1"}, under={"root"}) == [2]
    assert tree.where({"a", "a1"}, outermost_of={"a", "a1"}) == [1]


def test_accounting_shows_time_outside_the_named_layers():
    # task [0, 10] > runner [1, 9] > torus [2, 8]; traced wall 12
    spans = [["task.x", 0.0, 10.0, -1], ["runner.run", 1.0, 9.0, 0],
             ["torus.step", 2.0, 8.0, 1]]
    acc = Tree(spans).accounting(("torus", "runner"), 12.0)
    assert acc["accounted_s"] == 8.0
    assert acc["unaccounted_s"] == 4.0          # task self 2 + outside spans 2
    assert acc["outside_spans_s"] == 2.0
    assert acc["layer_self_s"]["task"] == 2.0


def test_self_time_merges_overlapping_children():
    spans = [["p", 0.0, 10.0, -1], ["c", 1.0, 5.0, 0], ["d", 3.0, 7.0, 0],
             ["e", 9.0, 12.0, 0]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_originals_restored_after_traced_run(name):
    wl = workloads.WORKLOADS[name]
    mods = [importlib.import_module(f"areaflow.{m}") for m in (
        "campaigns", "verifier", "flowsim.torus", "flowsim.equivariant",
        "flowsim.runner", "flowsim.consistency")]
    before = [dict(vars(m)) for m in mods]
    suites = dict(campaigns.SUITES)
    with pytest.raises(RuntimeError):
        with Recorder() as rec:
            wl.instrument(rec)
            changed = sum(vars(m)[k] is not v for m, b in zip(mods, before)
                          for k, v in b.items())
            changed += sum(campaigns.SUITES[k] is not v for k, v in suites.items())
            assert changed > 0
            raise RuntimeError("run aborted")
    for m, b in zip(mods, before):
        assert all(vars(m)[k] is v for k, v in b.items()), m.__name__
    assert all(campaigns.SUITES[k] is v for k, v in suites.items())


def test_instrument_raises_for_a_renamed_function(monkeypatch):
    eq = importlib.import_module("areaflow.flowsim.equivariant")
    runner = importlib.import_module("areaflow.flowsim.runner")
    monkeypatch.delattr(eq, "profile_derivative")
    before = dict(vars(eq)), runner.run
    with pytest.raises(AttributeError):
        with Recorder() as rec:
            workloads.WORKLOADS["equivariant_flow"].instrument(rec)
    assert all(vars(eq)[k] is v for k, v in before[0].items()) and runner.run is before[1]


def test_missing_layer_metric_fails_only_its_own_workload():
    names = [{"name": "equivariant.step_us", "unit": "us"},
             {"name": "torus.N64.step_us", "unit": "us"}]
    values = {"equivariant.step_us": {"median": 650.0}}
    metrics = run.select_metrics("equivariant_flow", names, values)
    assert metrics["equivariant.step_us"]["value"] == 650.0
    assert metrics["torus.N64.step_us"]["value"] == 0.0
    with pytest.raises(run.RunFailed):
        run.select_metrics("equivariant_flow", names, {})
    with pytest.raises(run.RunFailed):
        run.select_metrics("torus_refine", names, values)


def _truncated(ctx, steps=40):
    """The flows of ``ctx`` stopped after about ``steps`` explicit steps."""
    flows = []
    for task, config, state in ctx["flows"]:
        t_max = steps * config.cfl * state.h**2 / getattr(state, "n", 1)
        flows.append((task, dataclasses.replace(config, t_max=t_max), state))
    return {"flows": flows}


def test_corrupted_reference_fails_flow_check():
    wl = workloads.WORKLOADS["torus_refine"]
    ctx = _truncated(wl.setup(0))
    runner = importlib.import_module("areaflow.flowsim.runner")
    task, config, state = ctx["flows"][0]
    result = runner.run(config, state)
    records, verdict = result
    good = {"outcome": verdict["outcome"], "steps": verdict["steps"], "dt": verdict["dt"],
            "series": [[r.t, r.min_phi, r.max_lambda] for r in records]}
    tol = workloads.SERIES_TOL * (state.h**2 + verdict["dt"])
    assert workloads._flow_check(task, result, good, state.h)[1]

    def corrupt(**change):
        return {**good, **change}

    nudged = [row[:] for row in good["series"]]
    nudged[-1][1] += 0.5 * tol
    assert workloads._flow_check(task, result, corrupt(series=nudged), state.h)[1]
    nudged[-1][1] += 2.0 * tol
    cases = [corrupt(series=nudged), corrupt(steps=good["steps"] + 1),
             corrupt(outcome="converged"), corrupt(series=good["series"][:-1])]
    rows = [workloads._flow_check(task, result, ref, state.h) for ref in cases]
    assert not any(ok for _, ok, _ in rows)


def test_corrupted_reference_fails_verify_check():
    wl = workloads.WORKLOADS["verify_sweep"]
    ref = json.loads((rep.HERE / "reference.json").read_text())["verify_sweep"]
    ctx = {"seed": 0, "suites": ["triple_weight"]}
    out = wl.work(ctx, workloads.no_span)
    ref = {**ref, "configs": [c for c in ref["configs"] if c[0] == "triple_weight"],
           "exact": []}
    rows = wl.check(ctx, out, ref)
    assert rows and all(ok for _, ok, _ in rows)
    bad = {**ref, "samples": ref["samples"] + 1}
    rows = wl.check(ctx, out, bad)
    assert sum(not ok for _, ok, _ in rows) / len(rows) > 0


def test_seed_changes_campaign_inputs_not_flows():
    a = campaigns.run_suite("master", samples=256, seed=1)
    b = campaigns.run_suite("master", samples=256, seed=2)
    assert all(x["worst"] != y["worst"] for x, y in zip(a["configs"], b["configs"]))
    wl = workloads.WORKLOADS["torus_refine"]
    docs = []
    for seed in (1, 2):
        ctx = _truncated(wl.setup(seed))
        docs.append(wl.documents(workloads._run_flows(ctx, workloads.no_span)))
    assert docs[0] == docs[1] and docs[0]


def test_layer_metrics_are_declared(monkeypatch):
    spec = json.loads((rep.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    monkeypatch.setattr(workloads, "VERIFY_SAMPLES", 64)
    for name, wl in workloads.WORKLOADS.items():
        ctx = wl.setup(0)
        if "flows" in ctx:
            ctx = _truncated(ctx)
        with Recorder() as rec:
            wl.instrument(rec)
            out = wl.work(ctx, rec.span)
        metrics = wl.layers(Tree(rec.spans), rec.counts, ctx, out)
        assert set(metrics) <= declared, set(metrics) - declared
        owned = {n for n in declared if n.split(".", 1)[0] in wl.span_layers}
        assert owned <= set(metrics), owned - set(metrics)
        assert all(v > 0 for k, v in metrics.items() if not k.endswith("self_s")), metrics


def test_run_refuses_checkout_without_program(tmp_path):
    shutil.copy(rep.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(rep.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "torus_refine",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
