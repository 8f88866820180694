"""The three benchmark workloads: fixed work, correctness checks, layer split.

Each workload offers

  setup(seed)            inputs built before the first timed call
  work(ctx, span)        the timed fixed work; ``span(name)`` marks a task
  check(ctx, out, ref)   one (name, ok, detail) row per operation
  documents(out)         output bytes, serialised the way ``cli`` does
  instrument(rec)        install the traced run's wrappers; raises if a
                         wrapped function no longer exists
  layers(tree, counts, ctx, out)   per-layer metrics from a traced run
  span_layers            the span layers (name part before the first dot)
                         whose self times make up the work; the per-layer
                         metrics named after them belong to this workload

``areaflow`` is imported inside these functions, so that a checkout
without the package fails in set-up rather than at import.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# verify_sweep: one full chunk (campaigns.CHUNK = 8192) per configuration,
# so every sampler and kernel call has the row count of the 10^5-sample
# campaign, which makes 13 such calls per configuration (12 full chunks and
# a 1696-row tail).
VERIFY_SAMPLES = 8192
EXACT_SUITES = ("master", "pair_claim", "regroup")

# torus_refine: the 128^2 twin is stopped at this simulated time; its run
# to convergence (~89 s) stays in the acceptance test.
TORUS_128_T_MAX = 0.25
STUDY = {"resolutions": (32, 64, 128), "amplitude": 0.25, "t0": 0.05}
MIN_ORDER = 1.5

# Cadence series must match the reference within this share of the local
# truncation scale h^2 + dt of the explicit scheme: a reordered sum or a
# fused stencil (rounding, ~1e-13) passes, a changed stencil, step or
# monitor (O(h^2 + dt)) fails.
SERIES_TOL = 1e-3

SAMPLERS = ("sample_spectra", "sample_h", "sample_sec", "pad_sec2", "sample_phi_level")
KERNELS = ("master_gaps", "pair_claim_gaps", "key_identity_residuals", "phi_values",
           "logdet_pair_formula", "logdet_pair_oracle", "curvature_terms",
           "gradient_square_terms", "regrouped_curvature_terms",
           "triple_weight_values", "triple_weight_values_expanded",
           "sectional_gaps", "m2_claim_displays", "ricci_gaps",
           "log_det_gradient_sq")


def no_span(name):
    """The ``span`` argument of ``work`` for an untraced run."""
    return contextlib.nullcontext()


class OpError:
    """An operation that raised; checks count it as failed."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def attempt(fn, *args, **kwargs):
    # Boundary of one benchmark operation: a raising operation is counted
    # as failed and the run goes on to the next one.
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001
        traceback.print_exc()
        return OpError(exc)


def _json_bytes(payload):
    return importlib.import_module("areaflow.cli")._json_bytes(payload)


def _instrument(rec, module, attrs):
    for attr in attrs:
        rec.time_calls(module, attr)


# ---------------------------------------------------------------------------
# verify_sweep


class VerifySweep:
    name = "verify_sweep"
    span_layers = ("campaigns", "config", "verifier")

    def setup(self, seed):
        campaigns = importlib.import_module("areaflow.campaigns")
        importlib.import_module("areaflow.cli")
        return {"seed": seed, "suites": list(campaigns.SUITES)}

    def work(self, ctx, span):
        campaigns = importlib.import_module("areaflow.campaigns")
        out = {}
        for suite in ctx["suites"]:
            with span(f"task.campaigns.{suite}"):
                out[suite] = attempt(campaigns.run_suite, suite, samples=VERIFY_SAMPLES,
                                     seed=ctx["seed"], exact=suite in EXACT_SUITES)
        return out

    def check(self, ctx, out, ref):
        rows = []
        for suite, n, m in ref["configs"]:
            name = f"{suite}.n{n}.m{m}"
            report = out.get(suite)
            if isinstance(report, OpError):
                rows.append((name, False, report.text))
                continue
            cfg = next((c for c in (report or {}).get("configs", [])
                        if (c["n"], c["m"]) == (n, m)), None)
            ok = (cfg is not None and cfg["passed"] and cfg["violations"] == 0
                  and cfg["samples"] == ref["samples"])
            rows.append((name, ok, None if ok else f"result {cfg}"[:400]))
        for suite, n, m, count in ref["exact"]:
            name = f"{suite}.exact.n{n}.m{m}"
            report = out.get(suite)
            blocks = [] if isinstance(report, OpError) or report is None \
                else report.get("exact", [])
            blk = next((b for b in blocks if (b["n"], b["m"]) == (n, m)), None)
            ok = (blk is not None and blk["violations"] == 0
                  and blk["regroup_exact_zero"] and blk["samples"] == count)
            rows.append((name, ok, None if ok else f"result {blk}"[:400]))
        return rows

    def documents(self, out):
        docs = {}
        for suite, report in out.items():
            if not isinstance(report, OpError):
                report = {k: v for k, v in report.items() if k != "elapsed_s"}
                docs[f"{suite}/report.json"] = _json_bytes(report)
        return docs

    def reference_digests(self, ref, seed):
        return ref["digests"].get(str(seed), {})

    def instrument(self, rec):
        campaigns = importlib.import_module("areaflow.campaigns")
        verifier = importlib.import_module("areaflow.verifier")
        _instrument(rec, campaigns, SAMPLERS + KERNELS + ("run_exact_checks",))
        for attr, obj in sorted(vars(verifier).items()):
            if (callable(obj) and not isinstance(obj, type) and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == verifier.__name__):
                rec.time_calls(verifier, attr)
        # run_suite looks the suite functions up in SUITES, so the
        # per-configuration spans wrap the dict entries
        for suite, (fn, configs) in list(campaigns.SUITES.items()):
            label = (lambda s: lambda n, m, *a, **k: f"config.{s}.n{n}.m{m}")(suite)
            rec.patch(campaigns.SUITES, suite, (rec.timed(fn, label), configs))

    def layers(self, tree, counts, ctx, out):
        samplers = {f"campaigns.{a}" for a in SAMPLERS}
        kernels = {f"campaigns.{a}" for a in KERNELS}
        verifier = {nm for nm in set(tree.name) if nm.startswith("verifier.")}
        metrics = {}
        totals = dict.fromkeys(("wall", "sample", "kernel", "exact"), 0.0)
        for suite in ctx["suites"]:
            roots = tree.roots(f"task.campaigns.{suite}")
            wall = tree.total(roots)
            sample = kernel = exact = 0.0
            by_n = {}
            for r in roots:
                sample += tree.total(tree.where(samplers, root=r, outermost_of=samplers))
                kernel += tree.total(tree.where(kernels, root=r,
                                                outermost_of=samplers | kernels))
                exact += tree.total(tree.where(verifier, root=r, outermost_of=verifier,
                                               under={"campaigns.run_exact_checks"}))
                prefix = f"config.{suite}.n"
                for i in tree.where({nm for nm in set(tree.name) if nm.startswith(prefix)},
                                    root=r):
                    n = int(tree.name[i][len(prefix):].split(".")[0])
                    by_n[n] = by_n.get(n, 0.0) + tree.dur[i]
            metrics[f"campaigns.{suite}.wall_s"] = wall
            metrics[f"campaigns.{suite}.sample_s"] = sample
            metrics[f"campaigns.{suite}.kernel_s"] = kernel
            for n, t in sorted(by_n.items()):
                metrics[f"campaigns.{suite}.n{n}.wall_s"] = t
            for key, val in (("wall", wall), ("sample", sample), ("kernel", kernel),
                             ("exact", exact)):
                totals[key] += val
        metrics["campaigns.sample_s"] = totals["sample"]
        metrics["campaigns.kernel_s"] = totals["kernel"]
        metrics["verifier.exact_s"] = totals["exact"]
        metrics["campaigns.suite_self_s"] = (totals["wall"] - totals["sample"]
                                             - totals["kernel"] - totals["exact"])
        metrics["campaigns.samples"] = sum(
            sum(c["samples"] for c in rep["configs"])
            + sum(b["samples"] for b in rep.get("exact", []))
            for rep in out.values() if not isinstance(rep, OpError))
        metrics["campaigns.phi_values.calls"] = len(tree.where({"campaigns.phi_values"}))
        return metrics


# ---------------------------------------------------------------------------
# flows


def _flow_check(name, result, ref, h):
    if isinstance(result, OpError):
        return (name, False, result.text)
    records, verdict = result
    problems = []
    for key in ("outcome", "steps"):
        if verdict[key] != ref[key]:
            problems.append(f"{key} {verdict[key]!r} != {ref[key]!r}")
    if verdict["monotonicity_violations"] != 0:
        problems.append(f"{verdict['monotonicity_violations']} monotonicity violations")
    tol = SERIES_TOL * (h * h + ref["dt"])
    rows = [(r.t, r.min_phi, r.max_lambda) for r in records]
    if len(rows) != len(ref["series"]):
        problems.append(f"{len(rows)} cadence records != {len(ref['series'])}")
    else:
        worst = max((abs(a - b) for row, want in zip(rows, ref["series"])
                     for a, b in zip(row, want)), default=0.0)
        if not worst <= tol:
            problems.append(f"cadence series off by {worst:.3e} > {tol:.3e}")
    return (name, not problems, "; ".join(problems) or None)


def _flow_documents(prefix, result):
    if isinstance(result, OpError):
        return {}
    records, verdict = result
    runner = importlib.import_module("areaflow.flowsim.runner")
    return {f"{prefix}/timeseries.csv": runner.records_to_csv(records).encode(),
            f"{prefix}/verdict.json": _json_bytes(verdict)}


def _flow_setup(entries):
    state = importlib.import_module("areaflow.flowsim.state")
    for mod in ("runner", "consistency"):
        importlib.import_module(f"areaflow.flowsim.{mod}")
    importlib.import_module("areaflow.cli")
    flows = []
    for task, cfg_name, t_max in entries:
        config = state.parse_scenario(SCENARIOS / cfg_name)
        if t_max is not None:
            config = dataclasses.replace(config, t_max=t_max)
        flows.append((task, config, state.initial_state(config)))
    return {"flows": flows}


def _run_flows(ctx, span):
    runner = importlib.import_module("areaflow.flowsim.runner")
    out = {}
    for task, config, state in ctx["flows"]:
        with span(f"task.{task}"):
            out[task] = attempt(runner.run, config, state)
    return out


def _steps_under(tree, root, step_name):
    return len(tree.where({step_name}, root=root))


class _Flows:
    """Shared parts of the flow workloads; ``flows`` lists (task, scenario
    file, t_max override)."""

    flows = ()

    def setup(self, seed):
        # the flows have no randomness: the seed is not used
        return _flow_setup(self.flows)

    def work(self, ctx, span):
        return _run_flows(ctx, span)

    def check(self, ctx, out, ref):
        return [_flow_check(task, out.get(task), ref["flows"][task], state.h)
                for task, _, state in ctx["flows"]]

    def documents(self, out):
        docs = {}
        for task, _, _ in self.flows:
            docs.update(_flow_documents(task, out.get(task)))
        return docs

    def reference_digests(self, ref, seed):
        return ref["digests"]


class TorusRefine(_Flows):
    name = "torus_refine"
    span_layers = ("torus", "consistency", "runner")
    flows = (("torus.N64", "torus_sine_05.cfg", None),
             ("torus.N128", "torus_sine_05_128.cfg", TORUS_128_T_MAX))

    def work(self, ctx, span):
        consistency = importlib.import_module("areaflow.flowsim.consistency")
        out = _run_flows(ctx, span)
        with span("task.consistency.study"):
            out["study"] = attempt(consistency.convergence_study, **STUDY)
        return out

    def check(self, ctx, out, ref):
        rows = super().check(ctx, out, ref)
        study = out.get("study")
        for key, count in ref["orders"]:
            for k in range(count):
                name = f"consistency.{key}.{k}"
                if isinstance(study, OpError):
                    rows.append((name, False, study.text))
                    continue
                order = study["orders"].get(key, [])[k:k + 1]
                ok = bool(order) and order[0] >= MIN_ORDER
                rows.append((name, ok, None if ok else f"order {order} < {MIN_ORDER}"))
        return rows

    def instrument(self, rec):
        torus = importlib.import_module("areaflow.flowsim.torus")
        runner = importlib.import_module("areaflow.flowsim.runner")
        consistency = importlib.import_module("areaflow.flowsim.consistency")
        _instrument(rec, torus, ("step_torus", "flow_velocity", "first_derivatives",
                                 "pointwise_phi_stats", "torus_monitors", "graph_frames"))
        _instrument(rec, runner, ("run",))
        _instrument(rec, consistency, ("convergence_study",))

    def layers(self, tree, counts, ctx, out):
        metrics = {}
        run = {"runner.run"}
        steps_total = fd_calls = 0
        for task, _, _ in ctx["flows"]:
            tag = task.split(".")[1]
            for r in tree.roots(f"task.{task}"):
                steps = _steps_under(tree, r, "torus.step_torus")
                steps_total += steps
                fd_calls += len(tree.where({"torus.first_derivatives"}, root=r))
                step = tree.total(tree.where({"torus.step_torus"}, root=r))
                light = tree.total(tree.where(
                    {"torus.first_derivatives", "torus.pointwise_phi_stats"},
                    root=r, parent_names=run))
                cadence = tree.where({"torus.torus_monitors"}, root=r, parent_names=run)
                metrics[f"torus.{tag}.step_us"] = 1e6 * step / max(steps, 1)
                metrics[f"torus.{tag}.light_monitor_us"] = 1e6 * light / max(steps, 1)
                metrics[f"torus.{tag}.cadence_monitor_ms"] = \
                    1e3 * tree.total(cadence) / max(len(cadence), 1)
        metrics["torus.graph_frames_s"] = tree.total(
            tree.where({"torus.graph_frames"}, outermost_of={"torus.graph_frames"}))
        metrics["consistency.study_s"] = tree.total(
            tree.where({"consistency.convergence_study"}))
        metrics["torus.first_derivatives.calls_per_step"] = fd_calls / max(steps_total, 1)
        metrics["torus.steps"] = steps_total
        metrics["runner.self_s"] = sum(tree.self_time[i] for i in tree.where(run))
        layer_self = tree.layer_self_times()
        metrics["torus.self_s"] = layer_self.get("torus", 0.0)
        metrics["consistency.self_s"] = layer_self.get("consistency", 0.0)
        return metrics


class EquivariantFlow(_Flows):
    name = "equivariant_flow"
    span_layers = ("equivariant", "runner")
    flows = (("equivariant", "equivariant_sin_03.cfg", None),)

    def instrument(self, rec):
        eq = importlib.import_module("areaflow.flowsim.equivariant")
        runner = importlib.import_module("areaflow.flowsim.runner")
        _instrument(rec, eq, ("step_equivariant", "profile_spectrum",
                              "equivariant_monitors", "normal_velocity"))
        rec.count_calls(eq, "profile_derivative")
        _instrument(rec, runner, ("run",))

    def layers(self, tree, counts, ctx, out):
        run = {"runner.run"}
        roots = tree.roots("task.equivariant")
        steps = sum(_steps_under(tree, r, "equivariant.step_equivariant") for r in roots)
        step = tree.total(tree.where({"equivariant.step_equivariant"}))
        light = tree.total(tree.where({"equivariant.profile_spectrum"}, parent_names=run))
        records = tree.where({"equivariant.equivariant_monitors"}, parent_names=run)
        mu_check = tree.where({"equivariant.normal_velocity"}, parent_names=run)
        pd_calls = sum(counts.get(("equivariant.profile_derivative", r), 0) for r in roots)
        return {
            "equivariant.step_us": 1e6 * step / max(steps, 1),
            "equivariant.light_monitor_us": 1e6 * light / max(steps, 1),
            "equivariant.cadence_monitor_us":
                1e6 * (tree.total(records) + tree.total(mu_check)) / max(len(records), 1),
            "equivariant.normal_velocity_s": tree.total(tree.where(
                {"equivariant.normal_velocity"},
                outermost_of={"equivariant.normal_velocity"})),
            "equivariant.profile_derivative.calls_per_step": pd_calls / max(steps, 1),
            "equivariant.steps": steps,
            "runner.self_s": sum(tree.self_time[i] for i in tree.where(run)),
            "equivariant.self_s": tree.layer_self_times().get("equivariant", 0.0),
        }


WORKLOADS = {w.name: w for w in (VerifySweep(), TorusRefine(), EquivariantFlow())}
