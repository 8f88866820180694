"""areaflow benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {verify_sweep,torus_refine,equivariant_flow,all}
                             --seed N --seconds S --trace {0,1}

Load: a closed loop with one caller.  Every repetition of a workload's
fixed work runs in a fresh interpreter (``rep.py``), one after another, so
``setup_s`` and ``peak_rss_mb`` belong to that workload alone.  The run
repeats until ``--seconds`` have passed and reports medians.

--trace 0  end-to-end metrics: wall_s, setup_s (median over the
           repetitions and set-up-only probes made before and after each
           of them), peak_rss_mb.
--trace 1  per-layer metrics: each repetition is an untraced run followed
           by a traced one; the traced one gives the layer split, the pair
           gives trace.overhead_frac.  A per-layer metric of this workload
           that the traced run does not produce fails the run; those of
           other workloads read 0.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``failed / attempted`` is fail_frac.  The lines before it are a report with
the host record, distributions and failed operations.  Spans and full
results go to ``.perfbench_out/`` in the checkout.  Exits 1 without a result
line if a repetition cannot run, 2 if the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verify_sweep", "torus_refine", "equivariant_flow")

BLAS_THREADS = 1          # one caller, one BLAS thread: no pool spinning on a shared box
SETUP_PROBES = 4          # set-up-only interpreters before and after each repetition
SHARED_LAYERS = ("process", "trace", "outputs")   # per-layer metrics of every workload
REP_TIMEOUT_S = 170.0
RUN_LIMIT_S = 150.0       # do not start a repetition that would end past this


class RunFailed(Exception):
    pass


def _spawn(workload, seed, *flags):
    cmd = [sys.executable, str(HERE / "rep.py"), workload, "--seed", str(seed)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run([*cmd, "--spawned-at", repr(spawned_at), *flags],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} repetition exceeded {REP_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunFailed(f"{workload} repetition exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def distribution(values):
    """Median, and the highest percentile with at least ten samples beyond
    it (None below 20 samples), with the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail": None}
    if n >= 20:
        rank = n - 10
        out["tail"] = {"percentile": round(100.0 * rank / n, 2), "value": ordered[rank - 1]}
    return out


def _repeat(seconds, once):
    reps = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(once())
        elapsed, last = time.monotonic() - start, time.monotonic() - t
        if elapsed >= seconds or elapsed + last > RUN_LIMIT_S:
            return reps


def select_metrics(workload, names, values):
    """The medians of the declared metrics ``names``.  A per-layer metric of
    another workload reads 0; one of this workload that ``values`` lacks
    means a wrapped function was renamed or never ran, and fails the run."""
    owned = set(workloads.WORKLOADS[workload].span_layers + SHARED_LAYERS)
    metrics = {}
    for m in names:
        if m["name"] in values:
            value = values[m["name"]]["median"]
        elif m["name"].split(".", 1)[0] in owned:
            raise RunFailed(f"{workload}: the traced run did not produce {m['name']}")
        else:
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def run_workload(workload, seed, seconds, trace, spec):
    OUT.mkdir(exist_ok=True)
    if not trace:
        # probes spread over the run, so that setup_s samples the host's
        # speed over the same span of time as wall_s
        def probes():
            return [_spawn(workload, seed, "--setup-only")["setup_s"]
                    for _ in range(SETUP_PROBES)]

        setups = probes()

        def once():
            rep = _spawn(workload, seed)
            setups.extend(probes())
            return rep

        plain = _repeat(seconds, once)
        traced = []
        setups += [r["setup_s"] for r in plain]
        values = {
            "wall_s": distribution([r["wall_s"] for r in plain]),
            "setup_s": distribution(setups),
            "peak_rss_mb": distribution([r["peak_rss_mb"] for r in plain]),
        }
        names = spec["end_to_end"]
    else:
        spans = OUT / f"{workload}-seed{seed}-spans.json"
        pairs = _repeat(seconds, lambda: (_spawn(workload, seed),
                                          _spawn(workload, seed, "--spans", str(spans))))
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        values = {}
        for key in traced[0]["layers"]:
            values[key] = distribution([t["layers"][key] for t in traced])
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        values["process.cpu_s"] = distribution([r["cpu_s"] for r in plain])
        values["trace.overhead_frac"] = distribution([traced_wall / plain_wall - 1.0])
        values["outputs.digest_matches"] = distribution(
            [r["digest_matches"] for r in plain + traced])
        names = spec["per_layer"]

    reps = plain + traced
    ops = [(i, row) for i, r in enumerate(reps) for row in r["ops"]]
    failed = [(i, row) for i, row in ops if not row[1]]
    metrics = select_metrics(workload, names, values)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "load": "closed loop, 1 caller, fresh interpreter per repetition",
        "host": reps[0]["host"],
        "repetitions": len(reps),
        "distributions": values,
        "fail_frac": {"value": len(failed) / len(ops), "unit": "ratio",
                      "failed": len(failed), "attempted": len(ops)},
        "failed_ops": [{"rep": i, "op": row[0], "detail": row[2]} for i, row in failed],
        "outputs.digest_matches": [r["digest_matches"] for r in reps],
        "outputs.digests_with_reference": reps[0]["digests_with_reference"],
    }
    if traced:
        report["trace_detail"] = [t["trace"] for t in traced]
        report["traced_wall_s"] = [t["wall_s"] for t in traced]
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"report": report, "reps": reps}, indent=1))
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    return report, result


def _summary_line(workload, report, result):
    m = result["metrics"]
    parts = [f"{name} {m[name]['value']:.4g} {m[name]['unit']}"
             for name in ("wall_s", "setup_s", "peak_rss_mb") if name in m]
    ff = report["fail_frac"]
    parts.append(f"fail_frac {ff['value']:.4g} {ff['unit']} ({ff['failed']}/{ff['attempted']})")
    return f"{workload:<17} " + "  ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "areaflow" / "__init__.py", ROOT / "scenarios",
              ROOT / "BENCHMARK.json", HERE / "reference.json"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"error: checkout lacks {', '.join(absent)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    todo = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        for workload in todo:
            report, result = run_workload(workload, args.seed, args.seconds,
                                          bool(args.trace), spec)
            print(json.dumps(report))
            lines.append(_summary_line(workload, report, result))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print("\n".join(lines))
    else:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
