"""Regenerate perfbench/reference.json from the current program.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right (the
acceptance suite passes): the benchmark counts every later deviation from
this file as a failed operation.  Report digests of ``verify_sweep`` depend
on the seed and are stored for REFERENCE_SEEDS; for other seeds
``outputs.digest_matches`` counts only outputs that have a reference.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import rep
import workloads

REFERENCE_SEEDS = range(32)


def _digests(docs):
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(docs.items())}


def _flow_entry(result):
    records, verdict = result
    return {"outcome": verdict["outcome"], "steps": verdict["steps"], "dt": verdict["dt"],
            "series": [[r.t, r.min_phi, r.max_lambda] for r in records]}


def _require_pass(wl, ctx, out, entry, what):
    """A reference is only written from outputs that meet the universal
    expectations (passed suites, no monotonicity violations, orders)."""
    failed = [row for row in wl.check(ctx, out, entry) if not row[1]]
    if failed:
        raise SystemExit(f"{wl.name} {what}: not a valid reference: {failed}")


def main():
    rep.import_checkout_package()
    ref = {}
    t0 = time.monotonic()

    wl = workloads.WORKLOADS["verify_sweep"]
    entry = {"samples": workloads.VERIFY_SAMPLES, "configs": [], "exact": [], "digests": {}}
    for seed in REFERENCE_SEEDS:
        ctx = wl.setup(seed)
        out = wl.work(ctx, workloads.no_span)
        if not entry["configs"]:
            for suite, report in out.items():
                entry["configs"] += [[suite, c["n"], c["m"]] for c in report["configs"]]
                entry["exact"] += [[suite, b["n"], b["m"], b["samples"]]
                                   for b in report.get("exact", [])]
        _require_pass(wl, ctx, out, entry, f"seed {seed}")
        entry["digests"][str(seed)] = _digests(wl.documents(out))
        print(f"verify_sweep seed {seed} done at {time.monotonic() - t0:.0f} s",
              file=sys.stderr)
    ref[wl.name] = entry

    for name in ("torus_refine", "equivariant_flow"):
        wl = workloads.WORKLOADS[name]
        ctx = wl.setup(0)
        out = wl.work(ctx, workloads.no_span)
        entry = {"flows": {task: _flow_entry(out[task]) for task, _, _ in wl.flows},
                 "digests": _digests(wl.documents(out))}
        if "study" in out:
            entry["orders"] = [[k, len(v)] for k, v in out["study"]["orders"].items()]
        _require_pass(wl, ctx, out, entry, name)
        ref[name] = entry
        print(f"{name} done at {time.monotonic() - t0:.0f} s", file=sys.stderr)

    (rep.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
