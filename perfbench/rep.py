"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD --seed N --spawned-at T [--setup-only | --spans PATH]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` runs from interpreter start to the
first timed call.  Prints one JSON object on stdout: timings, operation
rows, output digests, the host record and, with ``--spans``, the per-layer
metrics of a traced run whose spans are written to PATH.  Exits non-zero if ``areaflow`` cannot be imported from the
checkout's ``src/``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host_record():
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
    }


def import_checkout_package():
    """Import ``areaflow`` from ``ROOT/src`` and refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import areaflow
    where = Path(areaflow.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise SystemExit(f"areaflow imported from {where}, not from {ROOT / 'src'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import_checkout_package()
    import workloads
    from tracing import Recorder, Tree

    wl = workloads.WORKLOADS[args.workload]
    ctx = wl.setup(args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
        return 0

    rec = Recorder() if args.spans else None
    with rec if rec else contextlib.nullcontext():
        if rec:
            wl.instrument(rec)
        span = rec.span if rec else workloads.no_span
        setup_s = time.monotonic() - args.spawned_at
        cpu0 = os.times()
        t0 = time.perf_counter()
        out = wl.work(ctx, span)
        wall_s = time.perf_counter() - t0
        cpu1 = os.times()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = json.loads((HERE / "reference.json").read_text())[wl.name]
    rows = wl.check(ctx, out, ref)
    docs = wl.documents(out)
    want = wl.reference_digests(ref, args.seed)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in docs.items()}
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": peak_rss_mb,
        "ops": rows,
        "digests": digests,
        "digest_matches": sum(want.get(k) == v for k, v in digests.items()),
        "digests_with_reference": sum(k in want for k in digests),
        "host": host_record(),
    }
    if rec:
        tree = Tree(rec.spans)
        accounting = tree.accounting(wl.span_layers, wall_s)
        result["layers"] = wl.layers(tree, rec.counts, ctx, out)
        result["layers"]["trace.unaccounted_frac"] = accounting["unaccounted_s"] / wall_s
        result["trace"] = {"spans": len(rec.spans), **accounting}
        rec.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
