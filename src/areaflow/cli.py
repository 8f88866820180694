"""Command-line entry point.

Subcommands
-----------
verify     run a verification campaign suite, emit a JSON report
criteria   evaluate a homotopy criterion for a map profile
flow       run a flow scenario file, emit CSV time series + JSON verdict
curvature  evaluate a curvature model descriptor

Exit codes: 0 all contracts met, 1 contract violation (report carries a
replay payload), 2 configuration error.  Identical (argv, seed) produce
byte-identical CSV/JSON outputs; the run manifest records timestamps and
output digests.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__, campaigns, criteria, geometry
from .errors import ConfigurationError
from .flowsim import parse_scenario, run as run_flow
from .flowsim.runner import records_to_csv


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_outputs(out_dir, files, subcommand, config, seed=None, started=None):
    """Write output files plus a manifest with digests and timestamps."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, data in files.items():
        data = data if isinstance(data, bytes) else data.encode()
        (out / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "started": started or _now(),
        "finished": _now(),
        "outputs": digests,
    }
    (out / "manifest.json").write_bytes(_json_bytes(manifest))
    return out


def _cmd_verify(args) -> int:
    started = _now()
    name = campaigns.canonical_suite(args.suite)
    t0 = time.perf_counter()
    report = campaigns.run_suite(name, n=args.n, m=args.m, samples=args.samples,
                                 seed=args.seed, tol=args.tol, exact=args.exact)
    elapsed = time.perf_counter() - t0
    payload = _json_bytes(report)
    sys.stdout.write(payload.decode())
    if args.out:
        _write_outputs(args.out, {"report.json": payload}, "verify",
                       {"suite": name, "n": args.n, "m": args.m,
                        "samples": args.samples, "tol": args.tol,
                        "exact": args.exact, "elapsed_s": elapsed},
                       seed=args.seed, started=started)
    return 0 if report["passed"] else 1


def _parse_profile(token: str) -> criteria.MapProfile:
    if token.startswith("@"):
        data = json.loads(Path(token[1:]).read_text())
        return criteria.profile_from_json(data)
    name, _, arg = token.partition(":")
    if not arg and "(" in name:
        name, _, inner = name.partition("(")
        arg = inner.rstrip(")")
    return criteria.named_spectrum(name, n=int(arg) if arg else None)


def _cmd_criteria(args) -> int:
    profile = _parse_profile(args.profile)
    started = _now()
    t0 = time.perf_counter()
    result = criteria.dilation_trick(profile, args.theorem)
    elapsed = time.perf_counter() - t0
    payload = result.to_json()
    payload["citation"] = (
        f"{result.criterion} curvature-comparison criterion with target dilation"
    )
    out = _json_bytes(payload)
    sys.stdout.write(out.decode())
    if args.out:
        _write_outputs(args.out, {"verdict.json": out}, "criteria",
                       {"profile": args.profile, "theorem": args.theorem,
                        "elapsed_s": elapsed},
                       started=started)
    return 0


def _cmd_flow(args) -> int:
    started = _now()
    config = parse_scenario(Path(args.scenario))
    t0 = time.perf_counter()
    records, verdict = run_flow(config)
    elapsed = time.perf_counter() - t0
    csv_text = records_to_csv(records)
    files = {"timeseries.csv": csv_text, "verdict.json": _json_bytes(verdict)}
    out_dir = args.out or "flow_out"
    _write_outputs(out_dir, files, "flow",
                   {"scenario": str(args.scenario), **config.__dict__,
                    "elapsed_s": elapsed, "steps_per_s": verdict["steps"] / elapsed},
                   started=started)
    sys.stdout.write(_json_bytes(verdict).decode())
    healthy = verdict["outcome"] in ("converged", "steady") \
        and verdict["monotonicity_violations"] == 0
    return 0 if healthy else 1


def _cmd_curvature(args) -> int:
    model = geometry.parse_model(args.model)
    sec_min, sec_max, ricci = geometry.curvature_bounds(model)
    payload = {
        "model": geometry.model_to_str(model),
        "dim": model.dim,
        "sectional": geometry.sectional_curvature(model, args.plane),
        "ricci_constant": geometry.ricci_constant(model),
        "bounds": {"sec_min": sec_min, "sec_max": sec_max, "ricci": ricci},
    }
    sys.stdout.write(_json_bytes(payload).decode())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="areaflow",
        description="Monotone-quantity laboratory for area-decreasing graph flows.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification campaign suite")
    p.add_argument("suite", help="suite name: " + ", ".join(
        [*campaigns.SUITES, *(f"{alias} (= {name})"
                              for alias, name in campaigns.SUITE_ALIASES.items())]))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--samples", type=int, default=campaigns.DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=campaigns.DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--exact", action="store_true",
                   help="add exact-rational spot checks (n <= 3)")
    p.add_argument("--out", default=None, help="directory for report + manifest")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("criteria", help="evaluate a homotopy criterion")
    p.add_argument("profile", help="named profile (hopf_s3_s2, hopf_s7_s4, "
                                   "hopf_s15_s8, hopf_s2n1_cpn:N, identity:N) "
                                   "or @profile.json")
    p.add_argument("--theorem", required=True,
                   choices=criteria.THEOREM_NAMES,
                   help="13/sectional or 14/ricci")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("flow", help="run a flow scenario file")
    p.add_argument("scenario", help="path to a key=value scenario file")
    p.add_argument("--out", default=None, help="output directory (default flow_out)")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("curvature", help="evaluate a curvature model")
    p.add_argument("model", help="descriptor, e.g. 'cp(3) scaled 1.0408'")
    p.add_argument("--plane", type=float, nargs="+", default=None,
                   help="plane invariant(s): one value for cp, three for hp")
    p.set_defaults(func=_cmd_curvature)
    return parser


def _attach_tol(argv):
    """Rewrite '--tol <number>' as '--tol=<number>'.

    argparse takes a word such as '-1e-10' for an option, because its
    negative-number rule knows no exponent form; every shipped gap
    tolerance is negative and in exponent form.
    """
    out = []
    for word in argv:
        if out and out[-1] == "--tol":
            try:
                float(word)
            except ValueError:
                pass
            else:
                out[-1] = f"--tol={word}"
                continue
        out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_tol(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigurationError, ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
