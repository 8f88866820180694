"""Time-stepping driver: monotonicity bookkeeping, verdicts, and output."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..errors import ConfigurationError, DivergenceError
from .state import BACKENDS, ScenarioConfig, initial_state


def fitted_decay_rate(times, min_phis):
    """Least-squares slope of log(-min_phi) over the tail half of the run.

    Reported, not asserted: the theory guarantees some exponential rate but
    only proves its existence.
    """
    t = np.asarray(times)
    y = -np.asarray(min_phis)
    keep = np.isfinite(y) & (y > 1e-300)
    t, y = t[keep], y[keep]
    if t.size < 4:
        return None
    half = t.size // 2
    t, y = t[half:], np.log(y[half:])
    if np.ptp(t) == 0:
        return None
    slope = np.polyfit(t, y, 1)[0]
    return float(-slope)


def run(config: ScenarioConfig, state=None):
    """Run a scenario to convergence, steadiness, or t_max.

    Returns (records, verdict): the cadence-sampled MonitorRecord series and
    a dict with the outcome, the count of min-Phi monotonicity violations
    beyond C (h^2 + dt), the fitted tail decay rate of -min Phi, and the
    backend's self-check when it has one.
    """
    # a caller's state is copied, so the fields derived during the run are
    # freed with the run rather than left cached on the caller's object
    state = initial_state(config) if state is None else replace(state)
    if any(getattr(state, k) != getattr(config, k) for k in ("backend", "resolution", "n", "m")):
        raise ConfigurationError(f"state: {state.backend} at resolution {state.resolution}; "
                                 f"config: {config.backend} at resolution {config.resolution}; "
                                 f"(n, m) = ({state.n}, {state.m}) and ({config.n}, {config.m})")
    ops = BACKENDS[config.backend]   # each entry looks its function up when called
    check_key, self_check = ops["self_check"] or (None, None)
    dt = ops["time_step"](state, config)
    tol = config.monotonicity_c * (state.h**2 + dt)
    steady_tol = config.steady_c * state.h**2

    records, checks = [], []

    def record(s):
        # returns the record's light numbers: the monitor computed them with
        # the same pointwise_phi_stats call, so light is not run again
        rec = ops["monitor"](s)
        records.append(rec)
        if self_check is not None:
            checks.append(self_check(s))
        return rec.min_phi, rec.max_lambda, rec.flagged

    prev_phi, _, ever_flagged = record(state)
    violations = 0
    worst_drop = 0.0
    outcome = "timeout"
    light_t = [state.t]
    light_phi = [prev_phi]

    while state.t < config.t_max - 1e-15:
        try:
            state = ops["step"](state, dt, config)
        except DivergenceError:
            # state still holds the last healthy state
            outcome = "diverged"
            break
        if state.steps % config.cadence == 0:
            min_phi, max_lam, flagged = record(state)
        else:
            min_phi, _, max_lam, flagged = ops["light"](state, config)
        ever_flagged = ever_flagged or flagged
        if not (math.isnan(min_phi) or math.isnan(prev_phi)):
            drop = prev_phi - min_phi
            worst_drop = max(worst_drop, drop)
            if drop > tol:
                violations += 1
        prev_phi = min_phi
        light_t.append(state.t)
        light_phi.append(min_phi)
        if max_lam < config.lambda_stop:
            outcome = "converged"
            break

    if records[-1].t != state.t:
        record(state)
    if outcome == "timeout" and float(np.abs(ops["velocity"](state)).max()) <= steady_tol:
        outcome = "steady"

    final_phi = records[-1].min_phi
    verdict = {
        "outcome": outcome,
        "backend": config.backend,
        "resolution": config.resolution,
        "dt": dt,
        "t_final": state.t,
        "steps": state.steps,
        "monotonicity_tolerance": tol,
        "monotonicity_violations": violations,
        "worst_min_phi_drop": worst_drop,
        "fitted_decay_rate": fitted_decay_rate(light_t, light_phi),
        "flagged_non_area_decreasing": ever_flagged,
        "final_max_lambda": records[-1].max_lambda,
        # NaN is the flagged sentinel; JSON carries it as null
        "final_min_phi": None if math.isnan(final_phi) else final_phi,
    }
    if self_check is not None:
        verdict[check_key] = max(checks)
    return records, verdict


def records_to_csv(records) -> str:
    """Full round-trip decimal formatting (17 significant digits)."""
    lines = ["t,min_phi,max_two_dilation,max_lambda,sup_A2"]
    for rec in records:
        lines.append(",".join(f"{v:.17g}" for v in rec.row()))
    return "\n".join(lines) + "\n"
