import dataclasses
import math

import numpy as np
import pytest

from areaflow.errors import (ConfigurationError, DivergenceError,
                             GraphicalBreakdownError)
from areaflow.flowsim import (EquivariantState, ScenarioConfig, initial_state,
                              run, step_equivariant)
from areaflow.flowsim import equivariant as eq
from areaflow.flowsim.equivariant import source_side
from areaflow.svcore import pair_flags


def profile_state(J, fn):
    r = np.linspace(0.0, math.pi, J + 1)
    return EquivariantState(resolution=J, rho=fn(r))


def test_identity_profile_is_discretely_steady():
    for J in (48, 96):
        state = profile_state(J, lambda r: r.copy())
        h_nu, h_mu, h_norm = eq.normal_velocity(state)
        assert np.abs(h_nu[1:-1]).max() <= 1.0 / J**2
        assert np.abs(h_mu).max() == 0.0


def test_zero_profile_is_fixed_point():
    state = profile_state(48, np.zeros_like)
    assert np.abs(eq.profile_velocity(state)).max() == 0.0


def test_pole_spectrum_limit():
    a = 0.3
    state = profile_state(64, lambda r: a * np.sin(r))
    lam1, lam2 = eq.profile_spectrum(state)
    # lambda_2(0) -> rho'(0) = a by the analytic limit
    assert math.isclose(lam2[0], lam1[0], rel_tol=1e-12)
    assert math.isclose(lam1[0], a, rel_tol=1e-3)
    assert np.all(lam2 >= 0)


def test_velocity_matches_closed_form_at_order_two():
    a = 0.3
    errs = {}
    for J in (64, 128, 256):
        r = np.linspace(0.0, math.pi, J + 1)
        state = EquivariantState(resolution=J, rho=a * np.sin(r))
        exact = eq.closed_form_velocity(state, rhop=a * np.cos(r),
                                        rhopp=-a * np.sin(r))
        v = eq.profile_velocity(state)
        errs[J] = np.abs(v[1:-1] - exact[1:-1]).max()
    order1 = math.log2(errs[64] / errs[128])
    order2 = math.log2(errs[128] / errs[256])
    assert order1 >= 1.5 and order2 >= 1.5


PROFILES = {
    "sine_03": lambda r: 0.3 * np.sin(r),
    "two_mode": lambda r: 0.4 * np.sin(r) + 0.05 * np.sin(2 * r),
    "identity": lambda r: r.copy(),
    "sine_cubed_09": lambda r: 0.9 * np.sin(r) ** 3,
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profile_velocity_matches_geometric_route(name):
    # the step's inner product against sqrt(1 + rho'^2) <H, nu> of the
    # projected second-derivative vectors
    for J in (64, 128, 256):
        state = profile_state(J, PROFILES[name])
        h_nu, _, _ = eq.normal_velocity(state)
        geometric = np.sqrt(1.0 + state.rhop**2) * h_nu
        geometric[0] = geometric[-1] = 0.0
        v = eq.profile_velocity(state)
        assert v[0] == v[-1] == 0.0
        assert np.abs(v - geometric).max() <= 1e-12


def test_node_angles_are_shared_and_read_only():
    a = profile_state(64, lambda r: 0.3 * np.sin(r))
    b = step_equivariant(a, 0.2 * a.h**2, 0.2)
    assert a.r is b.r
    assert a.r is EquivariantState(resolution=64, rho=np.zeros(65)).r
    assert a.r is not profile_state(32, np.zeros_like).r
    assert np.array_equal(a.r, np.linspace(0.0, math.pi, 65))
    with pytest.raises(ValueError):
        a.r[1] = 0.0


def test_source_side_is_shared_and_read_only():
    a = profile_state(64, lambda r: 0.3 * np.sin(r))
    src = source_side(64)
    built = source_side.cache_info().misses
    # the step, the spectrum, the frame and the oracle build no other
    b = step_equivariant(a, 0.2 * a.h**2, 0.2)
    eq.profile_spectrum(b), eq.closed_form_velocity(b), b.frame
    assert source_side.cache_info().misses == built
    assert source_side(64) is src and source_side(32) is not src
    assert np.array_equal(src["trig"], [np.cos(a.r), np.sin(a.r)])
    assert np.array_equal(src["off_pole"][[0, 1, -2, -1]], [False, True, True, False])
    for arr in src.values():
        with pytest.raises(ValueError):
            arr[1] = 0.0


def test_mu_component_vanishes_by_symmetry():
    state = profile_state(96, lambda r: 0.4 * np.sin(r) + 0.05 * np.sin(2 * r))
    _, h_mu, h_norm = eq.normal_velocity(state)
    floor = 1e-12
    assert np.abs(h_mu[1:-1]).max() <= 1e-6 * h_norm[1:-1].max() + floor


def test_cfl_enforcement_and_breakdown():
    state = profile_state(48, lambda r: 0.2 * np.sin(r))
    with pytest.raises(ConfigurationError):
        step_equivariant(state, 1.0, 0.2)
    steep = profile_state(48, lambda r: np.zeros_like(r))
    steep.rho[10] = 500.0  # absurd kink: |rho'| explodes
    with pytest.raises(GraphicalBreakdownError):
        step_equivariant(steep, 1e-6, 0.2)


def test_sine_scenario_converges():
    config = ScenarioConfig(backend="equivariant_sphere", resolution=64,
                            initial="sine", amplitude=0.3, t_max=6.0,
                            cadence=100)
    records, verdict = run(config)
    assert verdict["outcome"] == "converged"
    assert verdict["monotonicity_violations"] == 0
    assert verdict["mu_orthogonality_max_rel"] <= 1e-6
    assert not verdict["flagged_non_area_decreasing"]
    assert records[0].max_two_dilation <= 0.09 + 1e-12
    assert verdict["final_max_lambda"] < config.lambda_stop


def test_identity_scenario_is_steady_and_flagged():
    config = ScenarioConfig(backend="equivariant_sphere", resolution=48,
                            initial="identity", t_max=0.2, cadence=20)
    records, verdict = run(config)
    assert verdict["outcome"] == "steady"
    assert verdict["flagged_non_area_decreasing"]
    assert verdict["final_min_phi"] is None
    assert math.isclose(records[0].max_lambda, 1.0, rel_tol=1e-9)


def test_initial_area_decreasing_preserved():
    config = ScenarioConfig(backend="equivariant_sphere", resolution=48,
                            initial="sine", amplitude=0.9, t_max=1.0,
                            cadence=50)
    records, verdict = run(config)
    # 0.9 sin r has pair product <= 0.81 <= 0.9: no record may flag
    assert all(not r.flagged for r in records)
    assert max(r.max_two_dilation for r in records) < 1.0


def test_profile_derivative_runs_once_per_state(monkeypatch):
    calls = []
    original = eq.profile_derivative

    def counted(state):
        calls.append(state.steps)
        return original(state)

    monkeypatch.setattr(eq, "profile_derivative", counted)
    config = ScenarioConfig(backend="equivariant_sphere", resolution=32,
                            initial="sine", amplitude=0.3, t_max=0.05,
                            cadence=5)
    _, verdict = run(config)
    assert verdict["steps"] >= 10
    assert len(calls) == verdict["steps"] + 1


def test_profile_trig_runs_once_per_state(monkeypatch):
    calls = []
    original = eq.profile_trig

    def counted(state):
        calls.append(state.steps)
        return original(state)

    monkeypatch.setattr(eq, "profile_trig", counted)
    config = ScenarioConfig(backend="equivariant_sphere", resolution=32,
                            initial="sine", amplitude=0.3, t_max=0.05,
                            cadence=5)
    start = initial_state(config)
    _, verdict = run(config, start)
    assert verdict["steps"] >= 10
    assert calls == list(range(verdict["steps"] + 1))
    # derived on the run's copy
    assert "trig" not in vars(start)


def test_phi_stats_run_once_per_state_and_once_more_for_the_final_record(monkeypatch):
    """A recorded state's light numbers come from its record: one
    pointwise_phi_stats call per state, plus the final off-cadence record."""
    calls = []
    original = eq.pointwise_phi_stats

    def counted(lam1, lam2):
        calls.append(1)
        return original(lam1, lam2)

    monkeypatch.setattr(eq, "pointwise_phi_stats", counted)
    config = ScenarioConfig(backend="equivariant_sphere", resolution=32,
                            initial="sine", amplitude=0.3, t_max=0.05,
                            cadence=7)
    records, verdict = run(config)
    assert verdict["outcome"] == "timeout" and verdict["steps"] % config.cadence != 0
    assert len(records) == verdict["steps"] // config.cadence + 2
    assert len(calls) == verdict["steps"] + 2


def test_mu_check_runs_with_every_record_and_never_in_the_step(monkeypatch):
    checked, framed = [], []
    original, geometry = eq.normal_velocity, eq.frame

    def counted(state):
        checked.append(state.t)
        return original(state)

    def counted_geometry(state):
        framed.append(state.t)
        return geometry(state)

    monkeypatch.setattr(eq, "normal_velocity", counted)
    monkeypatch.setattr(eq, "frame", counted_geometry)
    config = ScenarioConfig(backend="equivariant_sphere", resolution=32,
                            initial="sine", amplitude=0.3, t_max=0.05,
                            cadence=7)
    start = initial_state(config)
    records, verdict = run(config, start)
    # the initial record, the cadence records and the final off-cadence one
    assert verdict["steps"] % config.cadence != 0
    assert checked == [rec.t for rec in records]
    assert verdict["mu_orthogonality_max_rel"] <= 1e-6
    # a record and its mu check share one frame, derived on the run's copy
    assert framed == checked
    assert "frame" not in vars(start)

    # a diverged run ends on its last healthy state, recorded once and
    # checked once, whether that state was a cadence record (14) or not (12)
    step = eq.step_equivariant
    for healthy_steps in (14, 12):
        healthy = []

        def failing(state, dt, cfl):
            if state.steps == healthy_steps:
                healthy.append(state)
                raise DivergenceError("injected")
            return step(state, dt, cfl)

        monkeypatch.setattr(eq, "step_equivariant", failing)
        checked.clear()
        framed.clear()
        records, verdict = run(config)
        assert verdict["outcome"] == "diverged"
        assert verdict["steps"] == healthy_steps
        assert framed == checked
        assert records[-1] == eq.equivariant_monitors(healthy[0])
        assert len({rec.t for rec in records}) == len(records)
        assert checked == [rec.t for rec in records]

    # a kinked profile breaks down on its first step: one row, checked
    monkeypatch.setattr(eq, "step_equivariant", step)
    kinked = profile_state(32, np.zeros_like)
    kinked.rho[10] = 500.0
    checked.clear()
    records, verdict = run(config, kinked)
    assert verdict["outcome"] == "diverged" and verdict["steps"] == 0
    assert records == [eq.equivariant_monitors(kinked)]
    assert checked == [0.0]


def test_cached_rhop_is_exact_and_belongs_to_one_state():
    state = profile_state(32, lambda r: 0.3 * np.sin(r))
    out = step_equivariant(state, 0.2 * state.h**2, 0.2)
    assert out.rhop is out.rhop and out.r is out.r
    assert np.array_equal(out.rhop, eq.profile_derivative(out))
    moved = dataclasses.replace(out, rho=0.5 * out.rho)
    assert not np.array_equal(moved.rhop, out.rhop)
    assert np.array_equal(moved.rhop, eq.profile_derivative(moved))
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.rho = state.rho


def test_cfl_bound_is_read_only_above_its_floor(monkeypatch):
    """max_step >= cfl h^2 (1 + rho'^2 >= 1), so the step takes the bound's
    reduction only for a dt above that floor, and still refuses one above
    the bound."""
    state = profile_state(48, lambda r: r.copy())     # identity: rho' = 1
    bound = eq.max_step(state, 0.2)
    assert math.isclose(bound, 2.0 * 0.2 * state.h**2, rel_tol=1e-12)
    for dt in (bound, 1.5 * 0.2 * state.h**2):
        assert step_equivariant(state, dt, 0.2).t == dt
    with pytest.raises(ConfigurationError):
        step_equivariant(state, bound * (1 + 1e-11), 0.2)

    calls = []
    original = eq.max_step

    def counted(s, cfl):
        calls.append(s.steps)
        return original(s, cfl)

    monkeypatch.setattr(eq, "max_step", counted)
    config = ScenarioConfig(backend="equivariant_sphere", resolution=32,
                            initial="sine", amplitude=0.3, t_max=0.05, cadence=5)
    _, verdict = run(config)
    assert verdict["steps"] >= 10 and calls == []


# ---------------------------------------------------------------------------
# profile_velocity, profile_spectrum and pointwise_phi_stats as they were
# written before the source side was derived once per resolution and
# (cos rho, sin rho) once per state, and profile_derivative and the step's
# update as they were before they were formed in place.  Every node keeps
# the same operands in the same order, so the step and the light monitor
# must return the same bits.


def _ref_profile_derivative(state):
    rho = state.rho
    ext = np.concatenate([-rho[2:0:-1], rho, 2.0 * rho[-1] - rho[-2:-4:-1]])
    return (-ext[4:] + 8.0 * ext[3:-1] - 8.0 * ext[1:-3] + ext[:-4]) / (12.0 * state.h)


def _ref_profile_velocity(state):
    X = (np.cos(state.r), np.sin(state.r), np.cos(state.rho), np.sin(state.rho))
    cr, sr, cp, sp = (x[1:-1] for x in X)
    X_rr = [(x[2:] - 2.0 * x[1:-1] + x[:-2]) / state.h**2 for x in X]
    p = state.rhop[1:-1]
    v = np.zeros_like(state.rho)
    v[1:-1] = ((p * sr * X_rr[0] - p * cr * X_rr[1] - sp * X_rr[2] + cp * X_rr[3])
               / (1.0 + p**2)
               + (p * sr * cr - sp * cp) / (sr**2 + sp**2))
    return v


def _ref_profile_spectrum(state):
    lam1 = np.abs(state.rhop)
    sr = np.sin(state.r)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam2 = np.where(sr > 1e-12, np.abs(np.sin(state.rho) / sr), lam1)
    return lam1, lam2


def _ref_pointwise_phi_stats(lam1, lam2):
    pair = lam1 * lam2
    flagged = bool(pair_flags(pair**2).any())
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.log1p(-(pair**2)) - np.log1p(lam1**2) - np.log1p(lam2**2)
    min_phi = float("nan") if flagged else float(phi.min())
    return min_phi, float(pair.max()), float(max(lam1.max(), lam2.max())), flagged


BYTE_PROFILES = {
    "sine_03": PROFILES["sine_03"],
    "two_mode": PROFILES["two_mode"],
    "identity": PROFILES["identity"],
    "sine_09": lambda r: 0.9 * np.sin(r),
}


@pytest.mark.parametrize("J", [32, 64, 128])
@pytest.mark.parametrize("name", sorted(BYTE_PROFILES))
def test_step_and_light_monitor_equal_their_references(name, J):
    state = profile_state(J, BYTE_PROFILES[name])
    dt = 0.2 * state.h**2
    for _ in range(30):
        assert np.array_equal(eq.profile_derivative(state), _ref_profile_derivative(state))
        assert np.array_equal(eq.profile_velocity(state), _ref_profile_velocity(state))
        lam, ref_lam = eq.profile_spectrum(state), _ref_profile_spectrum(state)
        assert all(np.array_equal(a, b) for a, b in zip(lam, ref_lam))
        # repr tells NaN from NaN and -0.0 from 0.0 alike
        stats = eq.pointwise_phi_stats(*lam)
        assert list(map(repr, stats)) == list(map(repr, _ref_pointwise_phi_stats(*ref_lam)))
        assert stats[3] == (name == "identity")
        moved = step_equivariant(state, dt, 0.2)
        assert np.array_equal(moved.rho, state.rho + dt * _ref_profile_velocity(state))
        state = moved


def test_phi_stats_equal_their_reference_on_random_fields():
    # (l1 l2)^2 and l1^2 l2^2 differ in the last bit at few nodes, so a
    # form change reaches min_phi only on some fields; the scale 1.1 lets
    # about half of them flag
    rng = np.random.default_rng(19)
    flagged = 0
    for _ in range(400):
        lam1 = rng.uniform(0.0, 1.1, 129)
        lam2 = rng.uniform(0.0, 1.1, 129) * rng.choice([0.8, 1.0])
        stats = eq.pointwise_phi_stats(lam1, lam2)
        assert list(map(repr, stats)) == list(map(repr, _ref_pointwise_phi_stats(lam1, lam2)))
        flagged += stats[3]
    assert 0 < flagged < 400


def test_phi_guard_on_the_largest_pair_decides_as_every_node():
    """The guard reads the largest pair product; fields with a NaN pair (a
    NaN or an inf times 0), which hides the largest, or an inf pair decide
    and report as the node-by-node reference does."""
    rng = np.random.default_rng(27)
    flagged = 0
    for k in range(300):
        lam1 = rng.uniform(0.0, 1.1, 129)
        lam2 = rng.uniform(0.0, 1.1, 129)
        node = rng.integers(129)
        if k % 3 == 0:
            lam1[node] = np.nan
        elif k % 3 == 1:
            lam1[node], lam2[node] = np.inf, 0.0
        else:
            lam2[node] = np.inf
        with np.errstate(invalid="ignore"):
            stats = eq.pointwise_phi_stats(lam1, lam2)
            ref = _ref_pointwise_phi_stats(lam1, lam2)
        assert list(map(repr, stats)) == list(map(repr, ref))
        flagged += stats[3]
    assert 0 < flagged < 300
