import dataclasses
import math

import numpy as np
import pytest

from areaflow import svcore
from areaflow.errors import ConfigurationError, DivergenceError
from areaflow.flowsim import (ScenarioConfig, initial_state, run, step_torus,
                              torus_monitors)
from areaflow.flowsim import consistency, torus
from areaflow.flowsim.runner import records_to_csv
from areaflow.flowsim.state import TorusState


def make_state(initial="sine", amplitude=0.5, resolution=24, n=2, m=2):
    config = ScenarioConfig(backend="torus", n=n, m=m, resolution=resolution,
                            initial=initial, amplitude=amplitude)
    return config, initial_state(config)


def test_constant_map_is_fixed_point():
    config, state = make_state(initial="constant")
    assert np.abs(torus.flow_velocity(state)).max() == 0.0
    rec = torus_monitors(state)
    assert rec.min_phi == 0.0 and rec.max_lambda == 0.0 and rec.sup_a2 <= 1e-12


def test_linear_map_is_fixed_point_with_expected_phi():
    config, state = make_state(initial="linear", amplitude=0.5)
    assert np.allclose(state.winding, 0.5 * np.eye(2))
    assert np.abs(torus.flow_velocity(state)).max() <= 1e-13
    rec = torus_monitors(state)
    assert math.isclose(rec.min_phi, math.log(0.6), rel_tol=1e-12)
    assert math.isclose(rec.max_two_dilation, 0.25, rel_tol=1e-12)
    assert rec.sup_a2 <= 1e-20  # flat graph
    stepped = step_torus(state, torus.max_step(state, 0.2), 0.2)
    assert np.allclose(stepped.u, state.u)


def test_cfl_enforcement():
    config, state = make_state()
    good = torus.max_step(state, 0.25)
    with pytest.raises(ConfigurationError):
        step_torus(state, 2 * good, 0.25)
    with pytest.raises(ConfigurationError):
        step_torus(state, good, cfl=0.3)


def test_flagged_state_reports_nan_phi():
    config, state = make_state(initial="linear", amplitude=1.2)
    rec = torus_monitors(state)
    assert rec.flagged
    assert math.isnan(rec.min_phi)
    assert rec.max_two_dilation >= 1.0


def test_sine_run_converges_with_monotone_phi():
    config = ScenarioConfig(backend="torus", resolution=32, initial="sine",
                            amplitude=0.5, t_max=8.0, cadence=40)
    records, verdict = run(config)
    assert verdict["outcome"] == "converged"
    assert verdict["monotonicity_violations"] == 0
    assert verdict["final_max_lambda"] < config.lambda_stop
    assert not verdict["flagged_non_area_decreasing"]
    phis = [r.min_phi for r in records]
    assert phis[-1] > phis[0]
    assert verdict["fitted_decay_rate"] > 0


def test_refinement_changes_curve_mildly():
    curves = {}
    tols = {}
    for N in (16, 32):
        config = ScenarioConfig(backend="torus", resolution=N, initial="sine",
                                amplitude=0.4, t_max=0.5,
                                cadence=5 * (N // 16) ** 2)
        records, verdict = run(config)
        curves[N] = [(r.t, r.min_phi) for r in records]
        tols[N] = verdict["monotonicity_tolerance"]
    tc, pc = zip(*curves[16])
    tf, pf = zip(*curves[32])
    drift = np.abs(np.array(pc) - np.interp(tc, tf, pf)).max()
    assert drift <= 4.0 * tols[16]


def test_general_dimensions_path():
    config = ScenarioConfig(backend="torus", n=3, m=2, resolution=12,
                            initial="sine", amplitude=0.3, t_max=0.05,
                            cadence=10)
    state = initial_state(config)
    assert state.u.shape == (2, 12, 12, 12)
    records, verdict = run(config)
    assert verdict["monotonicity_violations"] == 0
    assert records[0].max_lambda <= 0.31


@pytest.mark.parametrize("healthy_steps", [10, 12])
def test_diverged_run_ends_on_its_last_healthy_state_once(monkeypatch, healthy_steps):
    # cadence 5: the last healthy state is a cadence record (10) or not (12)
    step = torus.step_torus
    healthy = []

    def failing(state, dt, cfl):
        if state.steps == healthy_steps:
            healthy.append(state)
            raise DivergenceError("injected")
        return step(state, dt, cfl)

    monkeypatch.setattr(torus, "step_torus", failing)
    config = ScenarioConfig(backend="torus", resolution=16, initial="sine",
                            amplitude=0.4, t_max=1.0, cadence=5)
    records, verdict = run(config)
    assert verdict["outcome"] == "diverged"
    assert verdict["steps"] == healthy_steps
    assert records[-1] == torus_monitors(healthy[0])
    assert len({rec.t for rec in records}) == len(records)


def test_non_finite_first_step_diverges_on_one_row():
    config = ScenarioConfig(backend="torus", resolution=16, initial="sine",
                            amplitude=1e200, t_max=1.0, cadence=5)
    with np.errstate(over="ignore", invalid="ignore"):
        records, verdict = run(config)
    assert verdict["outcome"] == "diverged" and verdict["steps"] == 0
    assert [rec.t for rec in records] == [0.0]


def test_winding_preserved_and_periodic():
    config, state = make_state(initial="linear", amplitude=1.0, resolution=16)
    state2 = TorusState(n=2, m=2, resolution=16, winding=state.winding,
                        u=state.u + 0.1 * np.sin(np.arange(16) * 2 * np.pi / 16)[None, :, None],
                        t=0.0)
    dt = torus.max_step(state2, 0.2)
    out = step_torus(state2, dt, 0.2)
    assert np.array_equal(out.winding, state2.winding)
    # the stencil is periodic: stepping a shifted residual shifts the step
    x = np.arange(16) * 2 * np.pi / 16
    u = state2.u + 0.05 * np.cos(2 * x[None, None, :] + x[None, :, None]
                                 + np.arange(2)[:, None, None])
    state3 = dataclasses.replace(state2, u=u)
    shifted = dataclasses.replace(state2, u=np.roll(u, (3, 5), axis=(1, 2)))
    assert np.array_equal(step_torus(shifted, dt, 0.2).u,
                          np.roll(step_torus(state3, dt, 0.2).u, (3, 5), axis=(1, 2)))


def test_csv_round_trip_format():
    config = ScenarioConfig(backend="torus", resolution=16, initial="sine",
                            amplitude=0.3, t_max=0.02, cadence=2)
    records, _ = run(config)
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "t,min_phi,max_two_dilation,max_lambda,sup_A2"
    parsed = [float(x) for x in lines[1].split(",")]
    assert parsed[0] == records[0].t
    assert float(f"{records[1].min_phi:.17g}") == records[1].min_phi


def _svd_phi_stats(df):
    """Reference for pointwise_phi_stats: SVD spectra through the shared
    spectrum kernel."""
    lam = np.linalg.svd(torus._node_matrices(df), compute_uv=False)
    pair = lam[:, 0] * lam[:, 1]
    flagged = bool((pair**2 >= 1.0 - svcore.PAIR_PRODUCT_GUARD).any())
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = svcore.phi_batch(lam)
    min_phi = float("nan") if flagged else float(phi.min())
    return min_phi, float(pair.max()), float(lam.max()), flagged


def test_closed_form_phi_matches_spectrum_kernel():
    rng = np.random.default_rng(2024)
    fields = [rng.normal(0.0, 0.3, (2, 2, 9, 7)) for _ in range(6)]
    flagged_field = rng.normal(0.0, 0.3, (2, 2, 9, 7))
    flagged_field[:, :, 4, 3] = [[1.3, 0.2], [-0.1, 0.9]]   # l1 l2 = det = 1.19
    fields.append(flagged_field)
    for k, df in enumerate(fields):
        closed = torus.pointwise_phi_stats(df)
        ref = _svd_phi_stats(df)
        assert closed[3] == ref[3] == (k == len(fields) - 1)
        if ref[3]:
            assert math.isnan(closed[0]) and math.isnan(ref[0])
        else:
            assert math.isclose(closed[0], ref[0], rel_tol=1e-13)
        assert math.isclose(closed[1], ref[1], rel_tol=1e-13)
        assert math.isclose(closed[2], ref[2], rel_tol=1e-13)


@pytest.mark.parametrize("m, n", [(3, 2), (2, 3), (4, 2), (2, 4)])
def test_two_value_phi_stats_match_spectrum_kernel(m, n):
    """min(m, n) = 2 reads Phi, (l1 l2)_max and l1_max from the invariants
    T, D^2 and the short side's 2x2 Gram matrix; the SVD spectra through
    the shared kernel agree to rounding, on fields with and without a
    flagged node and on near-conformal nodes (l1 ~ l2)."""
    rng = np.random.default_rng(2027)
    fields = [rng.normal(0.0, 0.2, (m, n, 9, 7)) for _ in range(6)]
    flagged_field = rng.normal(0.0, 0.2, (m, n, 9, 7))
    flagged_field[:, :, 4, 3] = 0.0
    flagged_field[0, 0, 4, 3], flagged_field[1, 1, 4, 3] = 1.3, 0.9   # l1 l2 = 1.17
    fields.append(flagged_field)
    conformal = np.zeros((m, n, 50))
    angle = rng.uniform(0.0, 2.0 * np.pi, 50)
    conformal[0, 0], conformal[0, 1] = np.cos(angle), -np.sin(angle)
    conformal[1, 0], conformal[1, 1] = np.sin(angle), np.cos(angle)
    fields.append(0.7 * conformal + 1e-9 * rng.normal(size=conformal.shape))
    for k, df in enumerate(fields):
        two = torus.pointwise_phi_stats(df)
        sv = np.linalg.svd(torus._node_matrices(df), compute_uv=False)
        lam = np.zeros((sv.shape[0], n))            # n values, zero beyond 2
        lam[:, :2] = sv
        pair = lam[:, 0] * lam[:, 1]
        flagged = bool(svcore.pair_flags(pair**2).any())
        with np.errstate(invalid="ignore"):
            min_phi = float("nan") if flagged else float(svcore.phi_batch(lam).min())
        ref = (min_phi, float(pair.max()), float(lam.max()), flagged)
        assert two[3] == ref[3] == (k == 6)
        if ref[3]:
            assert math.isnan(two[0]) and math.isnan(ref[0])
        else:
            assert math.isclose(two[0], ref[0], rel_tol=1e-13)
        assert math.isclose(two[1], ref[1], rel_tol=1e-13)
        assert math.isclose(two[2], ref[2], rel_tol=1e-14)


def test_first_derivatives_run_once_per_state(monkeypatch):
    calls = []
    original = torus.first_derivatives

    def counted(state):
        calls.append(state.steps)
        return original(state)

    monkeypatch.setattr(torus, "first_derivatives", counted)
    config = ScenarioConfig(backend="torus", resolution=16, initial="sine",
                            amplitude=0.4, t_max=0.2, cadence=5)
    state = initial_state(config)
    _, verdict = run(config, state)
    assert verdict["steps"] >= 10
    assert len(calls) == verdict["steps"] + 1
    # the run derives its fields on its own copy, not on the caller's state
    assert "df" not in vars(state)


def test_phi_stats_run_once_per_state_and_once_more_for_the_final_record(monkeypatch):
    """A recorded state's light numbers come from its record: one
    pointwise_phi_stats call per state, plus the final off-cadence record."""
    calls = []
    original = torus.pointwise_phi_stats

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(torus, "pointwise_phi_stats", counted)
    config = ScenarioConfig(backend="torus", resolution=16, initial="sine",
                            amplitude=0.4, t_max=0.2, cadence=7)
    records, verdict = run(config)
    assert verdict["outcome"] == "timeout" and verdict["steps"] % config.cadence != 0
    assert len(records) == verdict["steps"] // config.cadence + 2
    assert len(calls) == verdict["steps"] + 2


def test_cached_df_is_exact_and_belongs_to_one_state():
    _, state = make_state(resolution=16)
    out = step_torus(state, torus.max_step(state, 0.2), 0.2)
    assert out.df is out.df
    assert np.array_equal(out.df, torus.first_derivatives(out))
    moved = dataclasses.replace(out, u=0.5 * out.u)
    assert not np.array_equal(moved.df, out.df)
    assert np.array_equal(moved.df, torus.first_derivatives(moved))
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.u = state.u


def _roll_first(u, h, n):
    """np.roll reference for the centered first differences of u."""
    return np.stack([(np.roll(u, -1, 1 + i) - np.roll(u, 1, 1 + i)) / (2.0 * h)
                     for i in range(n)], axis=1)


def _roll_second(u, h, n):
    """np.roll reference for the centered and cross-centered second
    differences of u."""
    d2 = np.empty((u.shape[0], n, n) + u.shape[1:])
    for i in range(n):
        ax = 1 + i
        d2[:, i, i] = (np.roll(u, -1, ax) - 2.0 * u + np.roll(u, 1, ax)) / h**2
        for j in range(i + 1, n):
            ay = 1 + j
            d2[:, i, j] = d2[:, j, i] = (
                np.roll(np.roll(u, -1, ax), -1, ay) - np.roll(np.roll(u, -1, ax), 1, ay)
                - np.roll(np.roll(u, 1, ax), -1, ay)
                + np.roll(np.roll(u, 1, ax), 1, ay)) / (4.0 * h**2)
    return d2


def _rough_state(n, m, resolution, seed, winding_scale=0.0):
    """Sine data plus a random residual, with a random winding of the
    given scale (zero winding for scale 0)."""
    _, state = make_state(n=n, m=m, resolution=resolution)
    rng = np.random.default_rng(seed)
    return dataclasses.replace(
        state, winding=winding_scale * rng.normal(size=(m, n)),
        u=state.u + 0.05 * rng.normal(size=state.u.shape))


@pytest.mark.parametrize("n, m, resolution", [(2, 2, 20), (2, 3, 13), (3, 2, 9), (3, 3, 8)])
def test_padded_stencils_match_roll_bit_for_bit(n, m, resolution):
    state = _rough_state(n, m, resolution, seed=11, winding_scale=0.3)
    ref_df = _roll_first(state.u, state.h, n) \
        + state.winding[(slice(None), slice(None)) + (None,) * n]
    assert np.array_equal(torus.first_derivatives(state), ref_df)
    assert np.array_equal(torus.second_derivatives(state),
                          _roll_second(state.u, state.h, n))


def _per_axis_first_derivatives(state):
    """df axis by axis into one preallocated stack, the winding added per
    axis after the division: the byte reference for `first_derivatives`."""
    n, u = state.n, state.u
    df = np.empty((state.m, n) + u.shape[1:])
    for i in range(n):
        di = df[:, i]
        np.subtract(np.roll(u, -1, 1 + i), np.roll(u, 1, 1 + i), out=di)
        di /= 2.0 * state.h
        di += state.winding[:, i][(slice(None),) + (None,) * n]
    return df


@pytest.mark.parametrize("n, m, resolution", [(1, 2, 17), (1, 1, 12), (3, 2, 9), (3, 1, 8)])
def test_centered_diffs_match_roll_for_any_component_count(n, m, resolution):
    """The one centered first difference, on the n^2 metric entries (not m
    components), and first_derivatives' broadcast winding add."""
    state = _rough_state(n, m, resolution, seed=13, winding_scale=0.4)
    g, _ = torus.induced_metric(state.df)
    entries = g.reshape((n * n,) + g.shape[2:])
    diffs = torus.centered_diffs(entries, state.h)
    assert diffs.shape == (n * n, n) + g.shape[2:]
    assert np.array_equal(diffs, _roll_first(entries, state.h, n))
    assert np.any(state.winding != 0)
    assert np.array_equal(torus.first_derivatives(state), _per_axis_first_derivatives(state))


@pytest.mark.parametrize("n, m, resolution", [(1, 2, 9), (1, 1, 12), (2, 2, 9), (2, 3, 9),
                                              (3, 2, 9), (3, 3, 8)])
@pytest.mark.parametrize("winding_scale", [0.0, 0.6])
def test_run_slices_match_roll_bit_for_bit(n, m, resolution, winding_scale):
    """The stencils' flat slices of one ghost-padded run against np.roll, for
    n = 1 to 3 (cross terms at n = 3), odd grids and nonzero winding; the
    velocity off n = 2 against g^-1 contracted with the np.roll stack; and
    the step's padded residual against one padded afresh from its nodes."""
    state = _rough_state(n, m, resolution, seed=23, winding_scale=winding_scale)
    ref_df = _roll_first(state.u, state.h, n) \
        + state.winding[(slice(None), slice(None)) + (None,) * n]
    ref_d2 = _roll_second(state.u, state.h, n)
    assert np.array_equal(state.df, ref_df)
    assert np.array_equal(torus.second_derivatives(state), ref_d2)
    assert np.array_equal(torus.centered_diffs(state.u, state.h), _roll_first(state.u, state.h, n))
    velocity = torus.flow_velocity(state)
    if n != 2:
        _, ginv = torus.induced_metric(ref_df)
        assert np.array_equal(velocity, np.einsum("ij...,aij...->a...", ginv, ref_d2))
    dt = torus.max_step(state, 0.2)
    out = step_torus(state, dt, 0.2)
    assert np.array_equal(out.u, state.u + dt * velocity)
    assert np.array_equal(out.padded, torus.ghost_padded(out.u))


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("winding_scale", [0.0, 0.7])
def test_the_stop_bound_decides_as_the_exact_max_lambda(n, m, winding_scale):
    """max_lambda < lambda_stop as the exact route decides it, at lambda_stop
    within a few ulps of the exact value and at the bound's margin edge;
    where the bound settles, the value is sqrt(max T / 2), elsewhere the
    exact one, and the other three numbers are the exact route's."""
    state = _rough_state(n, m, 12 if n == 2 else 8, seed=19, winding_scale=winding_scale)
    exact = torus.pointwise_phi_stats(state.df)
    bound = math.sqrt(float(np.einsum("ai...,ai...->...", state.df, state.df).max()) / 2.0)
    assert bound < exact[2]
    edge = bound / torus.STOP_BOUND_MARGIN
    settled = 0
    for centre in (exact[2], edge):
        for k in range(5):
            for sign in (1, -1):
                stop = centre * (1 + sign * k * 2.0**-52)
                stats = torus.pointwise_phi_stats(state, stop)
                assert (stats[2] < stop) == (exact[2] < stop)
                assert repr(stats[:2] + stats[3:]) == repr(exact[:2] + exact[3:])
                if bound > stop * torus.STOP_BOUND_MARGIN:
                    settled += 1
                    assert stats[2] == bound
                else:
                    assert stats[2] == exact[2]
    assert settled >= 4
    assert torus.pointwise_phi_stats(state, None) == exact


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3)])
def test_a_subnormal_max_t_runs_the_exact_route(n, m):
    """max T below the normal range: the bound's roundings are no longer
    relative, so the exact route decides even a stop far below the bound."""
    state = _rough_state(n, m, 12, seed=29, winding_scale=0.5)
    tiny = dataclasses.replace(state, u=1e-160 * state.u, winding=1e-160 * state.winding)
    t_max = float(np.einsum("ai...,ai...->...", tiny.df, tiny.df).max())
    assert 0.0 < t_max < np.finfo(float).tiny
    exact = torus.pointwise_phi_stats(tiny.df)
    stop = 1e-200
    assert math.sqrt(t_max / 2.0) > stop * torus.STOP_BOUND_MARGIN
    assert torus.pointwise_phi_stats(tiny, stop) == exact
    assert not exact[2] < stop


def _square_d2(df):
    """(l1 l2)^2 of each node of a 2x2 field, in the closed form's order."""
    minor = df[0, 0] * df[1, 1]
    minor -= df[0, 1] * df[1, 0]
    return minor * minor


def test_one_nan_node_and_one_flagged_node_flag_as_before():
    """The guard reads the largest D^2 once; a NaN node hides it, so the
    guard then reads every node, and the flags are those of every node."""
    rng = np.random.default_rng(31)
    base = rng.normal(0.0, 0.2, (2, 2, 9, 7))
    with_nan, both = base.copy(), base.copy()
    with_nan[:, :, 2, 5] = np.nan
    both[:, :, 2, 5] = np.nan
    both[:, :, 6, 1] = [[1.3, 0.2], [-0.1, 0.9]]   # l1 l2 = det = 1.19
    flagged_only = base.copy()
    flagged_only[:, :, 6, 1] = both[:, :, 6, 1]
    with np.errstate(invalid="ignore"):
        for df, want in ((base, False), (with_nan, False), (both, True), (flagged_only, True)):
            min_phi, max_pair, _, flagged = torus.pointwise_phi_stats(df)
            assert flagged == bool(svcore.pair_flags(_square_d2(df)).any()) == want
            assert math.isnan(min_phi) == (want or df is with_nan)
            assert math.isnan(max_pair) == np.isnan(df).any()


def test_per_node_joins_tuple_results_in_block_order(monkeypatch):
    monkeypatch.setattr(torus, "NODE_BLOCK", 4)
    x = np.arange(20.0).reshape(2, 10)
    y = np.arange(10.0, 20.0)
    blocks = []

    def fn(a, b):
        blocks.append(b.tolist())
        return a[0] + b, a[1] * b

    joined = torus.per_node(fn, x, y)
    assert blocks == [y[:4].tolist(), y[4:8].tolist(), y[8:].tolist()]
    assert np.array_equal(joined, np.stack([x[0] + y, x[1] * y]))


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("winding_scale", [0.0, 0.7])
def test_closed_form_a2_matches_qr_frames(n, m, winding_scale):
    state = _rough_state(n, m, 12 if n == 2 else 8, seed=5,
                         winding_scale=winding_scale)
    d2 = torus.second_derivatives(state)
    frames = torus.graph_frames(state.df, d2)
    assert set(frames) == {"S_T", "S_N", "S_X", "h"}
    h = frames["h"]
    oracle = np.einsum("pxab,pxab->p", h, h)
    closed = torus.second_fundamental_sq(state.df, d2).reshape(-1)
    assert oracle.min() > 0
    assert np.all(np.abs(closed - oracle) <= 1e-13 * oracle)


# (n, m, resolution, NODE_BLOCK): 48^2 = 2304 nodes end on a partial block at
# the module's block size; the general shapes are cut into 100-node blocks
BLOCKED_GRIDS = [(2, 2, 48, None), (3, 2, 8, 100), (2, 3, 12, 100), (3, 3, 8, 100)]


@pytest.mark.parametrize("n, m, resolution, block", BLOCKED_GRIDS)
def test_blocked_per_node_algebra_equals_one_block(monkeypatch, n, m, resolution, block):
    """|A|^2, the cadence record and criterion 11's QR-frame sides and
    |grad S|^2 contraction get the bits of one whole-grid block."""
    state = _rough_state(n, m, resolution, seed=5, winding_scale=0.7)
    d2 = torus.second_derivatives(state)
    g, ginv, shat = consistency._metric_fields(state.df)

    def evaluate():
        return {"a2": torus.second_fundamental_sq(state.df, d2),
                "sides": consistency._algebraic_sides(state),
                "grad_sq": consistency._measured_grad_sq(g, ginv, shat, state.h),
                "record": repr(torus_monitors(state))}   # min_phi may be nan

    if block is not None:
        monkeypatch.setattr(torus, "NODE_BLOCK", block)
    assert torus.NODE_BLOCK < resolution**n
    blocked = evaluate()
    monkeypatch.setattr(torus, "NODE_BLOCK", resolution**n)
    whole = evaluate()
    assert blocked["a2"].shape == state.u.shape[1:]
    assert blocked["sides"].shape == (3, resolution**n)
    assert blocked.pop("record") == whole.pop("record")
    for key in whole:
        assert np.array_equal(blocked[key], whole[key]), key


# the 12^3 grids are large enough for np.einsum's iteration order to follow
# a strided operand's layout (8^3 and 10^3 are not)
@pytest.mark.parametrize("n, m, resolution", [(2, 2, 24), (3, 2, 12), (3, 3, 12)])
def test_grad_sq_on_the_strided_dg_view_equals_the_contiguous_route(n, m, resolution):
    """|grad S|^2 contracted on the moveaxis view of d g has the bits of the
    same contraction on a C-contiguous dg[k, i, j]: np.einsum sums in its
    operands' memory order."""
    state = _rough_state(n, m, resolution, seed=7, winding_scale=0.5)
    g, ginv, shat = consistency._metric_fields(state.df)
    P = resolution**n
    dg = np.stack([(np.roll(g, -1, 2 + k) - np.roll(g, 1, 2 + k)) / (2.0 * state.h)
                   for k in range(n)]).reshape(n, n, n, P)
    ref = consistency._covariant_grad_sq(dg, ginv.reshape(n, n, P), shat.reshape(n, n, P))
    assert np.array_equal(consistency._measured_grad_sq(g, ginv, shat, state.h), ref)


def test_blocked_monitor_bounds_its_memory(monkeypatch, traced_peak):
    """At 128^2 the cadence monitor in node blocks peaks at most half as
    high as in one block (measured: 1.64 against 5.00 MiB)."""
    _, state = make_state(resolution=128)
    state.df   # cached before tracing: the state's memory, not the monitor's
    blocked = traced_peak(torus_monitors, state)
    monkeypatch.setattr(torus, "NODE_BLOCK", 128**2)
    assert blocked <= 0.5 * traced_peak(torus_monitors, state)


@pytest.mark.parametrize("m", [2, 3])
def test_two_dimensional_velocity_matches_metric_route(m):
    state = _rough_state(2, m, 24, seed=3, winding_scale=0.5)
    _, ginv = torus.induced_metric(state.df)
    ref = np.einsum("ij...,aij...->a...", ginv, torus.second_derivatives(state))
    assert np.abs(torus.flow_velocity(state) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_max_lambda_keeps_digits_at_near_conformal_nodes():
    """l1 ~ l2: sqrt((T + sqrt(T^2 - 4 D^2)) / 2) loses half the digits."""
    rng = np.random.default_rng(17)
    K = 4000
    scale = rng.uniform(0.05, 0.9, K)
    angle = rng.uniform(0.0, 2.0 * np.pi, K)
    conformal = scale * np.array([[np.cos(angle), -np.sin(angle)],
                                  [np.sin(angle), np.cos(angle)]])
    df = conformal + 10.0 ** rng.uniform(-12, -6, K) * rng.normal(size=(2, 2, K))
    worst = 0.0
    for k in range(K):
        node = df[:, :, k:k + 1]
        ref = np.linalg.svd(node[:, :, 0], compute_uv=False)[0]
        worst = max(worst, abs(torus.pointwise_phi_stats(node)[2] - ref) / ref)
    assert worst <= 1e-14


def test_min_phi_refinement_drift_is_second_order():
    """Observed order of the min-Phi drift over 32/64/128, read at the 32^2
    record times (the cadences keep those times common to all three)."""
    curves = {}
    for N, cadence in ((32, 4), (64, 16), (128, 64)):
        config = ScenarioConfig(backend="torus", resolution=N, initial="sine",
                                amplitude=0.5, t_max=0.25, cadence=cadence)
        records, verdict = run(config)
        assert verdict["monotonicity_violations"] == 0
        curves[N] = (np.array([r.t for r in records]),
                     np.array([r.min_phi for r in records]))
    t32 = curves[32][0]
    at32 = {N: np.interp(t32, *curves[N]) for N in curves}
    drifts = [np.abs(at32[32] - at32[64]).max(), np.abs(at32[64] - at32[128]).max()]
    assert math.log2(drifts[0] / drifts[1]) >= 1.5
