import hashlib

import numpy as np
import pytest

from areaflow.flowsim import ScenarioConfig, consistency_residuals, convergence_study
from areaflow.flowsim import consistency, initial_state, torus
from areaflow.flowsim.state import EquivariantState


def test_linear_map_residuals_vanish():
    config = ScenarioConfig(backend="torus", resolution=16, initial="linear",
                            amplitude=0.5)
    state = initial_state(config)
    res = consistency_residuals(state, torus.max_step(state, 0.2))
    for value in res.values():
        assert value <= 1e-12


def test_equivariant_backend_unsupported():
    state = EquivariantState(resolution=16, rho=np.zeros(17))
    with pytest.raises(ValueError):
        consistency_residuals(state, 1e-4)


def test_convergence_orders_reach_two():
    study = convergence_study(resolutions=(16, 32, 64), amplitude=0.25, t0=0.05)
    for key, orders in study["orders"].items():
        assert orders[-1] >= 1.5, (key, orders)
    # residuals themselves must actually shrink
    r16 = study["residuals"][16]
    r64 = study["residuals"][64]
    for key in r16:
        assert r64[key] < r16[key] / 8.0


def test_convergence_study_is_pinned():
    """sha256 of repr(convergence_study((32, 64, 128), 0.25, 0.05)): every
    residual and order to the last bit."""
    study = convergence_study((32, 64, 128), 0.25, 0.05)
    assert hashlib.sha256(repr(study).encode()).hexdigest() == \
        "dc91cc021a5f792e4f7867e9b58f083d73b1450fc038e8a00689e9629d9e007b"


def test_residuals_positive_on_curved_data():
    config = ScenarioConfig(backend="torus", resolution=24, initial="sine",
                            amplitude=0.4)
    state = initial_state(config)
    res = consistency_residuals(state, torus.max_step(state, 0.2))
    assert set(res) == {"evolution_trace", "evolution_square", "gradient"}
    assert all(v > 0 for v in res.values())


def _roll_diff(field, axis, h):
    return (np.roll(field, -1, axis) - np.roll(field, 1, axis)) / (2.0 * h)


def _restriction(df):
    """Shat_ij = delta_ij - sum_a d_i f^a d_j f^a, contracted on its own."""
    s = -np.einsum("ai...,aj...->ij...", df, df)
    for i in range(df.shape[1]):
        s[i, i] += 1.0
    return s


def _reference_residuals(state, dt):
    """The three residuals by the route that forms Shat by its own contraction
    and differences it on its own, apart from g."""
    n, h = state.n, state.h
    mid = torus.step_torus(state, dt)
    last = torus.step_torus(mid, dt)

    def invariants(df):
        a = np.einsum("ik...,kj...->ij...", torus.induced_metric(df)[1], _restriction(df))
        return np.einsum("ii...->...", a), np.einsum("ij...,ji...->...", a, a)

    (u1p, u2p), (u1c, u2c), (u1n, u2n) = map(invariants, (state.df, mid.df, last.df))
    g, ginv = torus.induced_metric(mid.df)
    v = np.einsum("ij...,j...->i...", ginv,
                  np.einsum("ai...,a...->i...", mid.df, torus.flow_velocity(mid)))

    def measured(u, du):
        det = np.linalg.det(np.moveaxis(np.moveaxis(g, 0, -1), 0, -1))
        grad = np.stack([_roll_diff(u, k, h) for k in range(n)])
        w = np.sqrt(det) * np.einsum("ij...,j...->i...", ginv, grad)
        lap = sum(_roll_diff(w[i], i, h) for i in range(n)) / np.sqrt(det)
        return du - np.einsum("i...,i...->...", v, grad) - lap

    shat = _restriction(mid.df)
    dS = np.stack([_roll_diff(shat, 2 + k, h) for k in range(n)])
    dg = np.stack([_roll_diff(g, 2 + k, h) for k in range(n)])
    gamma = 0.5 * (np.einsum("lm...,kmi...->lki...", ginv, dg)
                   + np.einsum("lm...,imk...->lki...", ginv, dg)
                   - np.einsum("lm...,mki...->lki...", ginv, dg))
    covd = dS - np.einsum("lki...,lj...->kij...", gamma, shat) \
        - np.einsum("lkj...,il...->kij...", gamma, shat)
    grad_sq = np.einsum("ka...,ib...,jc...,kij...,abc...->...",
                        ginv, ginv, ginv, covd, covd)
    trace_rhs, square_rhs, grad_sq_alg = consistency._algebraic_sides(mid)
    sides = {
        "evolution_trace": (measured(u1c, (u1n - u1p) / (2.0 * dt)), trace_rhs),
        "evolution_square": (measured(u2c, (u2n - u2p) / (2.0 * dt)), square_rhs),
        "gradient": (grad_sq, grad_sq_alg),
    }
    return {key: float(np.abs(lhs.reshape(-1) - rhs).max())
            for key, (lhs, rhs) in sides.items()}


def test_residuals_match_the_separate_restriction_route():
    config = ScenarioConfig(backend="torus", resolution=32, initial="sine",
                            amplitude=0.4)
    state = initial_state(config)
    dt = torus.max_step(state, 0.2)
    for _ in range(20):
        state = torus.step_torus(state, dt)
    res = consistency_residuals(state, dt)
    ref = _reference_residuals(state, dt)
    assert set(res) == set(ref)
    for key in ref:
        assert ref[key] > 0
        assert abs(res[key] - ref[key]) <= 1e-8 * ref[key], (key, res[key], ref[key])


def test_residuals_derive_one_metric_per_state(monkeypatch):
    calls = []
    original = torus.induced_metric

    def counted(df):
        calls.append(df.shape)
        return original(df)

    monkeypatch.setattr(torus, "induced_metric", counted)
    config = ScenarioConfig(backend="torus", resolution=16, initial="sine",
                            amplitude=0.4)
    state = initial_state(config)
    consistency_residuals(state, torus.max_step(state, 0.2))
    assert len(calls) == 3


def test_blocked_residuals_bound_their_memory(monkeypatch, traced_peak):
    """At 128^2 the residuals in node blocks peak at most 0.6 times as high
    as in one block (measured: 7.26 against 13.63 MiB)."""
    config = ScenarioConfig(backend="torus", resolution=128, initial="sine",
                            amplitude=0.25)
    state = initial_state(config)
    dt = torus.max_step(state, 0.2)
    blocked = traced_peak(consistency_residuals, state, dt)
    monkeypatch.setattr(torus, "NODE_BLOCK", 128**2)
    assert blocked <= 0.6 * traced_peak(consistency_residuals, state, dt)
