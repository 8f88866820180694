"""Numerical consistency of the flat-torus flow with the algebraic evolution
and gradient formulas of the restricted tensor.

Because frame components of a 2-tensor have no canonical discrete meaning
(the SVD frame jumps between nodes and times), the checks compare
frame-invariant contractions, which determine the tensor statements and are
measurable without any frame choice:

  trace     (dt - Lap) tr S          vs  tr of the evolution right side
  square    (dt - Lap) tr S.S        vs  2 <S, rhs> - 2 |grad S|^2
  gradient  |grad S|^2 by covariant
            differencing             vs  the closed form from the gradient
                                         identity (h against the mixed block)

The measured side uses the graphical parametrization, so the tangential
transport v . grad u (v = projection of (0, df/dt) onto the graph tangent)
is subtracted to land on the normal-parametrization operator the formulas
are stated in.  Ambient curvature vanishes on the flat torus.
"""

from __future__ import annotations

import numpy as np

from .state import ScenarioConfig, TorusState, initial_state
from . import torus


def _roll_diff(field, axis, h):
    return (np.roll(field, -1, axis) - np.roll(field, 1, axis)) / (2.0 * h)


def _scalar_gradient(u, h, n):
    return np.stack([_roll_diff(u, k, h) for k in range(n)])


def _laplace_beltrami(u, g, ginv, h, n):
    """Divergence-form Laplacian (1/sqrt g) d_i (sqrt g g^{ij} d_j u)."""
    det = np.linalg.det(np.moveaxis(np.moveaxis(g, 0, -1), 0, -1))
    sq = np.sqrt(det)
    du = _scalar_gradient(u, h, n)
    w = sq * np.einsum("ij...,j...->i...", ginv, du)
    div = sum(_roll_diff(w[i], i, h) for i in range(n))
    return div / sq


def _restriction_coordinate(df):
    """Shat_ij = delta_ij - sum_a d_i f^a d_j f^a (coordinate components of
    the restricted tensor)."""
    n = df.shape[1]
    s = -np.einsum("ai...,aj...->ij...", df, df)
    for i in range(n):
        s[i, i] += 1.0
    return s


def _invariant_fields(df):
    """u1 = tr(g^-1 Shat), u2 = tr((g^-1 Shat)^2)."""
    n = df.shape[1]
    _, ginv = torus.induced_metric(df)
    shat = _restriction_coordinate(df)
    a = np.einsum("ik...,kj...->ij...", ginv, shat)
    u1 = np.einsum("ii...->...", a)
    u2 = np.einsum("ij...,ji...->...", a, a)
    return u1, u2


def _algebraic_sides(state: TorusState):
    """Frame contractions of the evolution right side and gradient identity."""
    fr = torus.graph_frames(state.df, torus.second_derivatives(state))
    S_T, S_N, S_X, h = fr["S_T"], fr["S_N"], fr["S_X"], fr["h"]
    HtH = np.einsum("pxka,pxkb->pab", h, h)
    HSNH = np.einsum("pxka,pxy,pykb->pab", h, S_N, h)
    rhs = HtH @ S_T + S_T @ HtH - 2.0 * HSNH
    trace_rhs = np.einsum("paa->p", rhs)
    inner_rhs = 2.0 * np.einsum("pab,pab->p", S_T, rhs)
    grad = np.einsum("pxka,pxb->pkab", h, S_X) + np.einsum("pxkb,pxa->pkab", h, S_X)
    grad_sq = np.einsum("pkab,pkab->p", grad, grad)
    return trace_rhs, inner_rhs - 2.0 * grad_sq, grad_sq


def _christoffels(g, ginv, h, n):
    dg = np.stack([_roll_diff(g, 2 + k, h) for k in range(n)])  # dg[k, i, j]
    gamma = 0.5 * (np.einsum("lm...,kmi...->lki...", ginv, dg)
                   + np.einsum("lm...,imk...->lki...", ginv, dg)
                   - np.einsum("lm...,mki...->lki...", ginv, dg))
    return gamma


def _measured_grad_sq(state: TorusState):
    """|grad S|^2 by covariant differencing of the coordinate components."""
    g, ginv = torus.induced_metric(state.df)
    n, h = state.n, state.h
    shat = _restriction_coordinate(state.df)
    dS = np.stack([_roll_diff(shat, 2 + k, h) for k in range(n)])  # dS[k, i, j]
    gamma = _christoffels(g, ginv, h, n)
    covd = dS - np.einsum("lki...,lj...->kij...", gamma, shat) \
        - np.einsum("lkj...,il...->kij...", gamma, shat)
    return np.einsum("ka...,ib...,jc...,kij...,abc...->...",
                     ginv, ginv, ginv, covd, covd)


def consistency_residuals(state: TorusState, dt: float, cfl: float = 0.25):
    """Max-norm residuals of the three invariant checks at the state's time.

    Steps the flow twice to center a three-point time stencil at t + dt.
    Only the torus backend is supported (flat ambient space).
    """
    if not isinstance(state, TorusState):
        raise ValueError("consistency checks support only the torus backend")
    n, h = state.n, state.h
    mid = torus.step_torus(state, dt, cfl)
    u1p, u2p = _invariant_fields(state.df)
    u1c, u2c = _invariant_fields(mid.df)
    # the third state is not kept, so its cached df is freed at once
    u1n, u2n = _invariant_fields(torus.step_torus(mid, dt, cfl).df)
    du1 = (u1n - u1p) / (2.0 * dt)
    du2 = (u2n - u2p) / (2.0 * dt)

    g, ginv = torus.induced_metric(mid.df)
    ft = torus.flow_velocity(mid)
    # tangential transport of the graphical parametrization
    b = np.einsum("ai...,a...->i...", mid.df, ft)
    v = np.einsum("ij...,j...->i...", ginv, b)

    def measured(u, du):
        adv = np.einsum("i...,i...->...", v, _scalar_gradient(u, h, n))
        return du - adv - _laplace_beltrami(u, g, ginv, h, n)

    trace_rhs, square_rhs, grad_sq_alg = _algebraic_sides(mid)
    shape = u1c.shape
    res_trace = np.abs(measured(u1c, du1).reshape(-1) - trace_rhs)
    res_square = np.abs(measured(u2c, du2).reshape(-1) - square_rhs)
    res_grad = np.abs(_measured_grad_sq(mid).reshape(-1) - grad_sq_alg)
    return {
        "evolution_trace": float(res_trace.max()),
        "evolution_square": float(res_square.max()),
        "gradient": float(res_grad.max()),
    }


def convergence_study(resolutions=(32, 64, 128), amplitude=0.25, t0=0.05,
                      cfl=0.2, n=2, m=2):
    """Grid-doubling study of the three residuals from sine initial data.

    Runs each resolution to the common time t0, measures the residuals
    there, and returns per-check observed orders log2(res_N / res_2N).
    """
    residuals = {}
    for N in resolutions:
        config = ScenarioConfig(backend="torus", n=n, m=m, resolution=N,
                                initial="sine", amplitude=amplitude, cfl=cfl,
                                t_max=t0)
        state = initial_state(config)
        dt = torus.max_step(state, cfl)
        while state.t < t0 - 1e-12:
            state = torus.step_torus(state, dt, cfl)
        residuals[N] = consistency_residuals(state, dt, cfl)
    orders = {}
    keys = list(residuals[resolutions[0]])
    for key in keys:
        orders[key] = [
            float(np.log2(residuals[a][key] / residuals[b][key]))
            for a, b in zip(resolutions, resolutions[1:])
        ]
    return {"residuals": residuals, "orders": orders}
