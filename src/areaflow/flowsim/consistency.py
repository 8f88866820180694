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

Differences (the time stencil, coordinate gradients, d g) run on the whole
grid, in space through the step's stencil (`torus.centered_diffs`).  The
per-node algebra (the QR frames and their contractions, the covariant
contraction of |grad S|^2) runs in node blocks (`torus.per_node`).
"""

from __future__ import annotations

import numpy as np

from .state import ScenarioConfig, TorusState, initial_state
from . import torus


def _metric_fields(df):
    """(g, g^-1, Shat) from one induced metric.  The restricted tensor's
    coordinate components Shat_ij = delta_ij - sum_a d_i f^a d_j f^a are
    2 delta_ij - g_ij."""
    g, ginv = torus.induced_metric(df)
    shat = -g
    for i in range(g.shape[0]):
        shat[i, i] += 2.0
    return g, ginv, shat


def _invariant_fields(ginv, shat):
    """u1 = tr(g^-1 Shat), u2 = tr((g^-1 Shat)^2)."""
    a = np.einsum("ik...,kj...->ij...", ginv, shat)
    u1 = np.einsum("ii...->...", a)
    u2 = np.einsum("ij...,ji...->...", a, a)
    return u1, u2


def _algebraic_sides(state: TorusState):
    """Frame contractions of the evolution right side and gradient identity,
    as rows (trace, square, |grad S|^2) of one (3, P) array; the QR frames
    are formed one node block at a time."""
    m, n = state.m, state.n
    return torus.per_node(_frame_contractions, state.df.reshape(m, n, -1),
                          torus.second_derivatives(state).reshape(m, n, n, -1))


def _frame_contractions(df, d2):
    """The three algebraic sides on the nodes of (m, n, B) and (m, n, n, B)."""
    fr = torus.graph_frames(df, d2)
    S_T, S_N, S_X, h = fr["S_T"], fr["S_N"], fr["S_X"], fr["h"]
    HtH = np.einsum("pxka,pxkb->pab", h, h)
    HSNH = np.einsum("pxka,pxy,pykb->pab", h, S_N, h)
    rhs = HtH @ S_T + S_T @ HtH - 2.0 * HSNH
    trace_rhs = np.einsum("paa->p", rhs)
    inner_rhs = 2.0 * np.einsum("pab,pab->p", S_T, rhs)
    grad = np.einsum("pxka,pxb->pkab", h, S_X) + np.einsum("pxkb,pxa->pkab", h, S_X)
    grad_sq = np.einsum("pkab,pkab->p", grad, grad)
    return trace_rhs, inner_rhs - 2.0 * grad_sq, grad_sq


def _measured_grad_sq(g, ginv, shat, h):
    """|grad S|^2 per node, flattened, by covariant differencing of the
    coordinate components; g is differenced once on the whole grid, for the
    Christoffel symbols and d Shat = -d g, and contracted in node blocks."""
    n = g.shape[0]
    # dg[i, j, k] -> the view dg[k, i, j]
    dg = torus.centered_diffs(g.reshape((n * n,) + g.shape[2:]), h).reshape(n, n, n, -1)
    return torus.per_node(_covariant_grad_sq, np.moveaxis(dg, 2, 0),
                          ginv.reshape(n, n, -1), shat.reshape(n, n, -1))


def _covariant_grad_sq(dg, ginv, shat):
    """|grad S|^2 on a node block from dg[k, i, j], g^-1 and Shat."""
    gamma = 0.5 * (np.einsum("lm...,kmi...->lki...", ginv, dg)
                   + np.einsum("lm...,imk...->lki...", ginv, dg)
                   - np.einsum("lm...,mki...->lki...", ginv, dg))
    # C order also for a strided dg: covd's layout sets the last einsum's sums
    covd = np.negative(dg, order="C")
    covd -= np.einsum("lki...,lj...->kij...", gamma, shat)
    covd -= np.einsum("lkj...,il...->kij...", gamma, shat)
    return np.einsum("ka...,ib...,jc...,kij...,abc...->...",
                     ginv, ginv, ginv, covd, covd)


def consistency_residuals(state: TorusState, dt: float):
    """Max-norm residuals of the three invariant checks at the state's time.

    Steps the flow twice to center a three-point time stencil at t + dt.
    Only the torus backend is supported (flat ambient space).
    """
    if not isinstance(state, TorusState):
        raise ValueError("consistency checks support only the torus backend")
    n, h = state.n, state.h
    mid = torus.step_torus(state, dt)
    # the QR-frame sides first, while no metric fields are held; in node
    # blocks they no longer set the peak memory, _measured_grad_sq does
    trace_rhs, square_rhs, grad_sq_alg = _algebraic_sides(mid)
    u1p, u2p = _invariant_fields(*_metric_fields(state.df)[1:])
    g, ginv, shat = _metric_fields(mid.df)
    u1c, u2c = _invariant_fields(ginv, shat)
    # the third state is not kept, so its cached df is freed at once
    u1n, u2n = _invariant_fields(*_metric_fields(torus.step_torus(mid, dt).df)[1:])
    du1 = (u1n - u1p) / (2.0 * dt)
    du2 = (u2n - u2p) / (2.0 * dt)

    ft = torus.flow_velocity(mid)
    # tangential transport of the graphical parametrization
    b = np.einsum("ai...,a...->i...", mid.df, ft)
    v = np.einsum("ij...,j...->i...", ginv, b)
    sq = np.sqrt(np.linalg.det(np.moveaxis(np.moveaxis(g, 0, -1), 0, -1)))

    def measured(u, du):
        grad = torus.centered_diffs(u[None], h)[0]
        adv = np.einsum("i...,i...->...", v, grad)
        # Laplace-Beltrami in divergence form, (1/sqrt g) d_i (sqrt g g^ij d_j u)
        dw = torus.centered_diffs(sq * np.einsum("ij...,j...->i...", ginv, grad), h)
        lap = sum(dw[i, i] for i in range(n)) / sq
        return du - adv - lap

    res_trace = np.abs(measured(u1c, du1).reshape(-1) - trace_rhs)
    res_square = np.abs(measured(u2c, du2).reshape(-1) - square_rhs)
    res_grad = np.abs(_measured_grad_sq(g, ginv, shat, h) - grad_sq_alg)
    return {
        "evolution_trace": float(res_trace.max()),
        "evolution_square": float(res_square.max()),
        "gradient": float(res_grad.max()),
    }


def convergence_study(resolutions, amplitude, t0):
    """Grid-doubling study of the three residuals from sine initial data,
    with the scenario defaults n = m = 2 and cfl 0.2.

    Runs each resolution to the common time t0, measures the residuals
    there, and returns per-check observed orders log2(res_N / res_2N).
    """
    residuals = {}
    for N in resolutions:
        config = ScenarioConfig(backend="torus", resolution=N, initial="sine",
                                amplitude=amplitude, t_max=t0)
        state = initial_state(config)
        dt = torus.max_step(state, config.cfl)
        while state.t < t0 - 1e-12:
            state = torus.step_torus(state, dt)
        residuals[N] = consistency_residuals(state, dt)
    orders = {key: [float(np.log2(residuals[a][key] / residuals[b][key]))
                    for a, b in zip(resolutions, resolutions[1:])]
              for key in residuals[resolutions[0]]}
    return {"residuals": residuals, "orders": orders}
