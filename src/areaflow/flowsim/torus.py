"""Flat-torus backend: the exact nonparametric graphical flow system

    df^a/dt = g^{ij} d2_{ij} f^a,     g_ij = delta_ij + sum_b d_i f^b d_j f^b,

with periodic centered differences on the lift f = winding @ x + u.
Constant and linear (pure winding) maps are fixed points.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DivergenceError
from ..svcore import PAIR_PRODUCT_GUARD, phi_batch
from .state import CFL_MAX, MonitorRecord, TorusState


def first_derivatives(state: TorusState) -> np.ndarray:
    """df[a, i, ...grid] of the lift (winding + centered residual)."""
    u, h = state.u, state.h
    n, m = state.n, state.m
    df = np.empty((m, n) + u.shape[1:])
    for i in range(n):
        ax = 1 + i
        df[:, i] = (np.roll(u, -1, ax) - np.roll(u, 1, ax)) / (2.0 * h)
        df[:, i] += state.winding[:, i][(slice(None),) + (None,) * n]
    return df


def second_derivatives(state: TorusState) -> np.ndarray:
    """d2f[a, i, j, ...grid] by centered (and cross-centered) differences."""
    u, h = state.u, state.h
    n, m = state.n, state.m
    d2 = np.empty((m, n, n) + u.shape[1:])
    for i in range(n):
        ax = 1 + i
        d2[:, i, i] = (np.roll(u, -1, ax) - 2.0 * u + np.roll(u, 1, ax)) / h**2
        for j in range(i + 1, n):
            ay = 1 + j
            cross = (np.roll(np.roll(u, -1, ax), -1, ay)
                     - np.roll(np.roll(u, -1, ax), 1, ay)
                     - np.roll(np.roll(u, 1, ax), -1, ay)
                     + np.roll(np.roll(u, 1, ax), 1, ay)) / (4.0 * h**2)
            d2[:, i, j] = cross
            d2[:, j, i] = cross
    return d2


def induced_metric(df: np.ndarray):
    """(g, g_inv) with g_ij = delta_ij + sum_a df_ai df_aj, grid axes last."""
    n = df.shape[1]
    g = np.einsum("ai...,aj...->ij...", df, df)
    for i in range(n):
        g[i, i] += 1.0
    if n == 2:
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        inv = np.empty_like(g)
        inv[0, 0] = g[1, 1] / det
        inv[1, 1] = g[0, 0] / det
        inv[0, 1] = inv[1, 0] = -g[0, 1] / det
        return g, inv
    gm = np.moveaxis(np.moveaxis(g, 0, -1), 0, -1)
    inv = np.linalg.inv(gm)
    return g, np.moveaxis(np.moveaxis(inv, -1, 0), -1, 0)


def flow_velocity(state: TorusState) -> np.ndarray:
    """g^{ij} d2_{ij} f^a for every component and node."""
    _, ginv = induced_metric(state.df)
    return np.einsum("ij...,aij...->a...", ginv, second_derivatives(state))


def max_step(state: TorusState, cfl: float) -> float:
    return cfl * state.h**2 / state.n


def step_torus(state: TorusState, dt: float, cfl: float = CFL_MAX) -> TorusState:
    """One explicit Euler step; dt must respect dt <= cfl h^2 / n, cfl <= 0.25."""
    if not 0 < cfl <= CFL_MAX:
        raise ConfigurationError(f"cfl must lie in (0, {CFL_MAX}]")
    if dt > max_step(state, cfl) * (1 + 1e-12):
        raise ConfigurationError(
            f"dt = {dt:g} violates dt <= cfl h^2 / n = {max_step(state, cfl):g}")
    u_new = state.u + dt * flow_velocity(state)
    if not np.all(np.isfinite(u_new)):
        raise DivergenceError("non-finite values in torus flow",
                              last_record=torus_monitors(state))
    return TorusState(n=state.n, m=state.m, resolution=state.resolution,
                      winding=state.winding, u=u_new,
                      t=state.t + dt, steps=state.steps + 1)


def _node_matrices(df: np.ndarray) -> np.ndarray:
    """(P, m, n) stack of per-node differentials."""
    m, n = df.shape[:2]
    return df.reshape(m, n, -1).transpose(2, 0, 1)


def pointwise_phi_stats(df: np.ndarray):
    """(min_phi, max_pair, max_lambda, flagged) over all nodes.

    For n = m = 2 the invariants T = |df|_F^2 and D = det df give the
    closed forms (l1 l2)^2 = D^2 and (1+l1^2)(1+l2^2) = 1 + T + D^2, so
    Phi = log(1 - D^2) - log(1 + T + D^2) without per-node factorizations.
    """
    m, n = df.shape[:2]
    if (m, n) == (2, 2):
        T = np.einsum("ai...,ai...->...", df, df)
        D = df[0, 0] * df[1, 1] - df[0, 1] * df[1, 0]
        D2 = D * D
        disc = np.sqrt(np.maximum(T * T - 4.0 * D2, 0.0))
        max_lam = np.sqrt((T + disc) / 2.0)
        flagged = D2 >= 1.0 - PAIR_PRODUCT_GUARD
        with np.errstate(invalid="ignore", divide="ignore"):
            phi = np.log1p(-D2) - np.log1p(T + D2)
        min_phi = float("nan") if flagged.any() else float(phi.min())
        return min_phi, float(np.sqrt(D2.max())), float(max_lam.max()), bool(flagged.any())
    mats = _node_matrices(df)
    sv = np.linalg.svd(mats, compute_uv=False)   # (P, min(m, n)) descending
    lam = np.zeros((sv.shape[0], n))
    lam[:, :sv.shape[1]] = sv
    pair = lam[:, 0] * lam[:, 1] if n >= 2 else np.zeros(sv.shape[0])
    flagged = bool((pair**2 >= 1.0 - PAIR_PRODUCT_GUARD).any())
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = phi_batch(lam)
    min_phi = float("nan") if flagged else float(phi.min())
    return min_phi, float(pair.max()), float(lam.max()), flagged


def graph_frames(df: np.ndarray, d2: np.ndarray):
    """Orthonormal adapted frames and frame components per node.

    Returns a dict with the tangent and normal frames E, N, the change of
    frame M (E_a = T M_a for the coordinate tangents T), the restriction
    blocks S_T (tangent-tangent), S_N (normal-normal), S_X (normal-tangent)
    of the ambient split tensor diag(I_n, -I_m), and the frame components
    h[alpha, a, b] of the second fundamental form.
    """
    m, n = df.shape[:2]
    P = int(np.prod(df.shape[2:]))
    T = np.zeros((P, n + m, n))
    for i in range(n):
        T[:, i, i] = 1.0
    T[:, n:, :] = df.reshape(m, n, -1).transpose(2, 0, 1)
    E, _ = np.linalg.qr(T)
    V = np.zeros((P, n + m, m))
    for a in range(m):
        V[:, n + a, a] = 1.0
    V = V - E @ (np.swapaxes(E, 1, 2) @ V)
    N, _ = np.linalg.qr(V)
    D = np.concatenate([np.ones(n), -np.ones(m)])
    ET = np.swapaxes(E, 1, 2)
    NT = np.swapaxes(N, 1, 2)
    S_T = ET @ (D[:, None] * E)
    S_N = NT @ (D[:, None] * N)
    S_X = NT @ (D[:, None] * E)
    # change of frame: E_a = T M_a with M = (T^T T)^{-1} T^T E
    G = np.swapaxes(T, 1, 2) @ T
    M = np.linalg.solve(G, np.swapaxes(T, 1, 2) @ E)
    F = np.zeros((P, n + m, n, n))
    F[:, n:, :, :] = d2.reshape(m, n, n, -1).transpose(3, 0, 1, 2)
    h_coord = np.einsum("pca,pcij->paij", N, F)
    h_frame = np.einsum("pia,pjb,pxij->pxab", M, M, h_coord)
    return {"E": E, "N": N, "S_T": S_T, "S_N": S_N, "S_X": S_X, "h": h_frame, "M": M}


def torus_monitors(state: TorusState) -> MonitorRecord:
    """Phi stats and sup |A|^2, the latter from the frame components h."""
    min_phi, max_pair, max_lam, flagged = pointwise_phi_stats(state.df)
    h = graph_frames(state.df, second_derivatives(state))["h"]
    sup_a2 = float(np.einsum("pxab,pxab->p", h, h).max())
    return MonitorRecord(t=state.t, min_phi=min_phi, max_two_dilation=max_pair,
                         max_lambda=max_lam, sup_a2=sup_a2, flagged=flagged)
