"""Flat-torus backend: the exact nonparametric graphical flow system

    df^a/dt = g^{ij} d2_{ij} f^a,     g_ij = delta_ij + sum_b d_i f^b d_j f^b,

with periodic centered differences on the lift f = winding @ x + u (grid and
initial data: `initial`).  Constant and linear (pure winding) maps are fixed points.

Each state holds its residual once with a periodic ghost layer (`padded`),
flattened into one run from its first node to its last (`_run`).  Every
stencil term is one contiguous slice of that run, and df, d2 f, the step
and the light monitor do their per-node algebra on run-shaped arrays; the
ghost positions inside a run hold finite values, and reductions read the
node view (`_nodes`).  The per-node algebra of the cadence |A|^2 and of
criterion 11's QR frames runs in slices of `NODE_BLOCK` nodes (`per_node`),
so no (P, ...) stack of the whole grid is held.  All of it is per node, so
the values are those of the whole-grid np.roll formulas, bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError, DivergenceError
from ..svcore import pair_flags, pair_index, phi_batch
from .state import CFL_MAX, MonitorRecord, ScenarioConfig, TorusState

# nodes per slice of the per-node algebra: 1024, 2048 and 4096 give the same
# peak RSS on the torus_refine work; 4096 raises the cadence monitor's traced
# peak at 128^2 (2.10 against 1.64 MiB)
NODE_BLOCK = 2048


def per_node(fn, *fields):
    """fn on consecutive slices of NODE_BLOCK nodes (the last may be shorter)
    of fields with the flattened node axis last, its results joined along
    that axis; a tuple result becomes the rows of one array."""
    count = fields[0].shape[-1]
    return np.concatenate([fn(*(f[..., start:start + NODE_BLOCK] for f in fields))
                           for start in range(0, count, NODE_BLOCK)], axis=-1)


@lru_cache(maxsize=None)
def _run(resolution: int, n: int):
    """(strides, start, size) of the run of a flattened ghost-padded grid:
    node x sits at start + sum_k x_k strides[k]; size spans first to last."""
    strides = tuple((resolution + 2) ** (n - 1 - k) for k in range(n))
    return strides, sum(strides), (resolution - 1) * sum(strides) + 1


def _shift(flat: np.ndarray, run, offset: int = 0) -> np.ndarray:
    """The run of flat (..., (N + 2)^n) at the nodes x + shift, offset =
    sum_k shift_k strides[k]: one contiguous slice per row."""
    return flat[..., run[1] + offset:run[1] + run[2] + offset]


def _nodes(x: np.ndarray, resolution: int, n: int) -> np.ndarray:
    """The (..., N, ..., N) node view of a C-contiguous run-shaped (..., S)
    array x, which is the view's base."""
    return np.ndarray(x.shape[:-1] + (resolution,) * n, x.dtype, x, 0, x.strides[:-1]
                      + tuple(s * x.itemsize for s in _run(resolution, n)[0]))


def ghost_padded(u: np.ndarray) -> np.ndarray:
    """u (components, N, ..., N) with one periodic ghost layer on each grid
    axis, a state's `padded` residual.  The ghosts are copied by slice
    assignment, one axis after the other over the full extent of the axes
    already padded, so the corners the cross differences read are filled
    too: every ghost is a copy of a node."""
    p = np.empty(u.shape[:1] + tuple(s + 2 for s in u.shape[1:]))
    p[(slice(None),) + (slice(1, -1),) * (u.ndim - 1)] = u
    for i in range(u.ndim - 1):
        lead = (slice(None),) * (1 + i)
        p[lead + (0,)] = p[lead + (-2,)]
        p[lead + (-1,)] = p[lead + (1,)]
    return p


def _first_differences(p: np.ndarray, h: float) -> np.ndarray:
    """(k, n, S) runs of (f^a(x + e_k) - f^a(x - e_k)) / 2h for the
    ghost-padded (k, N + 2, ...) field p."""
    run = _run(p.shape[1] - 2, p.ndim - 1)
    flat = p.reshape(p.shape[0], -1)
    d = np.empty((p.shape[0], p.ndim - 1, run[2]))
    for k, s in enumerate(run[0]):
        np.subtract(_shift(flat, run, s), _shift(flat, run, -s), out=d[:, k])
        d[:, k] /= 2.0 * h
    return d


def centered_diffs(field: np.ndarray, h: float) -> np.ndarray:
    """d[a, k, ...grid] = (f^a(x + e_k) - f^a(x - e_k)) / 2h along each grid
    axis k of a periodic (components, ...grid) field f: the values of
    (np.roll(f, -1, 1 + k) - np.roll(f, 1, 1 + k)) / 2h, as a node view."""
    return _nodes(_first_differences(ghost_padded(field), h), field.shape[1], field.ndim - 1)


def first_derivatives(state: TorusState) -> np.ndarray:
    """df[a, i, ...grid] of the lift (winding + centered residual): the node
    view of its (m, n, S) run, df.base."""
    d = _first_differences(state.padded, state.h)
    d += state.winding[..., None]
    return _nodes(d, state.resolution, state.n)


def _second_differences(state: TorusState) -> dict:
    """{(i, j): the (m, S) run of d2_ij f} for i <= j.  Each is allocated
    when formed: one block for all, or a temporary for 2f, made the
    allocator fault fresh pages in at every step on a 128^2 grid."""
    h, run = state.h, _run(state.resolution, state.n)
    s, flat = run[0], state.padded.reshape(state.m, -1)
    at = lambda offset=0: _shift(flat, run, offset)
    d2 = {}
    # in-place updates in the order of (f+ - 2f + f-) / h^2 and
    # (f++ - f+- - f-+ + f--) / (4 h^2): the same roundings, no temporaries
    for i in range(state.n):
        d = d2[i, i] = np.multiply(at(), 2.0)
        np.subtract(at(s[i]), d, out=d)
        d += at(-s[i])
        d /= h**2
        for j in range(i + 1, state.n):
            d = d2[i, j] = np.subtract(at(s[i] + s[j]), at(s[i] - s[j]))
            d -= at(s[j] - s[i])
            d += at(-s[i] - s[j])
            d /= 4.0 * h**2
    return d2


def second_derivatives(state: TorusState) -> np.ndarray:
    """d2f[a, i, j, ...grid] by centered (and cross-centered) differences:
    the node view of its (m, n, n, S) runs."""
    d2 = np.empty((state.m, state.n, state.n, _run(state.resolution, state.n)[2]))
    for (i, j), d in _second_differences(state).items():
        d2[:, i, j] = d2[:, j, i] = d
    return _nodes(d2, state.resolution, state.n)


def _inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric (k, k, ...grid) field: closed form for k = 2,
    a batched inverse otherwise."""
    if g.shape[0] == 2:
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        inv = np.empty_like(g)
        inv[0, 0] = g[1, 1] / det
        inv[1, 1] = g[0, 0] / det
        inv[0, 1] = inv[1, 0] = -g[0, 1] / det
        return inv
    gm = np.moveaxis(np.moveaxis(g, 0, -1), 0, -1)
    inv = np.linalg.inv(gm)
    return np.moveaxis(np.moveaxis(inv, -1, 0), -1, 0)


def induced_metric(df: np.ndarray):
    """(g, g_inv) with g_ij = delta_ij + sum_a df_ai df_aj, grid axes last."""
    n = df.shape[1]
    g = np.einsum("ai...,aj...->ij...", df, df)
    for i in range(n):
        g[i, i] += 1.0
    return g, _inverse(g)


def flow_velocity(state: TorusState) -> np.ndarray:
    """g^{ij} d2_{ij} f^a for every component and node: the node view of
    its (m, S) run.

    For n = 2 this is (g_11 f_xx - 2 g_01 f_xy + g_00 f_yy) / det g, read
    from the metric entries without forming g^{-1} or the d2 stack.
    """
    df = state.df.base
    if state.n == 2:
        x, y = df[:, 0], df[:, 1]
        g00, g11, g01 = x[0] * x[0], y[0] * y[0], x[0] * y[0]
        for a in range(1, state.m):
            g00 += x[a] * x[a]
            g11 += y[a] * y[a]
            g01 += x[a] * y[a]
        g00 += 1.0
        g11 += 1.0
        # the difference arrays are this call's own, so they are scaled in
        # place (products commute bitwise: the roundings of the formula)
        d2 = _second_differences(state)
        v = d2[0, 0]
        v *= g11
        d2[0, 1] *= 2.0 * g01
        v -= d2[0, 1]
        d2[1, 1] *= g00
        v += d2[1, 1]
        # det g = g00 g11 - g01^2 in g11's array: a fresh array for it made
        # the allocator fault fresh pages in at every step on a 128^2 grid
        g11 *= g00
        g01 *= g01
        g11 -= g01
        v /= g11
    else:
        _, ginv = induced_metric(df)
        v = np.einsum("ij...,aij...->a...", ginv, second_derivatives(state).base)
    return _nodes(v, state.resolution, state.n)


def initial(config: ScenarioConfig) -> TorusState:
    n, m, N = config.n, config.m, config.resolution
    axes = [np.arange(N) * (2.0 * math.pi / N) for _ in range(n)]
    grid = np.meshgrid(*axes, indexing="ij")
    u = np.zeros((m,) + (N,) * n)
    winding = np.zeros((m, n))
    if config.initial == "sine":
        # f^a = amplitude * sin(x^a) on the shared axes
        for a in range(m):
            u[a] = config.amplitude * np.sin(grid[a % n])
    elif config.initial == "linear":
        # lift f = amplitude * x; pure winding, zero residual
        for a in range(min(m, n)):
            winding[a, a] = config.amplitude
    elif config.initial == "constant":
        pass
    else:
        raise ConfigurationError(f"unknown torus initial data {config.initial!r}")
    return TorusState(n=n, m=m, resolution=N, winding=winding, u=u)


def max_step(state: TorusState, cfl: float) -> float:
    return cfl * state.h**2 / state.n


def step_torus(state: TorusState, dt: float, cfl: float = CFL_MAX) -> TorusState:
    """One explicit Euler step; dt must respect dt <= cfl h^2 / n, cfl <= 0.25.
    The divergence check reads the next padded residual, whose ghosts are
    copies of nodes."""
    if not 0 < cfl <= CFL_MAX:
        raise ConfigurationError(f"cfl must lie in (0, {CFL_MAX}]")
    if dt > max_step(state, cfl) * (1 + 1e-12):
        raise ConfigurationError(
            f"dt = {dt:g} violates dt <= cfl h^2 / n = {max_step(state, cfl):g}")
    v = flow_velocity(state).base
    v *= dt
    v += _shift(state.padded.reshape(state.m, -1), _run(state.resolution, state.n))
    p = ghost_padded(_nodes(v, state.resolution, state.n))
    if not np.all(np.isfinite(p)):
        raise DivergenceError("non-finite values in torus flow")
    out = TorusState(n=state.n, m=state.m, resolution=state.resolution, winding=state.winding,
                     u=p[(slice(None),) + (slice(1, -1),) * state.n],
                     t=state.t + dt, steps=state.steps + 1)
    vars(out)["padded"] = p   # its derived field, formed here
    return out


def _node_matrices(df: np.ndarray) -> np.ndarray:
    """(P, m, n) stack of per-node differentials."""
    m, n = df.shape[:2]
    return df.reshape(m, n, -1).transpose(2, 0, 1)


def _norm2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sqrt(x^2 + y^2), overwriting the temporaries x and y."""
    x *= x
    y *= y
    x += y
    return np.sqrt(x, out=x)


# l1^2 >= T/2 settles a stop test where sqrt(max T / 2) clears lambda_stop by
# this factor, far above the roundings between it and the exact route, and
# max T lies far above the subnormal range, where those roundings are relative
STOP_BOUND_MARGIN = 1.0 + 1e-9
STOP_BOUND_T_MIN = 2.0**-900


def pointwise_phi_stats(df, lambda_stop=None):
    """(min_phi, max_pair, max_lambda, flagged) of df, an (m, n, ...grid) field or a
    `TorusState`; max_lambda is the bound below where it settles >= lambda_stop.

    For min(m, n) = 2 the spectrum is (l1, l2, 0, ..., 0), and the
    invariants T = |df|_F^2 and D^2 = (l1 l2)^2, the sum of the squared 2x2
    minors (Cauchy-Binet), give (1+l1^2)(1+l2^2) = 1 + T + D^2.  Each of the
    n - 2 zero values pairs with l1 and with l2 for -log(1+l1^2) -
    log(1+l2^2), so Phi = log(1 - D^2) - (n - 1) log(1 + T + D^2), without
    per-node factorizations.  The largest singular value of a square
    [[a, b], [c, d]] is read as (|(a + d, c - b)| + |(a - d, b + c)|) / 2, a
    sum of two norms that keeps its digits where l1 ~ l2
    (sqrt((T + sqrt(T^2 - 4 D^2)) / 2) cancels there); otherwise l1^2 is
    the top eigenvalue of the 2x2 Gram matrix [[p, q], [q, s]] of the short
    side, T/2 + |((p - s)/2, q)|, a sum of non-negative terms.  Both exceed
    T/2, which settles a stop test where it can.  The norms are
    sqrt(x^2 + y^2), not np.hypot, which is several times slower and needs
    no overflow guard at these magnitudes.  Rounding x^2 is monotone in
    x >= 0, so the guard flags the largest D^2 iff it flags any; a NaN D^2
    hides the largest and sends the guard to every node.  Spectra with
    three or more values, or one, come from LAPACK's singular values.
    """
    nodes = lambda x: x
    if isinstance(df, TorusState):
        state, df = df, df.df
        if min(state.m, state.n) == 2:
            df = df.base
            nodes = lambda x: _nodes(x, state.resolution, state.n)
    m, n = df.shape[:2]
    if min(m, n) == 2:
        # in-place updates in the order of the closed forms (same roundings,
        # fewer fresh temporaries, which dominate the cost on large grids)
        T = np.einsum("ai...,ai...->...", df, df)
        D2 = None
        for a, b in pair_index(m):
            for i, j in pair_index(n):
                minor = df[a, i] * df[b, j]
                minor -= df[a, j] * df[b, i]
                minor *= minor
                D2 = minor if D2 is None else np.add(D2, minor, out=D2)
        top = nodes(D2).max()
        flagged = bool(pair_flags(top) if top == top else pair_flags(nodes(D2)).any())
        t_max = math.nan if lambda_stop is None else float(nodes(T).max())
        if STOP_BOUND_T_MIN <= t_max < math.inf \
                and math.sqrt(t_max / 2.0) > lambda_stop * STOP_BOUND_MARGIN:
            max_lam = math.sqrt(t_max / 2.0)
        elif m == n:
            a, b, c, d = df[0, 0], df[0, 1], df[1, 0], df[1, 1]
            two_lam = _norm2(a + d, c - b)
            two_lam += _norm2(a - d, b + c)
            max_lam = float(nodes(two_lam).max()) / 2.0
        else:
            short = df if m == 2 else df.swapaxes(0, 1)
            g = np.einsum("ai...,bi...->ab...", short, short)
            lam_sq = _norm2((g[0, 0] - g[1, 1]) / 2.0, g[0, 1])
            lam_sq += T / 2.0
            max_lam = float(np.sqrt(nodes(lam_sq).max()))
        with np.errstate(invalid="ignore", divide="ignore"):
            phi = np.log1p(-D2)
            T += D2
            log_den = np.log1p(T)
            if n > 2:
                log_den *= n - 1
            phi -= log_den
        min_phi = math.nan if flagged else float(nodes(phi).min())
        return min_phi, float(np.sqrt(top)), max_lam, flagged
    mats = _node_matrices(df)
    sv = np.linalg.svd(mats, compute_uv=False)   # (P, min(m, n)) descending
    lam = np.zeros((sv.shape[0], n))
    lam[:, :sv.shape[1]] = sv
    pair = lam[:, 0] * lam[:, 1] if n >= 2 else np.zeros(sv.shape[0])
    flagged = bool(pair_flags(pair**2).any())
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = phi_batch(lam)
    min_phi = float("nan") if flagged else float(phi.min())
    return min_phi, float(pair.max()), float(lam.max()), flagged


def graph_frames(df: np.ndarray, d2: np.ndarray):
    """Orthonormal adapted frames and frame components per node.

    Returns a dict with the restriction blocks S_T (tangent-tangent), S_N
    (normal-normal) and S_X (normal-tangent) of the ambient split tensor
    diag(I_n, -I_m) in orthonormal tangent and normal frames (QR of the
    coordinate tangents and of the projected coordinate normals), and the
    frame components h[alpha, a, b] of the second fundamental form, as
    (P, ...) stacks over the P nodes of any trailing node shape.  Serves
    `consistency`, which calls it on node blocks, and is the QR-frame oracle
    for `second_fundamental_sq`.
    """
    m, n = df.shape[:2]
    P = int(np.prod(df.shape[2:]))
    T = np.zeros((P, n + m, n))
    for i in range(n):
        T[:, i, i] = 1.0
    T[:, n:, :] = _node_matrices(df)
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
    return {"S_T": S_T, "S_N": S_N, "S_X": S_X, "h": h_frame}


def second_fundamental_sq(df: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """|A|^2 per node, in closed form for a graph, evaluated in node blocks.

    The coordinate normals nu_a = (-d f^a, e_a) have Gram matrix
    I_m + df df^T and <(0, v), nu_a> = v_a, so the normal part of
    (0, f_ij) pairs as <f_ij, (I_m + df df^T)^{-1} f_kl> and
    |A|^2 = g^{ik} g^{jl} <f_ij, (I_m + df df^T)^{-1} f_kl>.
    """
    m, n = df.shape[:2]
    return per_node(_a2_closed_form, df.reshape(m, n, -1),
                    d2.reshape(m, n, n, -1)).reshape(df.shape[2:])


def _a2_closed_form(df: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """The closed form of `second_fundamental_sq` on (m, n, nodes) and
    (m, n, n, nodes) fields."""
    _, ginv = induced_metric(df)
    nm = np.einsum("ai...,bi...->ab...", df, df)
    for a in range(df.shape[0]):
        nm[a, a] += 1.0
    x = np.einsum("ik...,akj...->aij...", ginv, d2)        # g^-1 f_ij per a
    q = np.einsum("aij...,bji...->ab...", x, x)            # tr(x^a x^b)
    return np.einsum("ab...,ab...->...", _inverse(nm), q)


def torus_monitors(state: TorusState) -> MonitorRecord:
    """Phi stats and sup |A|^2, the latter in closed form, on the runs."""
    min_phi, max_pair, max_lam, flagged = pointwise_phi_stats(state)
    a2 = second_fundamental_sq(state.df.base, second_derivatives(state).base)
    sup_a2 = float(_nodes(a2, state.resolution, state.n).max())
    return MonitorRecord(t=state.t, min_phi=min_phi, max_two_dilation=max_pair,
                         max_lambda=max_lam, sup_a2=sup_a2, flagged=flagged)


# state.BACKENDS' entry: each operation looks its function up here when called
OPERATIONS = {
    "validate": lambda config: None,
    "initial": lambda config: initial(config),
    "time_step": lambda state, config: max_step(state, config.cfl),
    "step": lambda state, dt, config: step_torus(state, dt, config.cfl),
    "light": lambda state, config: pointwise_phi_stats(state, config.lambda_stop),
    "monitor": lambda state: torus_monitors(state),
    "velocity": lambda state: flow_velocity(state),
    "self_check": None,
}
