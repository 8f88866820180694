"""Equivariant sphere-pair backend.

A rotationally symmetric map between unit 2-spheres is the profile rho(r) of
the polar angle; its graph sits in S^2 x S^2 embedded in R^6 as

    X(r, theta) = (cos r, sin r cos th, sin r sin th,
                   cos rho, sin rho cos th, sin rho sin th).

The geometric route (``normal_velocity``, ``second_fundamental_norm_sq``)
takes Euclidean second-derivative vectors of X by finite differences along
the meridian (theta-derivatives are closed-form), minus their components
along the two sphere normals (p, 0) and (0, q), minus the tangential part,
traced with the inverse induced metric diag(1 + rho'^2, sin^2 r + sin^2 rho).
By the reflection symmetry theta -> -theta the mean curvature is parallel to

    nu = (-rho' p_r, q_rho) / sqrt(1 + rho'^2),

so the profile obeys d rho/dt = sqrt(1 + rho'^2) <H, nu>; the component
along the other unit normal mu (the theta-direction combination) is
monitored as a symmetry self-check.  The step reads <H, nu> without the
projections (``profile_velocity``): nu is orthogonal to both sphere normals
and both tangents, so projecting a vector first leaves its inner product
with nu unchanged.

Singular values: lambda_1 = |rho'|, lambda_2 = |sin rho / sin r| with the
pole limit lambda_2 = |rho'| at r in {0, pi}.

The backend owns its grid (``source_side``), initial data and mu self-check.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError, DivergenceError, GraphicalBreakdownError
from ..svcore import pair_flags
from .state import CFL_MAX, EquivariantState, MonitorRecord, ScenarioConfig

RHO_PRIME_BREAKDOWN = 1e3


def second_difference(x: np.ndarray, h: float) -> np.ndarray:
    """Centred second differences along the last axis, in x's shape, with 0
    at the ends of each row.  The rows are differenced as one contiguous
    run; the differences that straddle two rows land on row ends."""
    d = np.empty(x.shape)
    flat, run = x.reshape(-1), d.reshape(-1)[1:-1]
    np.multiply(flat[1:-1], 2.0, out=run)
    np.subtract(flat[2:], run, out=run)
    run += flat[:-2]
    run /= h**2
    d[..., 0] = d[..., -1] = 0.0
    return d


@lru_cache(maxsize=None)
def source_side(resolution: int) -> dict:
    """The grid: nodes r_j = j pi / J, (cos r, sin r) as two rows and their
    second differences, the mask sin r > 1e-12, sin r and sin^2 r with 1 at
    the poles, and the factors of rho' in the velocity as the rows it
    multiplies them by in turn: (sin r, cos r, sin r), then (cos_rr r,
    sin_rr r, cos r).  One read-only set per resolution J, shared by all."""
    r = np.linspace(0.0, math.pi, resolution + 1)
    trig = np.array((np.cos(r), np.sin(r)))
    (cr, sr), trig_rr = trig, second_difference(trig, math.pi / resolution)
    off_pole = sr > 1e-12
    safe_sin = np.where(off_pole, sr, 1.0)
    side = dict(r=r, trig=trig, trig_rr=trig_rr, off_pole=off_pole, safe_sin=safe_sin,
                sin_sq=safe_sin**2, p_by=np.array((sr, cr, sr)),
                p_then=np.array((*trig_rr, cr)))
    for a in side.values():
        a.flags.writeable = False
    return side


def check_config(config: ScenarioConfig):
    if (config.n, config.m) != (2, 2):
        raise ConfigurationError("equivariant backend is the sphere pair n = m = 2")


def initial(config: ScenarioConfig) -> EquivariantState:
    """Initial profile on the grid nodes: amplitude sin r, r or 0."""
    J = config.resolution
    r = source_side(J)["r"]
    if config.initial == "sine":
        rho = config.amplitude * np.sin(r)
    elif config.initial == "identity":
        rho = r.copy()
    elif config.initial == "zero":
        rho = np.zeros(J + 1)
    else:
        raise ConfigurationError(f"unknown equivariant initial data {config.initial!r}")
    return EquivariantState(resolution=J, rho=rho)


def _extended(state: EquivariantState):
    """Profile with two ghost nodes per pole, by odd reflection about the
    fixed pole values rho(0) = 0 and rho(pi) in {0, pi}."""
    rho = state.rho
    return np.concatenate([-rho[2:0:-1], rho, 2.0 * rho[-1] - rho[-2:-4:-1]])


def profile_derivative(state: EquivariantState) -> np.ndarray:
    """Fourth-order centered rho'.

    Second-order accuracy is not enough here: the theta-trace term carries a
    1/sin(r) amplification at the pole-adjacent nodes, which would degrade
    the velocity operator to first order in the max norm.
    """
    # (-ext[4:] + 8 ext[3:-1] - 8 ext[1:-3] + ext[:-4]) / 12h in place:
    # x8 is exact, and -a + b rounds as b - a
    ext = _extended(state)
    ext8 = 8.0 * ext
    d = ext8[3:-1] - ext[4:]
    d -= ext8[1:-3]
    d += ext[:-4]
    d /= 12.0 * state.h
    return d


def profile_trig(state: EquivariantState) -> np.ndarray:
    """(cos rho, sin rho) as the two rows of one array."""
    trig = np.empty((2, state.rho.size))
    np.cos(state.rho, out=trig[0])
    np.sin(state.rho, out=trig[1])
    return trig


def frame(state: EquivariantState):
    """Per-node frames and projected second-derivative vectors at theta = 0.

    Second derivatives along the meridian are the centred differences of
    the embedding that the step reads, on the interior nodes; tangents are
    assembled from the (fourth-order) profile derivative, which keeps the
    theta-trace term second-order accurate at the pole-adjacent nodes.
    At theta = 0 each vector lies either in the meridian components
    (0, 1, 3, 4) or in the theta components (2, 5), so X_rr and X_tt are
    projected on n1, n2 and t1 only and X_rt on t2 only: the coefficients
    on the other plane's units are exact zeros.
    """
    J = state.resolution
    src, trig, rhop = source_side(J), state.trig, state.rhop
    (cr, sr), (cp, sp) = src["trig"], trig
    g_rr = 1.0 + rhop**2
    g_tt = sr**2 + sp**2
    # pole rows are coordinate-singular (X_rr is 0 there); callers mask them
    safe_tt = np.where(g_tt > 1e-300, g_tt, 1.0)
    X_rr, X_tt, n1, n2, t1, nu, X_rt, t2, mu = np.zeros((9, J + 1, 6))
    X_rr[:, [0, 1, 3, 4]] = np.concatenate(
        (src["trig_rr"], second_difference(trig, state.h))).T
    X_tt[:, 1], X_tt[:, 4] = -sr, -sp
    n1[:, 0], n1[:, 1] = cr, sr
    n2[:, 3], n2[:, 4] = cp, sp
    t1[:, 0], t1[:, 1], t1[:, 3], t1[:, 4] = -sr, cr, -rhop * sp, rhop * cp   # X_r
    nu[:, 0], nu[:, 1], nu[:, 3], nu[:, 4] = rhop * sr, -rhop * cr, -sp, cp
    X_rt[:, 2], X_rt[:, 5] = cr, rhop * cp
    t2[:, 2], t2[:, 5] = sr, sp                                                # X_t
    mu[:, 2], mu[:, 5] = -sp, sr
    for unit, norm_sq in ((t1, g_rr), (nu, g_rr), (t2, safe_tt), (mu, safe_tt)):
        unit /= np.sqrt(norm_sq)[:, None]
    for V, units in ((X_rr, (n1, n2, t1)), (X_tt, (n1, n2, t1)), (X_rt, (t2,))):
        for unit in units:
            V -= np.einsum("ij,ij->i", V, unit)[:, None] * unit
    return {"g_rr": g_rr, "g_tt": g_tt, "II_rr": X_rr,
            "II_tt": X_tt, "II_rt": X_rt, "nu": nu, "mu": mu}


def normal_velocity(state: EquivariantState):
    """(<H, nu>, <H, mu>, |H|) at every node (poles zeroed)."""
    geo = state.frame
    inner = slice(1, -1)
    H = np.zeros((state.resolution + 1, 6))
    H[inner] = (geo["II_rr"][inner] / geo["g_rr"][inner, None]
                + geo["II_tt"][inner] / geo["g_tt"][inner, None])
    h_nu = np.einsum("ij,ij->i", H, geo["nu"])
    h_mu = np.einsum("ij,ij->i", H, geo["mu"])
    h_norm = np.linalg.norm(H, axis=-1)
    h_nu[0] = h_nu[-1] = 0.0
    h_mu[0] = h_mu[-1] = 0.0
    return h_nu, h_mu, h_norm


def mu_orthogonality(state: EquivariantState) -> float:
    """Largest |<H, mu>| / |H| on the interior nodes, taken with each record."""
    _, h_mu, h_norm = normal_velocity(state)
    floor = 1e-12 + 1e-9 * state.h**2
    return float((np.abs(h_mu[1:-1]) / (np.abs(h_norm[1:-1]) + floor)).max())


def profile_velocity(state: EquivariantState) -> np.ndarray:
    """d rho / dt = sqrt(1 + rho'^2) <H, nu>, zero at the poles.

    With n = sqrt(1 + rho'^2) nu = (rho' sin r, -rho' cos r, 0, -sin rho,
    cos rho, 0) this is <X_rr, n> / g_rr + <X_tt, n> / g_tt: nu is
    orthogonal to the sphere normals and the tangents, so the projections of
    the geometric route drop out.  X_rr is the same centered second
    difference of the embedding, on its four nonzero components; the X_tt
    term is the closed form's
    (rho' sin r cos r - sin rho cos rho) / (sin^2 r + sin^2 rho).
    """
    src, trig, p = source_side(state.resolution), state.trig, state.rhop
    # ((p sr) cr_rr - (p cr) sr_rr - sp cp_rr + cp sp_rr) / (1 + p^2)
    #   + ((p sr) cr - sp cp) / (sin^2 r + sp^2) in this order at each node,
    # products stacked by rows; the poles' finite placeholders are zeroed
    a = p * src["p_by"]
    a *= src["p_then"]                                  # (p sr) cr_rr, (p cr) sr_rr, (p sr) cr
    b = trig[::-1] * second_difference(trig, state.h)   # sp cp_rr, cp sp_rr
    c = trig[1] * trig                                  # sp cp, sp^2
    v = a[0] - a[1]
    v -= b[0]
    v += b[1]
    v /= 1.0 + p * p
    c[1] += src["sin_sq"]
    a[2] -= c[0]
    a[2] /= c[1]
    v += a[2]
    v[0] = v[-1] = 0.0
    return v


def closed_form_velocity(state: EquivariantState, rhop=None, rhopp=None) -> np.ndarray:
    """Analytic profile velocity for smooth profiles (oracle for the
    finite-difference route):

        rho'' / (1 + rho'^2)
        + (rho' sin r cos r - sin rho cos rho) / (sin^2 r + sin^2 rho).

    Derivatives default to grid differences; callers with analytic profiles
    can pass exact arrays to isolate the geometric pipeline's truncation
    error.  Poles return zero.
    """
    rhop = state.rhop if rhop is None else rhop
    rhopp = second_difference(_extended(state), state.h)[2:-2] if rhopp is None else rhopp
    (cr, sr), (cp, sp) = source_side(state.resolution)["trig"], state.trig
    out = np.zeros_like(state.rho)
    inner = slice(1, -1)
    out[inner] = (rhopp[inner] / (1.0 + rhop[inner] ** 2)
                  + (rhop * sr * cr - sp * cp)[inner] / (sr**2 + sp**2)[inner])
    return out


def max_step(state: EquivariantState, cfl: float) -> float:
    return cfl * state.h**2 * float(np.minimum.reduce(1.0 + state.rhop**2))


def step_equivariant(state: EquivariantState, dt: float,
                     cfl: float = CFL_MAX) -> EquivariantState:
    """One explicit Euler step of the profile flow; the CFL budget folds in
    the meridian metric coefficient 1/(1 + rho'^2)."""
    if not 0 < cfl <= CFL_MAX:
        raise ConfigurationError(f"cfl must lie in (0, {CFL_MAX}]")
    if np.maximum.reduce(state.abs_rhop) > RHO_PRIME_BREAKDOWN:
        raise GraphicalBreakdownError("profile derivative blow-up")
    # max_step >= cfl h^2 (1 + rho'^2 >= 1, rounding is monotone), so its
    # reduction is taken only for a dt above that floor
    if dt > cfl * state.h**2 * (1 + 1e-12) and dt > max_step(state, cfl) * (1 + 1e-12):
        raise ConfigurationError(
            f"dt = {dt:g} violates the equivariant CFL bound {max_step(state, cfl):g}")
    rho_new = profile_velocity(state)     # rho + dt v in the velocity's buffer
    rho_new *= dt
    rho_new += state.rho
    if not np.logical_and.reduce(np.isfinite(rho_new)):
        raise DivergenceError("non-finite values in equivariant flow")
    return EquivariantState(resolution=state.resolution, rho=rho_new,
                            t=state.t + dt, steps=state.steps + 1)


def profile_spectrum(state: EquivariantState):
    """(lambda_1, lambda_2) fields: |rho'| and |sin rho / sin r| with the
    analytic pole limit lambda_2 = |rho'|."""
    lam1 = state.abs_rhop
    src = source_side(state.resolution)
    lam2 = np.where(src["off_pole"], np.abs(state.trig[1] / src["safe_sin"]), lam1)
    return lam1, lam2


def pointwise_phi_stats(lam1, lam2):
    """(min_phi, max_pair, max_lambda, flagged) of the (lambda_1, lambda_2)
    fields (lam1, lam2 >= 0); min_phi is formed only unflagged, where every
    log1p is finite.

    The pair product enters as (l1 l2)^2, not l1^2 l2^2: the two round
    differently in the last bit, and the flow outputs are pinned to this
    form.  Rounding x^2 is monotone in x >= 0, so the guard flags the
    largest pair iff it flags any; a NaN pair, which flags nothing but
    hides the largest, sends the guard to every node.
    """
    pair = lam1 * lam2
    top = np.maximum.reduce(pair)
    pair_sq = pair**2
    flagged = bool(pair_flags(top * top) if top == top
                   else np.logical_or.reduce(pair_flags(pair_sq)))
    min_phi = float("nan") if flagged else float(np.minimum.reduce(
        np.log1p(-pair_sq) - np.log1p(lam1**2) - np.log1p(lam2**2)))
    lam_max = max(np.maximum.reduce(lam1), np.maximum.reduce(lam2))
    return min_phi, float(top), float(lam_max), flagged


def second_fundamental_norm_sq(state: EquivariantState) -> np.ndarray:
    """|A|^2 on interior nodes (poles excluded) from the projected
    second-derivative vectors."""
    geo = state.frame
    inner = slice(1, -1)
    a_rr = np.einsum("ij,ij->i", geo["II_rr"], geo["II_rr"])[inner]
    a_tt = np.einsum("ij,ij->i", geo["II_tt"], geo["II_tt"])[inner]
    a_rt = np.einsum("ij,ij->i", geo["II_rt"], geo["II_rt"])[inner]
    grr = geo["g_rr"][inner]
    gtt = geo["g_tt"][inner]
    return a_rr / grr**2 + 2.0 * a_rt / (grr * gtt) + a_tt / gtt**2


def equivariant_monitors(state: EquivariantState) -> MonitorRecord:
    min_phi, max_pair, max_lam, flagged = pointwise_phi_stats(*profile_spectrum(state))
    sup_a2 = float(second_fundamental_norm_sq(state).max())
    return MonitorRecord(t=state.t, min_phi=min_phi, max_two_dilation=max_pair,
                         max_lambda=max_lam, sup_a2=sup_a2, flagged=flagged)


# state.BACKENDS' entry: each operation looks its function up here when called
OPERATIONS = {
    "validate": lambda config: check_config(config),
    "initial": lambda config: initial(config),
    "time_step": lambda state, config: config.cfl * state.h**2,
    "step": lambda state, dt, config: step_equivariant(state, dt, config.cfl),
    "light": lambda state, config: pointwise_phi_stats(*profile_spectrum(state)),
    "monitor": lambda state: equivariant_monitors(state),
    "velocity": lambda state: profile_velocity(state),
    "self_check": ("mu_orthogonality_max_rel", lambda state: mu_orthogonality(state)),
}
