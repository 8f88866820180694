"""Reference evaluation of the algebraic identities and inequalities obeyed
by the evolution of log det S^[2] along graphical mean curvature flow.

Spectra, second-fundamental-form coefficients and sectional-curvature arrays
enter as free variables subject only to the hypotheses of each statement; no
attempt is made to certify that a sample is realized by an actual manifold
(a deliberate over-approximation: the statements are algebraic in these
variables).

Every statement takes m <= n, as the paper does: `HCoefficients` and
`CurvatureSample` refuse m > n, so normal direction a has restriction
value S_aa.

Everything here is scalar, loop-based and dtype-agnostic: feeding
`fractions.Fraction` entries evaluates the rational identities exactly.  The
vectorized float campaigns live in `campaigns`; both routes are cross-checked
against each other in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError, NotAreaDecreasingError
from .svcore import pair_flags, pair_index


@dataclass(frozen=True)
class SRestriction:
    """Diagonal values of the restricted tensor in the SVD frame:
    S_ii = (1 - l_i^2)/(1 + l_i^2) and C_ii = 2 l_i/(1 + l_i^2).

    The area-decreasing guard runs once, here, in the dtype of lam: _flagged
    is the first pair (i, j, l_i l_j) that pair_flags((l_i l_j)^2) flags, or
    None."""

    s: np.ndarray
    c: np.ndarray
    lam: np.ndarray
    _flagged: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam, flagged = self.lam, None
        for i, j in pair_index(len(lam)):
            prod = lam[i] * lam[j]
            if pair_flags(prod * prod):
                flagged = i, j, prod
                break
        object.__setattr__(self, "_flagged", flagged)


@dataclass(frozen=True)
class HCoefficients:
    """Second-fundamental-form coefficients h[alpha, k, i], symmetric in
    (k, i); alpha indexes the m <= n normal directions matched to the
    target."""

    h: object  # (m, n, n) array; may hold Fractions

    def __post_init__(self):
        h = np.asarray(self.h)
        if h.ndim != 3 or h.shape[1] != h.shape[2]:
            raise ValueError("h must have shape (m, n, n)")
        if h.shape[0] > h.shape[1]:
            raise ValueError("h must have m <= n normal directions")
        if h.dtype != object and not np.allclose(h, h.transpose(0, 2, 1), atol=1e-12):
            raise ValueError("h must be symmetric in its last two indices")
        object.__setattr__(self, "h", h)

    @property
    def m(self):
        return self.h.shape[0]

    @property
    def n(self):
        return self.h.shape[1]

    def norm_sq(self):
        """|A|^2, the full squared norm of the second fundamental form."""
        return sum(self.h[a, k, i] ** 2
                   for a in range(self.m) for k in range(self.n) for i in range(self.n))


@dataclass(frozen=True)
class CurvatureSample:
    """Sectional curvatures of the two factors in the SVD frame.

    sec1 is n x n (domain), sec2 is m x m with m <= n (target); both
    symmetric with zero diagonal.  Entries of sec2 beyond the stored block
    count as zero.  Ricci diagonals are row sums.
    """

    n: int
    m: int
    sec1: object
    sec2: object

    def __post_init__(self):
        sec1 = np.asarray(self.sec1)
        sec2 = np.asarray(self.sec2)
        if self.m > self.n:
            raise ValueError("need m <= n")
        if sec1.shape != (self.n, self.n):
            raise ValueError("sec1 must be n x n")
        if sec2.shape != (self.m, self.m):
            raise ValueError(f"sec2 must be {self.m} x {self.m}")
        for arr in (sec1, sec2):
            if arr.dtype != object:
                if not np.allclose(arr, arr.T, atol=1e-12):
                    raise ValueError("curvature arrays must be symmetric")
                if np.any(np.diagonal(arr) != 0):
                    raise ValueError("curvature arrays must have zero diagonal")
        object.__setattr__(self, "sec1", sec1)
        object.__setattr__(self, "sec2", sec2)

    def sec2_at(self, i, k):
        if i < self.m and k < self.m:
            return self.sec2[i, k]
        return 0

    def ric1(self, i):
        return sum(self.sec1[i, k] for k in range(self.n) if k != i)

    def ric2(self, i):
        if i >= self.m:
            return 0
        return sum(self.sec2[i, k] for k in range(self.m) if k != i)


def zero_curvature(n, m) -> CurvatureSample:
    return CurvatureSample(n, m, np.zeros((n, n)), np.zeros((m, m)))


def restriction_from_lambdas(lams) -> SRestriction:
    """SRestriction over any scalar type (Fractions stay exact)."""
    s = [(1 - l * l) / (1 + l * l) for l in lams]
    c = [(2 * l) / (1 + l * l) for l in lams]
    dtype = object if any(not isinstance(v, (int, float, np.floating)) for v in lams) else float
    return SRestriction(s=np.array(s, dtype=dtype), c=np.array(c, dtype=dtype),
                        lam=np.array(list(lams), dtype=dtype))


def _require_area_decreasing(rest: SRestriction):
    """Raise on the pair the restriction's guard flagged, if any."""
    if rest._flagged is not None:
        i, j, prod = rest._flagged
        raise NotAreaDecreasingError(f"pair ({i},{j}) has product {float(prod):.17g}")


def _hval(H: HCoefficients, a, k, i):
    return H.h[a, k, i] if a < H.m else 0


def grad_restriction(rest: SRestriction, H: HCoefficients):
    """Spatial gradient S_{ij;k} of the restricted tensor in the SVD frame:
    S_{ij;k} = -(h[j,k,i] C_jj + h[i,k,j] C_ii), zero-padded h beyond m."""
    n = len(rest.lam)
    if H.n != n:
        raise ValueError("dimension mismatch between restriction and h")
    c = rest.c
    out = np.empty((n, n, n), dtype=H.h.dtype if H.h.dtype == object else float)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                out[i, j, k] = out[j, i, k] = -(_hval(H, j, k, i) * c[j] + _hval(H, i, k, j) * c[i])
    return out


def ambient_curvature_entry(rest: SRestriction, curv: CurvatureSample, i, k):
    """R_{kik(n+i)} expanded in the SVD frame:
    -(l_i/(1+l_i^2)) [ sec1(i,k)/(1+l_k^2) - (l_k^2/(1+l_k^2)) sec2(i,k) ]."""
    ci, sk = rest.c[i], rest.s[k]
    half = (1 + sk) * curv.sec1[i, k] - (1 - sk) * curv.sec2_at(i, k)
    return -(ci * half) / 4


def _evolution_rhs_diagonal(rest: SRestriction, H: HCoefficients, curv: CurvatureSample):
    """Diagonal of evolution_rhs, the only part master_inequality_gap reads,
    2 sum_a (S_ii + S_aa) hsq[a][i] - 2 C_ii sum_k R_{kik(n+i)}, and the
    squares hsq[a][i] = sum_k h[a,k,i]^2 it is built from."""
    n, m = len(rest.lam), H.m
    if curv.n != n or curv.m != m:
        raise ValueError("dimension mismatch between h and curvature sample")
    s = rest.s
    hsq = [[sum(H.h[a, k, i] ** 2 for k in range(n)) for i in range(n)] for a in range(m)]
    return [2 * (sum((s[i] + s[a]) * hsq[a][i] for a in range(m))
                 - rest.c[i] * sum(ambient_curvature_entry(rest, curv, i, k)
                                   for k in range(n) if k != i))
            for i in range(n)], hsq


def evolution_rhs(rest: SRestriction, H: HCoefficients, curv: CurvatureSample):
    """Right side of the evolution equation of the restricted tensor in the
    SVD frame.  The h-part of entry (i, j) is
    sum_{k,a} h[a,k,i] h[a,k,j] (S_ii + S_jj + 2 S_aa); the ambient
    curvature contributes -2 C_ii sum_k R_{kik(n+i)} on the diagonal.
    """
    diag, _ = _evolution_rhs_diagonal(rest, H, curv)
    n, m = len(rest.lam), H.m
    s = rest.s
    out = np.empty((n, n), dtype=H.h.dtype if H.h.dtype == object else float)
    for i in range(n):
        out[i, i] = diag[i]
    for i, j in pair_index(n):
        out[i, j] = out[j, i] = sum((s[i] + s[j] + 2 * s[a])
                                    * sum(H.h[a, k, i] * H.h[a, k, j] for k in range(n))
                                    for a in range(m))
    return out


def pair_key_identity_residual(rest: SRestriction, i, j):
    """Residual of 2 S_ii + (S_ii+S_jj)^{-1} C_ii^2
    = (S_ii+S_jj) + (S_ii+S_jj)^{-1} C_jj^2 (a consequence of S^2+C^2=1)."""
    s, c = rest.s, rest.c
    sij = s[i] + s[j]
    return 2 * s[i] + c[i] ** 2 / sij - sij - c[j] ** 2 / sij


def pair_claim_gap(rest: SRestriction, H: HCoefficients, i, j):
    """Slack of the per-pair grouping claim in the evolution lower bound.

    Computes I + II minus the claimed right side, where
    I  = sum_{k,l} h[l,k,i]^2 (S_ii + S_ll) + h[l,k,j]^2 (S_jj + S_ll),
    II = (S_ii+S_jj)^{-1} sum_k (h[i,k,i] C_ii + h[j,k,j] C_jj)^2,
    and the right side collects the retained squares plus the swapped-C
    square.  Non-negative whenever the pair operator is positive.
    """
    _require_area_decreasing(rest)
    if not i < j:
        raise ValueError("need i < j")
    n = len(rest.lam)
    m = H.m
    s, c = rest.s, rest.c
    sij = s[i] + s[j]
    hi = [sum(H.h[l, k, i] ** 2 for k in range(n)) for l in range(m)]
    hj = [sum(H.h[l, k, j] ** 2 for k in range(n)) for l in range(m)]
    term_i = sum((s[i] + s[l]) * hi[l] + (s[j] + s[l]) * hj[l] for l in range(m))
    # II and the swapped-C square share the divisor S_ii + S_jj
    cross = sum((a * c[i] + b * c[j]) ** 2 - (a * c[j] + b * c[i]) ** 2
                for a, b in ((_hval(H, i, k, i), _hval(H, j, k, j)) for k in range(n)))
    retained = sum(hi[l] + hj[l] for l in range(m) if l in (i, j))
    return term_i + cross / sij - sij * retained


def gradient_square_term(rest: SRestriction, H: HCoefficients):
    """Q_S: both families of squared C-weighted diagonal h sums."""
    _require_area_decreasing(rest)
    n = len(rest.lam)
    s, c = rest.s, rest.c
    total = 0
    for i, j in pair_index(n):
        acc = sum((a * c[i] + b * c[j]) ** 2 + (a * c[j] + b * c[i]) ** 2
                  for a, b in ((_hval(H, i, k, i), _hval(H, j, k, j)) for k in range(n)))
        total = total + acc / (s[i] + s[j]) ** 2
    return total


def curvature_term(rest: SRestriction, curv: CurvatureSample):
    """R_S as the explicit double sum over pairs and frame directions.

    Uses l^2/(1+l^2)^2 = C^2/4, 1/(1+l^2) = (1+S)/2, l^2/(1+l^2) = (1-S)/2,
    so the value is rational in the restriction data.
    """
    _require_area_decreasing(rest)
    n = len(rest.lam)
    s, c = rest.s, rest.c
    plus, minus = [1 + v for v in s], [1 - v for v in s]
    weighted = [c[i] ** 2 * sum(plus[k] * curv.sec1[i, k] - minus[k] * curv.sec2_at(i, k)
                                for k in range(n) if k != i) for i in range(n)]
    total = 0
    for i, j in pair_index(n):
        total = total + (weighted[i] + weighted[j]) / (4 * (s[i] + s[j]))
    return total


def curvature_term_from_ambient(rest: SRestriction, curv: CurvatureSample):
    """R_S assembled the other way round, from the ambient curvature entries;
    equals curvature_term identically (cross-check route)."""
    _require_area_decreasing(rest)
    n = len(rest.lam)
    s, c = rest.s, rest.c
    total = 0
    for i, j in pair_index(n):
        inner = sum(ambient_curvature_entry(rest, curv, i, k) * c[i]
                    + ambient_curvature_entry(rest, curv, j, k) * c[j]
                    for k in range(n))
        total = total - inner / (s[i] + s[j])
    return total


def _pair_operator_rows(S, pairs):
    N = len(pairs)
    out = [[0] * N for _ in range(N)]
    for A, (i, j) in enumerate(pairs):
        for B, (k, l) in enumerate(pairs):
            val = 0
            if j == l:
                val = val + S[i][k]
            if i == k:
                val = val + S[j][l]
            if j == k:
                val = val - S[i][l]
            if i == l:
                val = val - S[j][k]
            out[A][B] = val
    return out


def master_inequality_gap(rest: SRestriction, H: HCoefficients, curv: CurvatureSample):
    """Slack of the full evolution inequality for log det S^[2].

    Assembles the left side algebraically,
    E = sum_A Q^AA d(S^[2])_AA + sum_{A,B} Q^AA Q^BB |grad S^[2]_{AB}|^2,
    from the diagonal of evolution_rhs and from grad_restriction (the squares
    summed over k before they are weighted), and subtracts
    2|A|^2 + 2(n-2) sum h[i,k,i]^2 + 2 R_S + 2 Q_S.
    """
    _require_area_decreasing(rest)
    n = len(rest.lam)
    s = rest.s
    pairs = pair_index(n)
    q = [1 / (s[i] + s[j]) for i, j in pairs]
    rhs, hsq = _evolution_rhs_diagonal(rest, H, curv)
    grad = grad_restriction(rest, H)
    g = [_pair_operator_rows([[grad[i, j, k] for j in range(n)] for i in range(n)], pairs)
         for k in range(n)]
    energy = sum(q[A] * (rhs[i] + rhs[j] + sum(q[B] * sum(gk[A][B] ** 2 for gk in g)
                                               for B in range(len(pairs))))
                 for A, (i, j) in enumerate(pairs))
    diag_h_sq = sum(hsq[i][i] for i in range(H.m))
    bound = (2 * sum(map(sum, hsq)) + 2 * (n - 2) * diag_h_sq
             + 2 * curvature_term(rest, curv) + 2 * gradient_square_term(rest, H))
    return energy - bound


def phi_pinch_bounds(n, delta):
    """Quantitative consequences of Phi >= -delta:
    lambda_i^2 <= e^d - 1, (lambda_i lambda_j)^2 <= (e^d-1)/(e^d+1), and
    |Phi| <= c1 sum lambda_i^2 with the constructive
    c1 = (n-1) (1 + ((e^d-1)/(e^d+1)) ((e^d+1)/2))."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    ed = math.exp(delta)
    lam2_max = ed - 1.0
    pair_max = (ed - 1.0) / (ed + 1.0)
    c1 = (n - 1) * (1.0 + pair_max * (ed + 1.0) / 2.0)
    return lam2_max, pair_max, c1


def log_det_gradient(rest: SRestriction, H: HCoefficients):
    """nabla_k log det S^[2] =
    -2 sum_{i<j} ((1+li^2)(1+lj^2)/(1-li^2 lj^2))
                 (h[i,k,i] li/(1+li^2) + h[j,k,j] lj/(1+lj^2))."""
    _require_area_decreasing(rest)
    n = len(rest.lam)
    lam = rest.lam
    out = []
    for k in range(n):
        acc = 0
        for i, j in pair_index(n):
            pref = (1 + lam[i] ** 2) * (1 + lam[j] ** 2) / (1 - lam[i] ** 2 * lam[j] ** 2)
            acc = acc + pref * (_hval(H, i, k, i) * lam[i] / (1 + lam[i] ** 2)
                                + _hval(H, j, k, j) * lam[j] / (1 + lam[j] ** 2))
        out.append(-2 * acc)
    return np.array(out, dtype=object if rest.lam.dtype == object else float)


def gradient_bound_check(rest: SRestriction, H: HCoefficients, delta):
    """|grad log det S^[2]|^2 <= c2 e^{4d}(e^d - 1)|A|^2 with the
    constructive c2 = 4 n^2 (n-1)^2, under Phi >= -delta."""
    n = len(rest.lam)
    value = _phi_from_rest(rest)
    if value < -delta:
        raise HypothesisError(f"Phi = {value:.6g} < -delta = {-delta:.6g}")
    grad = log_det_gradient(rest, H)
    lhs = sum(g ** 2 for g in grad)
    c2 = 4.0 * n**2 * (n - 1) ** 2
    rhs = c2 * math.exp(4 * delta) * (math.exp(delta) - 1.0) * float(H.norm_sq())
    return float(lhs) <= rhs * (1 + 1e-12)


def _phi_from_rest(rest: SRestriction):
    _require_area_decreasing(rest)
    lam = [float(v) for v in rest.lam]
    total = 0.0
    for i, j in pair_index(len(lam)):
        pp = lam[i] ** 2 * lam[j] ** 2
        total += math.log1p(-pp) - math.log1p(lam[i] ** 2) - math.log1p(lam[j] ** 2)
    return total


def triple_weight(li, lj, lk):
    """The non-negative regrouping weight, in factored form:
    (1+lk^2) [ (li-lj)^2 (1+li^2 lj^2 lk^2) + 2 li lj (1-li lj lk^2)(1-li lj) ]
    / (2 (1+li^2)(1+lj^2)(1-li^2 lk^2)(1-lj^2 lk^2))."""
    li2, lj2, lk2, p = li**2, lj**2, lk**2, li * lj
    d1 = 1 - li2 * lk2
    d2 = 1 - lj2 * lk2
    if not (d1 > 0 and d2 > 0):
        raise ValueError("need li^2 lk^2 < 1 and lj^2 lk^2 < 1")
    num = (li - lj) ** 2 * (1 + li2 * lj2 * lk2) + 2 * p * (1 - p * lk2) * (1 - p)
    return (1 + lk2) * num / (2 * (1 + li2) * (1 + lj2) * d1 * d2)


def triple_weight_expanded(li, lj, lk):
    """Same weight via the unfactored numerator (agreement is a test)."""
    d1 = 1 - li**2 * lk**2
    d2 = 1 - lj**2 * lk**2
    if not (d1 > 0 and d2 > 0):
        raise ValueError("need li^2 lk^2 < 1 and lj^2 lk^2 < 1")
    num = (li**2 + lj**2 - 2 * li**2 * lj**2 - 2 * li**2 * lj**2 * lk**2
           + li**4 * lj**2 * lk**2 + li**2 * lj**4 * lk**2)
    return (1 + lk**2) * num / (2 * (1 + li**2) * (1 + lj**2) * d1 * d2)


def _pair_weight(li, lj):
    """(li^2 + lj^2) / (2 (1+li^2)(1+lj^2)), the coefficient of the pair
    curvature sums in the regrouped R_S."""
    return (li**2 + lj**2) / (2 * (1 + li**2) * (1 + lj**2))


def _regrouped_sum(rest: SRestriction, X, W):
    """Ricci, pair and weighted-triple terms of the regrouped R_S:

        sum_{i<j} [(C_ii^2 X(i) + C_jj^2 X(j)) / (4 (S_ii + S_jj)) + pair weight W(i, j)]
        + sum_{i<j<k} triple weights times W(i, j), W(j, k), W(i, k),

    with X(i) = Ric1 - Ric2 and W(i, j) = sec1 + sec2 for R_S itself."""
    n = len(rest.lam)
    lam, s, c = rest.lam, rest.s, rest.c
    x = [c[i] ** 2 * X(i) for i in range(n)]
    total = 0
    for i, j in pair_index(n):
        total = total + (x[i] + x[j]) / (4 * (s[i] + s[j]))
        total = total + _pair_weight(lam[i], lam[j]) * W(i, j)
    for i, j in pair_index(n):
        for k in range(j + 1, n):
            total = total + triple_weight(lam[i], lam[j], lam[k]) * W(i, j)
            total = total + triple_weight(lam[j], lam[k], lam[i]) * W(j, k)
            total = total + triple_weight(lam[i], lam[k], lam[j]) * W(i, k)
    return total


def regrouped_curvature_term(rest: SRestriction, curv: CurvatureSample):
    """R_S regrouped into Ricci diagonals, pair terms, and weighted triples."""
    _require_area_decreasing(rest)
    return _regrouped_sum(rest, lambda i: curv.ric1(i) - curv.ric2(i),
                          lambda i, j: curv.sec1[i, j] + curv.sec2_at(i, j))


def ricci_regroup_residual(rest: SRestriction, curv: CurvatureSample):
    """Absolute difference between the direct and regrouped forms of R_S."""
    return abs(curvature_term(rest, curv) - regrouped_curvature_term(rest, curv))


def m2_claim_terms(rest: SRestriction, i, j):
    """The two direct-computation displays backing the m = 2 branch.

    Returns (pair_display, cross_display) for the pair (i, j):
      pair:  (S_ii+S_jj)^{-1} (li^2+lj^2)(1-li^2 lj^2) / ((1+li^2)^2 (1+lj^2)^2)
      cross: ((li-lj)^2 + 2 li lj (1-li lj)) / (2 (1+li^2)(1+lj^2)),
             the triple weight at lk = 0
    Both are non-negative on the area-decreasing region.
    """
    li, lj = rest.lam[i], rest.lam[j]
    s = rest.s
    pair = ((li**2 + lj**2) * (1 - li**2 * lj**2)
            / ((1 + li**2) ** 2 * (1 + lj**2) ** 2)) / (s[i] + s[j])
    return pair, triple_weight(li, lj, 0)


def sectional_lower_bound_gap(rest: SRestriction, curv: CurvatureSample, tau):
    """R_S minus its lower bound under sec1 >= 1 and sec2 <= tau:
    sum_{i<j} (S_ii+S_jj)^{-1} (C_ii^2 + C_jj^2)/4 * ((2n-m-1) - (m-1) tau).
    Requires n >= m >= 2.
    """
    _require_area_decreasing(rest)
    n, m = curv.n, curv.m
    if not (n >= m >= 2):
        raise HypothesisError("need n >= m >= 2")
    if not tau > 0:
        raise HypothesisError("tau must be positive")
    for i in range(n):
        for k in range(n):
            if i != k and curv.sec1[i, k] < 1:
                raise HypothesisError("sec1 must be >= 1 entrywise")
    for i in range(m):
        for k in range(m):
            if i != k and curv.sec2[i, k] > tau:
                raise HypothesisError("sec2 must be <= tau entrywise")
    s, c = rest.s, rest.c
    coeff = sum((c[i] ** 2 + c[j] ** 2) / (4 * (s[i] + s[j])) for i, j in pair_index(n))
    bound = coeff * ((2 * n - m - 1) - (m - 1) * tau)
    return curvature_term(rest, curv) - bound


def ricci_lower_bound_gap(rest: SRestriction, curv: CurvatureSample, sigma):
    """R_S minus its lower bound under sec1 > -sigma and
    Ric1 >= (n-1) sigma >= (n-1) sec2.

    Returns (gap, bound); the bound itself is non-negative under the
    hypotheses.  The bound regroups the shifted curvature K(i,k) =
    sec1(i,k) + sigma exactly like the Ricci regrouping of R_S.
    """
    _require_area_decreasing(rest)
    n = curv.n
    if not sigma > 0:
        raise HypothesisError("sigma must be positive")
    for i in range(n):
        for k in range(n):
            if i != k and curv.sec1[i, k] <= -sigma:
                raise HypothesisError("sec1 must be > -sigma entrywise")
        if curv.ric1(i) < (n - 1) * sigma:
            raise HypothesisError("Ric1 must be >= (n-1) sigma on the diagonal")
    for i in range(curv.m):
        for k in range(curv.m):
            if i != k and curv.sec2[i, k] > sigma:
                raise HypothesisError("sec2 must be <= sigma entrywise")
    bound = _regrouped_sum(rest, lambda i: curv.ric1(i) - (n - 1) * sigma,
                           lambda i, j: curv.sec1[i, j] + sigma)
    return curvature_term(rest, curv) - bound, bound
