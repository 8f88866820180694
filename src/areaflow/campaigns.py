"""Vectorized verification campaigns over seeded random samples.

Each suite draws hypothesis-respecting random inputs (spectra, second
fundamental forms, curvature arrays), evaluates a gap or residual with the
batched kernels below, and reports the worst value against its tolerance.
Sampling is chunked with counter-based per-chunk seeds, and each chunk is
checked row by row in BLOCK-row slices, so results are independent of how
chunks are scheduled and of the block size.

Every kernel computes in the dtype of its inputs, so on the float64 draws
the gap kernels run in float64 (``master_gaps`` and ``pair_claim_gaps`` on
forms whose terms do not cancel).  Only ``key_identity_residuals`` and the
regroup, ricci and triple_weight checks cast to ``np.longdouble`` (LD, 80-bit
on x86): each compares large terms, or two evaluations, that float64 rounds
close to its tolerance where pair products up to 0.999 make
(S_ii + S_jj)^-1 large.

Every sampler and kernel takes 2 <= m <= n, the shapes the suites sweep;
``run_config`` refuses any other configuration.

The scalar reference implementations live in `verifier`; the test-suite
checks both routes agree.
"""

from __future__ import annotations

import copy
import functools
import operator
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import verifier
from .errors import HypothesisError
from .svcore import pair_index, phi_batch, s_two_matrix

LD = np.longdouble

CHUNK = 8192
# Rows per check call: it bounds the checks' intermediates, and as checks
# work row by row it changes no byte of a report.
BLOCK = 1024
DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 7

# Sampling distribution: bulk uniform in [0, LAM_MAX]^n rejected to the
# strictly area-decreasing region, plus a stratum whose top pair product
# lands in [0.9, 0.999] to stress the (1 - (li lj)^2) denominators.
LAM_MAX = 1.4
BOUNDARY_FRAC = 0.2
BOUNDARY_RANGE = (0.9, 0.999)


def _rng(seed, suite, n, m, chunk):
    tag = int.from_bytes(suite.encode()[:8].ljust(8, b"\0"), "little")
    ss = np.random.SeedSequence(entropy=(int(seed), tag, int(n), int(m), int(chunk)))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# samplers


def sample_spectra(rng, count, n, m):
    """Sorted area-decreasing spectra, kept inside [0, LAM_MAX]^n.

    Bulk rows are box draws rejected to a top pair product at most the
    stratum ceiling; a BOUNDARY_FRAC stratum is built directly on pair
    products in BOUNDARY_RANGE (lambda_0 ~ U[sqrt(p), LAM_MAX] and
    lambda_1 = p / lambda_0) to stress the (1 - (li lj)^2) denominators.
    Keeping every value in the box bounds the (S_ii + S_jj)^-1 weights, so
    rounding noise stays far below the contract slacks.
    """
    lam = np.zeros((count, n))
    lam[:, :m] = np.sort(rng.uniform(0.0, LAM_MAX, (count, m)), axis=1)[:, ::-1]
    ceiling = BOUNDARY_RANGE[1]
    for _ in range(200):
        bad = lam[:, 0] * lam[:, 1] > ceiling
        if not bad.any():
            break
        redraw = np.sort(rng.uniform(0.0, LAM_MAX, (int(bad.sum()), m)), axis=1)[:, ::-1]
        lam[bad, :m] = redraw
    else:
        raise HypothesisError(
            f"sample_spectra: top pair products still above {ceiling} after 200 redraws")
    k = int(count * BOUNDARY_FRAC)
    if k:
        target = rng.uniform(*BOUNDARY_RANGE, k)
        lam0 = rng.uniform(np.sqrt(target), LAM_MAX)
        lam1 = target / lam0
        lam[:k] = 0.0
        lam[:k, 0] = lam0
        lam[:k, 1] = lam1
        if m > 2:
            rest = rng.uniform(0.0, lam1[:, None], (k, m - 2))
            lam[:k, 2:m] = -np.sort(-rest, axis=1)
    return lam


def sample_h(rng, count, n, m):
    """Standard-normal second-fundamental-form coefficients, symmetric in
    the last two indices (upper triangle drawn, mirrored)."""
    h = rng.standard_normal((count, m, n, n))
    iu = np.triu_indices(n, 1)
    h[:, :, iu[1], iu[0]] = h[:, :, iu[0], iu[1]]
    return h


def _sym_zero_diag(a):
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    idx = np.arange(a.shape[-1])
    a[..., idx, idx] = 0.0
    return a


def sample_sec(rng, count, n, lo, hi):
    return _sym_zero_diag(rng.uniform(lo, hi, (count, n, n)))


def pad_sec2(sec2_block, n):
    """Zero-pad an m x m target-curvature block to n x n."""
    count, m, _ = sec2_block.shape
    out = np.zeros((count, n, n))
    out[:, :m, :m] = sec2_block
    return out


# ---------------------------------------------------------------------------
# batched kernels


def _srest(lam):
    """S_ii and C_ii of each spectrum, in the dtype of ``lam``."""
    den = 1 + lam * lam
    return (1 - lam * lam) / den, 2 * lam / den


def phi_values(lam):
    return phi_batch(lam)


def logdet_pair_formula(lam):
    n = lam.shape[1]
    return (n * (n - 1) / 2.0) * np.log(2.0) + phi_values(lam)


def logdet_pair_oracle(lam):
    """Assemble the pair operator of diag(S_ii) per sample and take the
    pivoted-factorization log-determinant (float64 LAPACK)."""
    count, n = lam.shape
    S = np.zeros((count, n, n))
    idx = np.arange(n)
    S[:, idx, idx] = _srest(lam)[0]
    sign, logdet = np.linalg.slogdet(s_two_matrix(S))
    logdet[sign <= 0] = np.nan
    return logdet


def _diag_h(h, n):
    """dg[b, i, k] = h[b, i, k, i] for i < m, zero-padded to n rows, in the
    dtype of h."""
    count, m = h.shape[:2]
    dg = np.zeros((count, n, n), dtype=h.dtype)
    # the diagonal of axes (1, 3) is a view, indexed (b, k, i)
    dg[:, :m, :] = np.diagonal(h, axis1=1, axis2=3).transpose(0, 2, 1)
    return dg


def _keep_minus_swap(s, D2):
    """(keep - swap) / (S_ii + S_jj) for every pair, shape (B, n(n-1)/2),
    with keep and swap as in ``gradient_square_terms``.

    keep - swap = (c_i^2 - c_j^2)(D2_i - D2_j) and C^2 = 1 - S^2 make this
    -(s_i - s_j)(D2_i - D2_j): one product of two differences of inputs,
    where keep / (S_ii + S_jj) and swap / (S_ii + S_jj) are large and cancel."""
    i, j = np.triu_indices(s.shape[1], 1)
    return -(s[:, i] - s[:, j]) * (D2[:, i] - D2[:, j])


def _h_moments(s, h):
    """(hsq, A, D2) of h (B, m, n, n) with m <= n: hsq = sum_k h_lki^2
    (B, m, n); the h part A_i = S_ii sum_l hsq_li + sum_l hsq_li S_ll of
    the evolution's right-side diagonal, which master doubles; and
    D2_i = hsq_ii = sum_k h_iki^2 (B, n), zero for i >= m, in float64."""
    m = h.shape[1]
    hsq = np.einsum("blki,blki->bli", h, h)
    A = s * hsq.sum(axis=1) + np.einsum("bli,bl->bi", hsq, s[:, :m])
    D2 = np.zeros(s.shape)
    D2[:, :m] = np.einsum("bii->bi", hsq[:, :, :m])
    return hsq, A, D2


def pair_claim_gaps(lam, h):
    """Per-pair grouping-claim slack, shape (B, n(n-1)/2), in float64: the
    claim's two gradient squares over S_ii + S_jj enter as their difference,
    ``_keep_minus_swap``."""
    count, n = lam.shape
    s, _ = _srest(lam)
    hsq, A, D2 = _h_moments(s, h)
    hsq_pad = np.zeros((count, n, n))
    hsq_pad[:, :h.shape[1]] = hsq                    # (B, l<=n, i)
    i, j = np.triu_indices(n, 1)
    sij = s[:, i] + s[:, j]
    cross = hsq_pad[:, j, i] + hsq_pad[:, i, j] + D2[:, i] + D2[:, j]
    return A[:, i] + A[:, j] - sij * cross + _keep_minus_swap(s, D2)


def key_identity_residuals(lam):
    """Residual of the S^2 + C^2 = 1 consequence used by the pair claim."""
    s, c = _srest(lam.astype(LD))
    i, j = np.triu_indices(lam.shape[1], 1)
    sij = s[:, i] + s[:, j]
    return np.abs(2 * s[:, i] + c[:, i] ** 2 / sij - sij - c[:, j] ** 2 / sij)


def _sum_pair_columns(terms):
    """Sum of the (B, n(n-1)/2) pair columns, added one after another in
    pair_index order: the rounding of a loop over the pairs."""
    total = np.zeros(terms.shape[0], dtype=terms.dtype)
    for col in terms.T:
        total += col
    return total


def _row_pair_terms(s, c, X):
    """(c_i^2 X_i + c_j^2 X_j) / (4 (S_ii + S_jj)) for every pair, shape
    (B, n(n-1)/2), with c_i^2 X_i formed once per index."""
    cx = c**2 * X
    i, j = np.triu_indices(s.shape[1], 1)
    return (cx[:, i] + cx[:, j]) / (4 * (s[:, i] + s[:, j]))


def curvature_terms(lam, sec1, sec2):
    """R_S, with sec2 already padded to (B, n, n)."""
    s, c = _srest(lam)
    row = np.einsum("bik,bk->bi", sec1, 1 + s) - np.einsum("bik,bk->bi", sec2, 1 - s)
    return _sum_pair_columns(_row_pair_terms(s, c, row))


def gradient_square_terms(lam, h):
    """Q_S = sum_A (keep_A + swap_A) / (S_ii + S_jj)^2, with the moments
    D2_i = sum_k dg_ik^2 and DD_ij = sum_k dg_ik dg_jk of dg = _diag_h(h, n):

        keep = c_i^2 D2_i + 2 c_i c_j DD_ij + c_j^2 D2_j,

    and swap, the same with c_i and c_j exchanged."""
    n = lam.shape[1]
    s, c = _srest(lam)
    dg = _diag_h(h, n)
    D2 = np.einsum("bik,bik->bi", dg, dg)
    DD = np.einsum("bik,bjk->bij", dg, dg)
    i, j = np.triu_indices(n, 1)   # pair_index order
    cross = 2 * c[:, i] * c[:, j] * DD[:, i, j]
    keep = c[:, i] ** 2 * D2[:, i] + cross + c[:, j] ** 2 * D2[:, j]
    swap = c[:, j] ** 2 * D2[:, i] + cross + c[:, i] ** 2 * D2[:, j]
    return _sum_pair_columns((keep + swap) / (s[:, i] + s[:, j]) ** 2)


def offdiag_gradient_energy(lam, h):
    """Off-diagonal part of the gradient-square term of the evolution of
    log det S^[2], sum_k sum_{A != B} q_A q_B (G_k)_AB^2, q_A = 1 / (S_ii + S_jj).

    G_k is the pair operator of g_k[i, j] = -(c_i h_ijk + c_j h_jik), the
    restriction's gradient in direction k (h zero-padded beyond the m
    normal directions).  Off its diagonal (``master_gaps`` takes that part
    as a pair residual) it holds +-g_xy between pairs {s, x} and {s, y}
    that share one index s, and 0 between disjoint pairs.  With Q the
    symmetric n x n matrix of the q values (Q_ij = q_(ij), Q_ii = 0) the
    term is 2 sum_k sum_{x < y} (Q Q)_xy g_k[x, y]^2: O(n^3) per direction
    without assembling G_k.  h symmetric in its last two indices gives
    g_k[x, y] = -(c_x h_xyk + c_y h_yxk), gathered per pair x < y.
    """
    count, n = lam.shape
    m = h.shape[1]
    s, c = _srest(lam)
    iA, jA = np.triu_indices(n, 1)
    q = 1 / (s[:, iA] + s[:, jA])
    Q = np.zeros((count, n, n), dtype=q.dtype)
    Q[:, iA, jA] = q
    Q[:, jA, iA] = q
    M = (Q @ Q)[:, iA, jA]
    # the sign of g drops out of every square; np.take gathers the pairs
    # with the bits of fancy indexing, in less time.  h has no rows beyond
    # m: those terms read a clipped row times c = 0
    cz = c.copy()
    cz[:, m:] = 0
    rows = h.reshape(count, -1, n)          # row a n + y holds h[a, y, :]
    rx, ry = np.minimum(iA, m - 1), np.minimum(jA, m - 1)
    g = (np.take(cz, iA, axis=1)[:, :, None] * np.take(rows, rx * n + jA, axis=1)
         + np.take(cz, jA, axis=1)[:, :, None] * np.take(rows, ry * n + iA, axis=1))
    return 2 * np.einsum("ba,bak,bak->b", M, g, g)


def master_gaps(lam, h):
    """Slack of the evolution inequality for log det S^[2], in float64.

    The gradient-square term minus the bound's 2 Q_S is taken in two parts.
    Its diagonal part, sum_A q_A^2 sum_k (g_ii + g_jj)^2 - 2 Q_S with
    sum_k (g_ii + g_jj)^2 = 4 keep_A, is 2 sum_A q_A^2 (keep_A - swap_A),
    whose pair factors ``_keep_minus_swap`` forms without the two large
    terms; the off-diagonal part is ``offdiag_gradient_energy``.

    The curvature terms are not evaluated: their part of the energy,
    sum_A q_A (c_i^2 row_i + c_j^2 row_j) / 2 with
    row_i = sum_k sec1_ik (1 + S_kk) - sec2_ik (1 - S_kk), is 2 R_S, the
    bound's own curvature term, so they cancel identically (proved in exact
    arithmetic by the test-suite), and the gap reads no curvature.  The
    master draw still takes ``sec1`` and ``sec2``, so the generator stream
    and the failing-sample payload stay the same.
    """
    n = lam.shape[1]
    s, _ = _srest(lam)
    iA, jA = np.triu_indices(n, 1)
    hsq, A, D2 = _h_moments(s, h)
    # diagonal of the evolution right side, without its curvature part;
    # doubling is exact, so 2 A has the bits of 2 s hsq + 2 sum_l hsq S_ll
    rhs_diag = 2 * A
    q = 1 / (s[:, iA] + s[:, jA])
    # summed column by column, as np.einsum sums these column-major factors
    # for two rows or more; it sums a single row in another order
    energy = (_sum_pair_columns(q * (rhs_diag[:, iA] + rhs_diag[:, jA]
                                     + 2 * _keep_minus_swap(s, D2)))
              + offdiag_gradient_energy(lam, h))
    bound = 2 * hsq.sum(axis=(1, 2)) + 2 * (n - 2) * D2.sum(axis=1)
    return energy - bound


def triple_weight_values(li, lj, lk):
    """``_triple_weight`` at (li, lj, lk), as the regroup and ricci kernels
    run it."""
    lam = np.stack(np.broadcast_arrays(li, lj, lk), axis=1)
    return _triple_weight(_pair_factors(lam), 0, 1, 2)


def triple_weight_values_expanded(li, lj, lk):
    num = (li**2 + lj**2 - 2 * li**2 * lj**2 - 2 * li**2 * lj**2 * lk**2
           + li**4 * lj**2 * lk**2 + li**2 * lj**4 * lk**2)
    den = 2 * (1 + li**2) * (1 + lj**2) * (1 - li**2 * lk**2) * (1 - lj**2 * lk**2)
    return (1 + lk**2) * num / den


def _pair_factors(lam):
    """Per-index and per-pair factors of the regrouping weights, rows last:
    sq = l^2 and 1 + l^2 of shape (n, B), and of shape (n, n, B)

        (l_a - l_b)^2,  l_a^2 l_b^2,  l_a l_b,  1 - l_a l_b,
        2 (1 + l_a^2)(1 + l_b^2),  1 - l_a^2 l_b^2.

    A product of two factors has the same bits in either order, so
    l_a^2 l_b^2 serves both (a, b) and (b, a)."""
    lt = np.ascontiguousarray(lam.T)
    sq = lt**2
    one_sq = 1 + sq
    a, b = lt[:, None], lt[None, :]
    sq_a, sq_b = sq[:, None], sq[None, :]
    prod = a * b
    prod_sq = sq_a * sq_b
    return (sq, one_sq, (a - b) ** 2, prod_sq, prod, 1 - prod,
            2 * one_sq[:, None] * one_sq[None, :], 1 - prod_sq)


def _triple_weight(F, i, j, k):
    """The regrouping weight at (l_i, l_j, l_k) in the factored form of
    ``verifier.triple_weight``, from the ``_pair_factors`` table F."""
    sq, one_sq, diff_sq, prod_sq, prod, one_prod, den2, one_prod_sq = F
    num = diff_sq[i, j] * (1 + prod_sq[i, j] * sq[k]) \
        + 2 * prod[i, j] * (1 - prod[i, j] * sq[k]) * one_prod[i, j]
    den = den2[i, j] * one_prod_sq[i, k] * one_prod_sq[j, k]
    return one_sq[k] * num / den


def _regrouped_sum(lam, X, W):
    """Ricci, pair and weighted-triple terms of the regrouped R_S:

        sum_{i<j} [(c_i^2 X_i + c_j^2 X_j) / (4 (S_ii + S_jj)) + pair weight W_ij]
        + sum_{i<j<k} triple weights times W_ij, W_jk, W_ik,

    with X = Ric1 - Ric2 and W = sec1 + sec2 for R_S itself, and the triple
    weights ``_triple_weight``."""
    s, c = _srest(lam)
    n = lam.shape[1]
    F = _pair_factors(lam)
    sq, den2 = F[0], F[6]
    Wt = np.ascontiguousarray(np.moveaxis(W, 0, -1))
    row_terms = _row_pair_terms(s, c, X)
    total = np.zeros(lam.shape[0], dtype=row_terms.dtype)
    for A, (i, j) in enumerate(pair_index(n)):
        total += row_terms[:, A]
        total += (sq[i] + sq[j]) / den2[i, j] * Wt[i, j]
    for i, j in pair_index(n):
        for k in range(j + 1, n):
            total += _triple_weight(F, i, j, k) * Wt[i, j]
            total += _triple_weight(F, j, k, i) * Wt[j, k]
            total += _triple_weight(F, i, k, j) * Wt[i, k]
    return total


def regrouped_curvature_terms(lam, sec1, sec2):
    """R_S regrouped into Ricci, pair and weighted-triple terms."""
    return _regrouped_sum(lam, sec1.sum(axis=2) - sec2.sum(axis=2), sec1 + sec2)


def _sectional_coeff(lam):
    """sum_{i<j} (c_i^2 + c_j^2) / (4 (S_ii + S_jj)), the factor of the
    sectional lower bound."""
    s, c = _srest(lam)
    return _sum_pair_columns(_row_pair_terms(s, c, 1))


def sectional_gaps(lam, sec1, sec2, tau, m):
    """(gaps, coeff): R_S minus the coeff ((2n-m-1) - (m-1) tau) lower bound,
    tau per sample, and the bound's factor ``_sectional_coeff``."""
    n = lam.shape[1]
    coeff = _sectional_coeff(lam)
    bound = coeff * ((2 * n - m - 1) - (m - 1) * tau)
    return curvature_terms(lam, sec1, sec2) - bound, coeff


def m2_claim_displays(lam):
    """The two non-negative displays of the m = 2 branch, per sample, for the
    top pair (l1, l2); the cross display is the triple weight at l_k = 0."""
    l1, l2 = lam[:, 0], lam[:, 1]
    s, _ = _srest(lam[:, :2])
    pair = (l1**2 + l2**2) * (1 - l1**2 * l2**2) / ((1 + l1**2) ** 2 * (1 + l2**2) ** 2) \
        / (s[:, 0] + s[:, 1])
    return pair, triple_weight_values(l1, l2, 0)


def ricci_gaps(lam, sec1, sec2, sigma):
    """(gap, bound) for the sigma-pinched Ricci lower bound on R_S."""
    n = lam.shape[1]
    bound = _regrouped_sum(lam, sec1.sum(axis=2) - (n - 1) * sigma[:, None],
                           sec1 + sigma[:, None, None])
    return curvature_terms(lam, sec1, sec2) - bound, bound


def log_det_gradient_sq(lam, h):
    """|grad log det S^[2]|^2 from the explicit per-direction display."""
    count, n = lam.shape
    dg = _diag_h(h, n)
    w = lam / (1 + lam * lam)                     # (B, n)
    grad = np.zeros((count, n), dtype=np.result_type(lam, h))
    for i, j in pair_index(n):
        pref = (1 + lam[:, i] ** 2) * (1 + lam[:, j] ** 2) \
            / (1 - lam[:, i] ** 2 * lam[:, j] ** 2)
        grad += (pref * w[:, i])[:, None] * dg[:, i, :] + (pref * w[:, j])[:, None] * dg[:, j, :]
    grad *= -2
    return np.einsum("bk,bk->b", grad, grad)


# ---------------------------------------------------------------------------
# exact-rational spot checks (n <= 3, small denominators)


def _exact_fraction(rng, num_range, den_range):
    return Fraction(int(rng.integers(*num_range)), int(rng.integers(*den_range)))


def exact_samples(seed, count, n, m):
    """Rational (lam, h, sec1, sec2) tuples on the area-decreasing region."""
    rng = _rng(seed, "exact", n, m, 0)
    out = []
    while len(out) < count:
        lam = sorted((Fraction(int(rng.integers(0, 8)), int(rng.integers(4, 10)))
                      for _ in range(m)), reverse=True)
        lam = list(lam) + [Fraction(0)] * (n - m)
        if lam[0] * lam[1] >= 1:
            continue
        h = np.empty((m, n, n), dtype=object)
        for a in range(m):
            for k in range(n):
                for i in range(k, n):
                    v = _exact_fraction(rng, (-3, 4), (1, 5))
                    h[a, k, i] = v
                    h[a, i, k] = v
        sec1 = np.empty((n, n), dtype=object)
        sec2 = np.empty((m, m), dtype=object)
        for arr, d in ((sec1, n), (sec2, m)):
            for i in range(d):
                arr[i, i] = Fraction(0)
                for j in range(i + 1, d):
                    v = _exact_fraction(rng, (-4, 5), (1, 5))
                    arr[i, j] = v
                    arr[j, i] = v
        out.append((lam, h, sec1, sec2))
    return out


def run_exact_checks(n, m, count, seed):
    """Exact-rational master gap >= 0, pair-claim gaps >= 0, and regroup
    residual == 0, over small-denominator samples.  The block is a pure
    function of the arguments, so suites in one process share it; each call
    gets its own dict."""
    return dict(_exact_block(n, m, count, seed))


@functools.lru_cache(maxsize=32)
def _exact_block(n, m, count, seed):
    if n > 3:
        raise ValueError("exact mode is limited to n <= 3")
    stats = {"samples": count, "master_min": None, "claim_min": None,
             "regroup_exact_zero": True, "violations": 0}
    for lam, h, sec1, sec2 in exact_samples(seed, count, n, m):
        rest = verifier.restriction_from_lambdas(lam)
        H = verifier.HCoefficients(h)
        curv = verifier.CurvatureSample(n, m, sec1, sec2)
        gap = verifier.master_inequality_gap(rest, H, curv)
        if stats["master_min"] is None or gap < stats["master_min"]:
            stats["master_min"] = gap
        for i, j in pair_index(n):
            cg = verifier.pair_claim_gap(rest, H, i, j)
            if stats["claim_min"] is None or cg < stats["claim_min"]:
                stats["claim_min"] = cg
            if cg < 0:
                stats["violations"] += 1
        if gap < 0:
            stats["violations"] += 1
        if verifier.ricci_regroup_residual(rest, curv) != 0:
            stats["regroup_exact_zero"] = False
            stats["violations"] += 1
    stats["master_min"] = float(stats["master_min"])
    stats["claim_min"] = float(stats["claim_min"])
    return stats


# ---------------------------------------------------------------------------
# suites


def _chunks(total):
    done = 0
    idx = 0
    while done < total:
        size = min(CHUNK, total - done)
        yield idx, size
        done += size
        idx += 1


# A stream is a (draw, check) pair.  draw(rng, size, n, m) draws one chunk
# from ``rng`` and returns its sample, a dict of arrays with one row per
# sample; row b is the failing-sample payload.  check(sample, n, m) returns
# (checked values, extra-field values) and works row by row, so any slice of
# rows, or one replayed failing sample, gets the bits it gets in its chunk.
# The extra values are folded into the report fields the suite declares in
# SPECS.


def _spectra_draw(rng, size, n, m):
    return {"lambda": sample_spectra(rng, size, n, m)}


def _spectra_h_draw(rng, size, n, m):
    return {**_spectra_draw(rng, size, n, m), "h": sample_h(rng, size, n, m)}


def _curvature_draw(rng, size, n, m):
    return {"sec1": sample_sec(rng, size, n, -2.0, 2.0),
            "sec2": pad_sec2(sample_sec(rng, size, m, -2.0, 2.0), n)}


def _oracle_check(sample, n, m):
    """Sum-of-logs formula vs assembled-operator log-determinant."""
    lam = sample["lambda"]
    return np.abs(logdet_pair_formula(lam) - logdet_pair_oracle(lam)), {}


def _master_draw(rng, size, n, m):
    return {**_spectra_h_draw(rng, size, n, m), **_curvature_draw(rng, size, n, m)}


def _master_check(sample, n, m):
    """Evolution inequality for log det S^[2]."""
    return master_gaps(sample["lambda"], sample["h"]), {}


def _pair_claim_check(sample, n, m):
    """Per-pair grouping claim, all pairs per sample, plus the key identity."""
    lam = sample["lambda"]
    return pair_claim_gaps(lam, sample["h"]).min(axis=1), {
        "key_identity_max": float(key_identity_residuals(lam).max())}


# Budgets of sample_phi_level: safeguarded Newton steps per ray, and rounds
# of stepping a row down after the ``phi_values`` check.
RAY_NEWTON_STEPS = 60
RAY_CHECK_ROUNDS = 60


def _ray_phi(t, a, p, n):
    """Phi(t d) and d/dt Phi(t d) in float64, from a = d^2 (B, n) and the
    pair products p = a_i a_j (B, n(n-1)/2):

        Phi = sum_{i<j} log1p(-t^4 p_ij) - (n-1) sum_i log1p(t^2 a_i),

    strictly decreasing in t on [0, cap] wherever d is nonzero."""
    u = (t * t)[:, None]
    x = u * u * p
    y = u * a
    val = np.log1p(-x).sum(axis=1) - (n - 1) * np.log1p(y).sum(axis=1)
    slope = -(4 * t**3 * (p / (1 - x)).sum(axis=1)
              + 2 * (n - 1) * t * (a / (1 + y)).sum(axis=1))
    return val, slope


def sample_phi_level(rng, count, n, m, delta):
    """Spectra with Phi in [-delta, 0]: a random direction d is scaled onto
    a uniformly drawn Phi level.

    Plain box rejection is hopeless for small delta and large n (the
    admissible region is a vanishing corner of the box); scaling along rays
    hits the whole region including the Phi = -delta boundary.

    The scale t of each row solves Phi(t d) = level by safeguarded Newton
    in float64 on the bracket [lo, hi]: lo = 0, hi the smaller of the pair
    cap and the root of -(n-1) log1p(t^2 d_0^2) = level (Phi lies below
    that term).  A Newton step that leaves the bracket is replaced by the
    bracket's midpoint.  A row stops on a residual within 4 ulps of |level|,
    on a Newton correction below half an ulp of t, on a bracket a few ulps
    wide, or at its start when Phi >= level there (the cap rows).  One
    ``phi_values`` call then checks Phi(t d) >= level on the returned rows
    with the float64 values that the pinch check reads; rows that fail step
    down (by that residual over the slope, plus a doubling number of ulps)
    and are checked again.  So every row has Phi >= level >= -delta as the
    check reads it, and t lies within a few ulps of the largest such
    t <= cap.

    Raises HypothesisError when either loop runs out of its budget.
    """
    d = np.zeros((count, n))
    d[:, :m] = np.sort(rng.uniform(0.0, 1.0, (count, m)), axis=1)[:, ::-1]
    top = np.maximum(d[:, 0], 1e-12)
    d /= top[:, None]
    level = -rng.uniform(0.0, delta, count)

    cap = 0.9999 / np.sqrt(np.maximum(d[:, 0] * d[:, 1], 1e-300))
    a = d * d
    i, j = np.triu_indices(n, 1)
    p = a[:, i] * a[:, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        top_root = np.sqrt(np.expm1(-level / (n - 1)) / a[:, 0])
    start = np.fmin(cap, top_root)       # a nan root (d = 0) leaves cap
    lo = np.zeros(count)
    hi = start.copy()
    t = start.copy()
    rows = np.arange(count)
    for _ in range(RAY_NEWTON_STEPS):
        val, slope = _ray_phi(t[rows], a[rows], p[rows], n)
        res = val - level[rows]
        above = res >= 0
        lo[rows[above]] = t[rows[above]]
        hi[rows[~above]] = t[rows[~above]]
        with np.errstate(divide="ignore", invalid="ignore"):   # zero slope: d = 0 or t = 0
            step = t[rows] - res / slope
        done = ((np.abs(res) <= 4 * np.spacing(-level[rows]))
                | (step == t[rows])
                | (above & (t[rows] == start[rows]))
                | (hi[rows] - lo[rows] <= 4 * np.spacing(hi[rows])))
        rows, step = rows[~done], step[~done]
        if not rows.size:
            break
        inside = (step > lo[rows]) & (step < hi[rows])
        t[rows] = np.where(inside, step, 0.5 * (lo[rows] + hi[rows]))
    else:
        raise HypothesisError(f"sample_phi_level: {rows.size} rays unresolved after "
                              f"{RAY_NEWTON_STEPS} Newton steps")

    rows = np.arange(count)
    ulps = 1.0
    for _ in range(RAY_CHECK_ROUNDS):
        res = phi_values(d[rows] * t[rows, None]) - level[rows]
        low = res < 0
        if not low.any():
            break
        rows, res = rows[low], res[low]
        _, slope = _ray_phi(t[rows], a[rows], p[rows], n)
        t[rows] = np.maximum(t[rows] - res / slope - ulps * np.spacing(t[rows]), 0.0)
        ulps *= 2
    else:
        raise HypothesisError(f"sample_phi_level: {rows.size} rows below their Phi "
                              f"level after {RAY_CHECK_ROUNDS} check rounds")
    return d * t[:, None]


# Each pinch level is its own seeded stream, run in full before the next.
PINCH_DELTAS = (0.1, 1.0, 3.0)


def _pinch_draw(rng, size, n, m, delta):
    return {"lambda": sample_phi_level(rng, size, n, m, delta)}


def _pinch_check(sample, n, m, delta):
    """Quantitative bounds from Phi >= -delta with the constructive c1."""
    lam2_max, pair_max, c1 = verifier.phi_pinch_bounds(n, delta)
    lam = sample["lambda"]
    vals = phi_values(lam)
    sq = lam**2
    viol = np.maximum(sq.max(axis=1) - lam2_max, sq[:, 0] * sq[:, 1] - pair_max)
    return np.maximum(viol, np.abs(vals) - c1 * sq.sum(axis=1)), {}


def _gradient_bound_draw(rng, size, n, m):
    sample = _spectra_h_draw(rng, size, n, m)
    delta = -phi_values(sample["lambda"]) + rng.uniform(0.0, 2.0, size)
    sample["delta"] = np.maximum(delta, 1e-9)
    return sample


def _gradient_bound_check(sample, n, m):
    """|grad log det S^[2]|^2 against c2 e^{4d}(e^d-1)|A|^2."""
    c2 = 4.0 * n**2 * (n - 1) ** 2
    h, delta = sample["h"], sample["delta"]
    lhs = log_det_gradient_sq(sample["lambda"], h)
    a2 = np.einsum("blki,blki->b", h, h)
    return lhs - c2 * np.exp(4 * delta) * np.expm1(delta) * a2, {}


def _triple_weight_check(sample, n, m):
    """Non-negativity of the regrouping weight and agreement of its two
    algebraic forms, on triples of sampled spectra (n = m = 3)."""
    li, lj, lk = (sample["lambda"][:, col].astype(LD) for col in range(3))
    v1 = triple_weight_values(li, lj, lk)
    v2 = triple_weight_values_expanded(li, lj, lk)
    return np.abs(v1 - v2).astype(float), {"min_weight": float(v1.min()),
                                           "violations": int((v1 < 0).sum())}


def _regroup_draw(rng, size, n, m):
    return {**_spectra_draw(rng, size, n, m), **_curvature_draw(rng, size, n, m)}


def _regroup_check(sample, n, m):
    """Direct vs regrouped R_S."""
    args = [sample[k].astype(LD) for k in ("lambda", "sec1", "sec2")]
    return np.abs(curvature_terms(*args) - regrouped_curvature_terms(*args)).astype(float), {}


def _sectional_draw(rng, size, n, m):
    """Spectra, tau, and curvatures with sec1 >= 1, sec2 <= tau; the first
    size // 8 rows are the tight family sec1 = 1, sec2 = tau."""
    lam = sample_spectra(rng, size, n, m)
    tau = rng.uniform(0.02, 2.0 * (2 * n - m - 1) / (m - 1), size)
    sec1 = sample_sec(rng, size, n, 1.0, 3.0)
    block = np.minimum(rng.uniform(-1.0, 1.0, (size, m, m)), tau[:, None, None])
    # tight family sec1 = 1, sec2 = tau saturates the bound
    tight = slice(0, size // 8)
    sec1[tight] = 1.0
    block[tight] = tau[tight, None, None]
    sec1 = _sym_zero_diag(sec1)
    block = _sym_zero_diag(block)
    return {"lambda": lam, "tau": tau, "sec1": sec1, "sec2": pad_sec2(block, n)}


def _sectional_check(sample, n, m):
    """Lower bound of R_S under sec1 >= 1, sec2 <= tau, including the tight
    family sec1 = 1, sec2 = tau and the m = 2 displays.

    Also reports the empirical minimum of (lower bound)/(sum lambda_i^2)
    over samples with a positive bracket (2n-m-1) - (m-1) tau: the decay-rate
    constant is existence-only, so the ratio is reported, never asserted.
    """
    lam, tau = sample["lambda"], sample["tau"]
    gaps, coeff = sectional_gaps(lam, sample["sec1"], sample["sec2"], tau, m)
    paird, crossd = m2_claim_displays(lam)
    bracket = (2 * n - m - 1) - (m - 1) * tau
    lam_sq = (lam ** 2).sum(axis=1)
    mask = (bracket > 0) & (lam_sq > 1e-12)
    ratio = float((coeff[mask] * bracket[mask] / lam_sq[mask]).min()) if mask.any() else None
    return gaps, {"m2_display_min": float(min(paird.min(), crossd.min())),
                  "c3_empirical_min_ratio": ratio}


def _ricci_draw(rng, size, n, m):
    """Spectra, sigma, and curvatures with Ric1 >= (n-1) sigma and
    sec2 <= sigma; the first size // 8 rows have sec2 = sigma."""
    lam = sample_spectra(rng, size, n, m)
    sigma = rng.uniform(0.05, 2.0, size)
    # rejection to rows with Ric1 >= (n-1) sigma
    lo, hi = -sigma[:, None, None] * 0.999, 3 * sigma[:, None, None] + 2.0
    sec1 = _sym_zero_diag(rng.uniform(lo, hi, (size, n, n)))
    span = hi - lo
    for _round in range(400):
        redo = (sec1.sum(axis=2) < (n - 1) * sigma[:, None]).any(axis=1)
        if not redo.any():
            break
        # each round draws size * n * n doubles, as uniform(lo, hi) did (it
        # forms lo + (hi - lo) * u), and maps only the redo rows
        u = rng.random((size, n, n))
        sec1[redo] = _sym_zero_diag(lo[redo] + span[redo] * u[redo])
    else:
        raise HypothesisError("ricci: rows with Ric1 < (n-1) sigma remain "
                              "after 400 redraws")
    block = rng.uniform(sigma[:, None, None] - 3.0, sigma[:, None, None], (size, m, m))
    tight = slice(0, size // 8)
    block[tight] = sigma[tight, None, None]
    block = _sym_zero_diag(block)
    return {"lambda": lam, "sigma": sigma, "sec1": sec1, "sec2": pad_sec2(block, n)}


def _ricci_check(sample, n, m):
    """Lower bound of R_S under the sigma-pinched Ricci hypotheses; also
    requires the bound itself to be non-negative."""
    gaps, bounds = ricci_gaps(*[sample[k].astype(LD)
                                for k in ("lambda", "sec1", "sec2", "sigma")])
    return gaps, {"bound_min": float(bounds.min())}


class Suite(NamedTuple):
    """One suite's declaration.

    streams  rng tag -> (draw, check); streams run one after another
    kind     "min_gap" (violation: value < tol) or "max_residual" (value > tol)
    tol      default tolerance
    configs  the (n, m) sweep; a forced configuration must lie in it
    extras   report field -> (start value, fold, pass limit or None); a fold
             of min needs value >= limit to pass, any other value <= limit
    exact    whether ``run_suite(exact=True)`` adds the exact-rational checks
    """

    streams: dict
    kind: str
    tol: float
    configs: list
    extras: dict = {}
    exact: bool = False


_PAIRS = [(n, m) for n in range(2, 7) for m in range(2, n + 1)]

SPECS = {
    "oracle": Suite({"oracle": (_spectra_draw, _oracle_check)}, "max_residual", 1e-10,
                    [(n, n) for n in range(2, 9)]),
    "master": Suite({"master": (_master_draw, _master_check)}, "min_gap", -1e-10, _PAIRS,
                    exact=True),
    "pair_claim": Suite({"pair_claim": (_spectra_h_draw, _pair_claim_check)}, "min_gap",
                        -1e-12, _PAIRS, {"key_identity_max": (0.0, max, 1e-12)}, exact=True),
    "pinch": Suite({f"pinch{d}": (functools.partial(_pinch_draw, delta=d),
                                  functools.partial(_pinch_check, delta=d))
                    for d in PINCH_DELTAS}, "max_residual", 0.0,
                   [(n, n) for n in range(2, 7)],
                   {"deltas": (list(PINCH_DELTAS), None, None)}),
    "gradient_bound": Suite({"gradient_bound": (_gradient_bound_draw, _gradient_bound_check)},
                            "max_residual", 0.0,
                            list(dict.fromkeys((n, m) for n in range(2, 7) for m in (2, n)))),
    "triple_weight": Suite({"triple_weight": (_spectra_draw, _triple_weight_check)},
                           "max_residual", 1e-12,
                           [(3, 3)], {"min_weight": (None, min, 0.0),
                                      "violations": (0, operator.add, None)}),
    "regroup": Suite({"regroup": (_regroup_draw, _regroup_check)}, "max_residual", 1e-10,
                     _PAIRS, exact=True),
    "sectional": Suite({"sectional": (_sectional_draw, _sectional_check)}, "min_gap", -1e-10,
                       _PAIRS, {"m2_display_min": (None, min, -1e-15),
                                "c3_empirical_min_ratio": (None, min, None)}),
    "ricci": Suite({"ricci": (_ricci_draw, _ricci_check)}, "min_gap", -1e-10,
                   [(n, m) for n in range(2, 6) for m in range(2, n + 1)],
                   {"bound_min": (None, min, -1e-12)}),
}


def run_config(name, n, m, samples, seed, tol=None):
    """Run suite ``name`` on one (n, m) configuration; returns its report.
    Raises ValueError outside the suite's sweep, on which the tolerances are
    calibrated, and for a tolerance that is not finite, against which a
    check is vacuous or fails every value."""
    spec = SPECS[name]
    if (n, m) not in spec.configs:
        raise ValueError(f"{name} has no configuration (n, m) = {(n, m)}; "
                         f"its sweep is {spec.configs}")
    tol = spec.tol if tol is None else tol
    if not np.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tol}")
    # within(v, tol) is False for NaN: a non-finite checked value is a
    # violation, a non-finite extra fails the report, and neither is folded
    pick, within = ((np.min, np.greater_equal) if spec.kind == "min_gap"
                    else (np.max, np.less_equal))
    res = {
        "suite": name, "n": n, "m": m, "samples": samples, "seed": seed,
        "tolerance": tol, "kind": spec.kind, "violations": 0,
        "worst": None, "failing_sample": None,
        **{field: copy.copy(start) for field, (start, _, _) in spec.extras.items()},
    }
    finite_extras = True
    for tag, (draw, check) in spec.streams.items():
        for chunk, size in _chunks(samples):
            sample = draw(_rng(seed, tag, n, m, chunk), size, n, m)
            for start in range(0, size, BLOCK):
                block = {k: v[start:start + BLOCK] for k, v in sample.items()}
                values, extras = check(block, n, m)
                values = np.asarray(values, dtype=float)
                finite = values[np.isfinite(values)]
                if finite.size:
                    worst = float(pick(finite))
                    if res["worst"] is None or not within(worst, res["worst"]):
                        res["worst"] = worst
                bad = ~within(values, tol)
                if bad.any():
                    res["violations"] += int(bad.sum())
                    if res["failing_sample"] is None:
                        b = int(np.argmax(bad))
                        res["failing_sample"] = {k: v[b].tolist() for k, v in block.items()}
                for field, value in extras.items():
                    if value is not None and not np.isfinite(value):
                        finite_extras = False
                    elif value is not None:
                        fold = spec.extras[field][1]
                        res[field] = value if res[field] is None else fold(res[field], value)
    res["passed"] = finite_extras and res["violations"] == 0 and all(
        limit is None or (res[field] >= limit if fold is min else res[field] <= limit)
        for field, (_, fold, limit) in spec.extras.items())
    return res


# name -> (callable(n, m, samples, seed, tol=None), configs)
SUITES = {name: (functools.partial(run_config, name), spec.configs)
          for name, spec in SPECS.items()}

# legacy-facing alias kept for the documented CLI surface
SUITE_ALIASES = {
    "thm32": "master",
}


def canonical_suite(name):
    name = SUITE_ALIASES.get(name, name)
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES) + sorted(SUITE_ALIASES)}")
    return name


def run_suite(name, n=None, m=None, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED,
              tol=None, exact=False):
    """Run one suite over its (n, m) configurations, or over the one forced
    by ``n`` (with ``m``, default ``n``), which ``run_config`` requires to
    lie in the suite's sweep.

    Returns a JSON-ready report dict with per-configuration results.
    Raises ValueError for samples < 1, for ``m`` without ``n`` and for a
    forced configuration outside the sweep.
    """
    name = canonical_suite(name)
    fn, configs = SUITES[name]
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if n is None and m is not None:
        raise ValueError("m can only be forced together with n")
    if n is not None:
        configs = [(n, n if m is None else m)]
    results = []
    for cn, cm in configs:
        results.append(fn(cn, cm, samples, seed, tol=tol))
    report = {
        "suite": name,
        "samples": samples,
        "seed": seed,
        "configs": results,
        "passed": all(r["passed"] for r in results),
    }
    if exact and SPECS[name].exact:
        ex = []
        for cn in (2, 3):
            for cm in range(2, cn + 1):
                ex.append({"n": cn, "m": cm,
                           **run_exact_checks(cn, cm, max(10, samples // 100), seed)})
        report["exact"] = ex
        report["passed"] = report["passed"] and all(e["violations"] == 0 for e in ex)
    return report
