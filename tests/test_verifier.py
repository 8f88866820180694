import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from areaflow import campaigns, verifier as vf
from areaflow.errors import HypothesisError, NotAreaDecreasingError
from areaflow.svcore import pair_flags, pair_index, spectrum

RNG = np.random.default_rng(20240811)


def draw_sample(n, m, rng=RNG):
    lam = campaigns.sample_spectra(rng, 1, n, m)[0]
    h = campaigns.sample_h(rng, 1, n, m)[0]
    sec1 = campaigns.sample_sec(rng, 1, n, -2, 2)[0]
    sec2 = campaigns.sample_sec(rng, 1, min(n, m), -2, 2)[0]
    rest = vf.restriction_from_lambdas(lam)
    return rest, vf.HCoefficients(h), vf.CurvatureSample(n, m, sec1, sec2)


def zero_h(n, m):
    return vf.HCoefficients(np.zeros((m, n, n)))


def test_h_coefficients_validation():
    h = np.zeros((2, 3, 3))
    h[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        vf.HCoefficients(h)
    h[0, 1, 0] = 1.0
    assert vf.HCoefficients(h).norm_sq() == 2.0


def test_curvature_sample_validation():
    with pytest.raises(ValueError):
        vf.CurvatureSample(3, 2, np.eye(3), np.zeros((2, 2)))
    ok = vf.CurvatureSample(3, 2, np.zeros((3, 3)), np.zeros((2, 2)))
    assert ok.sec2_at(2, 0) == 0  # beyond the stored block


def test_grad_restriction_zero_h():
    rest, _, _ = draw_sample(4, 3)
    grad = vf.grad_restriction(rest, zero_h(4, 3))
    assert np.allclose(np.asarray(grad, dtype=float), 0.0)


def test_grad_restriction_vanishing_spectrum():
    rest = vf.restriction_from_lambdas([0.0, 0.0, 0.0])
    _, H, _ = draw_sample(3, 3)
    grad = np.asarray(vf.grad_restriction(rest, H), dtype=float)
    for i in range(3):
        assert np.allclose(grad[i, i, :], 0.0)  # C_ii = 0 kills diagonals


def test_gradient_norm_identity():
    rest, H, _ = draw_sample(4, 2)
    grad = np.asarray(vf.grad_restriction(rest, H), dtype=float)
    c = rest.c
    for i, j in pair_index(4):
        lhs = np.sum((grad[i, i, :] + grad[j, j, :]) ** 2)
        rhs = 4.0 * sum(
            (vf._hval(H, i, k, i) * c[i] + vf._hval(H, j, k, j) * c[j]) ** 2
            for k in range(4))
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_evolution_rhs_zero_inputs():
    rest, _, _ = draw_sample(3, 2)
    out = vf.evolution_rhs(rest, zero_h(3, 2), vf.zero_curvature(3, 2))
    assert np.allclose(np.asarray(out, dtype=float), 0.0)


def test_evolution_rhs_flat_diagonal():
    n, m = 3, 2
    rest, H, _ = draw_sample(n, m)
    out = np.asarray(vf.evolution_rhs(rest, H, vf.zero_curvature(n, m)), dtype=float)
    st_vals = vf._stilde(rest, m)
    for i in range(n):
        expect = 2.0 * sum(H.h[a, k, i] ** 2 * (rest.s[i] + st_vals[a])
                           for a in range(m) for k in range(n))
        assert math.isclose(out[i, i], expect, rel_tol=1e-12, abs_tol=1e-12)


def test_pair_claim_zero_h():
    rest, _, _ = draw_sample(3, 3)
    assert vf.pair_claim_gap(rest, zero_h(3, 3), 0, 1) == 0


def test_pair_claim_sampled_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, n + 1))
        rest, H, _ = draw_sample(n, m, rng)
        for i, j in pair_index(n):
            assert vf.pair_claim_gap(rest, H, i, j) >= -1e-12


def test_pair_claim_requires_area_decreasing():
    rest = vf.restriction_from_lambdas([1.2, 1.0])
    with pytest.raises(NotAreaDecreasingError):
        vf.pair_claim_gap(rest, zero_h(2, 2), 0, 1)


# every statement that states the area-decreasing hypothesis, called with
# zero h and zero curvature; its guard must fire before any other check
GUARDED = {
    "pair_claim_gap": lambda rest, H, curv: vf.pair_claim_gap(rest, H, 0, 1),
    "gradient_square_term": lambda rest, H, curv: vf.gradient_square_term(rest, H),
    "curvature_term": lambda rest, H, curv: vf.curvature_term(rest, curv),
    "curvature_term_from_ambient":
        lambda rest, H, curv: vf.curvature_term_from_ambient(rest, curv),
    "master_inequality_gap": lambda rest, H, curv: vf.master_inequality_gap(rest, H, curv),
    "log_det_gradient": lambda rest, H, curv: vf.log_det_gradient(rest, H),
    "gradient_bound_check": lambda rest, H, curv: vf.gradient_bound_check(rest, H, 1.0),
    "regrouped_curvature_term": lambda rest, H, curv: vf.regrouped_curvature_term(rest, curv),
    "sectional_lower_bound_gap":
        lambda rest, H, curv: vf.sectional_lower_bound_gap(rest, curv, 1.0),
    "ricci_lower_bound_gap": lambda rest, H, curv: vf.ricci_lower_bound_gap(rest, curv, 1.0),
}


@pytest.mark.parametrize("lam", [[1.2, 1.0], [Fraction(6, 5), Fraction(1)]],
                         ids=["float", "fraction"])
@pytest.mark.parametrize("statement", sorted(GUARDED))
def test_guarded_statement_requires_area_decreasing(statement, lam):
    rest = vf.restriction_from_lambdas(lam)
    with pytest.raises(NotAreaDecreasingError, match=r"pair \(0,1\) has product 1\.2"):
        GUARDED[statement](rest, zero_h(2, 2), vf.zero_curvature(2, 2))


@pytest.mark.parametrize("n, m, per_sample", [(2, 2, 1), (3, 3, 3)])
def test_exact_block_evaluates_the_guard_once_per_sample(monkeypatch, n, m, per_sample):
    """One pair_flags call per pair of each exact sample, however many
    guarded statements the block evaluates on it."""
    calls = []

    def counted(pair_sq):
        calls.append(pair_sq)
        return pair_flags(pair_sq)

    monkeypatch.setattr(vf, "pair_flags", counted)
    campaigns._exact_block.__wrapped__(n, m, 81, 7)
    assert len(calls) == 81 * per_sample


@given(st.floats(0.0, 1.3), st.floats(0.0, 1.3))
def test_pair_key_identity(l1, l2):
    lam = sorted([l1, l2], reverse=True)
    if lam[0] * lam[1] >= 0.99:
        lam = [v * 0.7 for v in lam]
    rest = vf.restriction_from_lambdas(lam)
    assert abs(vf.pair_key_identity_residual(rest, 0, 1)) <= 1e-12


def test_gradient_square_term_zeroes():
    rest, H, _ = draw_sample(3, 2)
    assert vf.gradient_square_term(rest, zero_h(3, 2)) == 0
    flat = vf.restriction_from_lambdas([0.0, 0.0, 0.0])
    assert vf.gradient_square_term(flat, H) == 0  # every summand carries C


def test_curvature_term_zeroes():
    rest, _, curv = draw_sample(4, 3)
    assert vf.curvature_term(rest, vf.zero_curvature(4, 3)) == 0
    flat = vf.restriction_from_lambdas([0.0] * 4)
    assert vf.curvature_term(flat, curv) == 0


def test_curvature_term_n2_closed_form():
    lam = [0.8, 0.4]
    rest = vf.restriction_from_lambdas(lam)
    sec1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    curv = vf.CurvatureSample(2, 2, sec1, np.zeros((2, 2)))
    l1, l2 = lam
    s = rest.s
    expect = 2.0 / (s[0] + s[1]) * (
        l1**2 / (1 + l1**2) ** 2 / (1 + l2**2)
        + l2**2 / (1 + l2**2) ** 2 / (1 + l1**2))
    assert math.isclose(vf.curvature_term(rest, curv), expect, rel_tol=1e-13)


def test_curvature_term_routes_agree():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, n + 1))
        rest, _, curv = draw_sample(n, m, rng)
        a = vf.curvature_term(rest, curv)
        b = vf.curvature_term_from_ambient(rest, curv)
        assert math.isclose(a, b, rel_tol=1e-11, abs_tol=1e-11)


def test_master_gap_zero_inputs():
    rest, _, _ = draw_sample(4, 2)
    gap = vf.master_inequality_gap(rest, zero_h(4, 2), vf.zero_curvature(4, 2))
    assert abs(gap) <= 1e-12


def test_master_gap_sampled():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, n + 1))
        rest, H, curv = draw_sample(n, m, rng)
        assert vf.master_inequality_gap(rest, H, curv) >= -1e-10


def test_master_gap_permutation_invariant():
    n, m = 4, 4
    rng = np.random.default_rng(3)
    lam = np.sort(rng.uniform(0.1, 0.9, n))[::-1]
    h = campaigns.sample_h(rng, 1, n, m)[0]
    sec1 = campaigns.sample_sec(rng, 1, n, -1, 1)[0]
    sec2 = campaigns.sample_sec(rng, 1, n, -1, 1)[0]
    base = vf.master_inequality_gap(
        vf.restriction_from_lambdas(lam), vf.HCoefficients(h),
        vf.CurvatureSample(n, m, sec1, sec2))
    perm = np.array([2, 0, 3, 1])
    lam_p = lam[perm]
    h_p = h[perm][:, perm][:, :, perm]
    sec1_p = sec1[perm][:, perm]
    sec2_p = sec2[perm][:, perm]
    permuted = vf.master_inequality_gap(
        vf.restriction_from_lambdas(lam_p), vf.HCoefficients(h_p),
        vf.CurvatureSample(n, m, sec1_p, sec2_p))
    assert math.isclose(base, permuted, rel_tol=1e-12, abs_tol=1e-12)


def test_master_gap_matches_kernel():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, n + 1))
        lam = campaigns.sample_spectra(rng, 1, n, m)
        h = campaigns.sample_h(rng, 1, n, m)
        sec1 = campaigns.sample_sec(rng, 1, n, -2, 2)
        block = campaigns.sample_sec(rng, 1, min(n, m), -2, 2)
        kern = float(campaigns.master_gaps(lam, h)[0])
        ref = vf.master_inequality_gap(
            vf.restriction_from_lambdas(lam[0]), vf.HCoefficients(h[0]),
            vf.CurvatureSample(n, m, sec1[0], block[0]))
        assert math.isclose(kern, ref, rel_tol=1e-9, abs_tol=1e-9)


def test_phi_pinch_bounds_values():
    lam2_max, pair_max, c1 = vf.phi_pinch_bounds(4, math.log(2.0))
    assert math.isclose(lam2_max, 1.0)
    assert math.isclose(pair_max, 1.0 / 3.0)
    assert math.isclose(c1, 3 * (1.0 + (1.0 / 3.0) * 1.5))
    for n in (2, 5):
        a = vf.phi_pinch_bounds(n, 1e-9)
        assert a[0] < 1e-8 and a[1] < 1e-8
    with pytest.raises(ValueError):
        vf.phi_pinch_bounds(3, 0.0)


def test_gradient_bound_trivial_cases():
    rest, H, _ = draw_sample(3, 3)
    delta = -vf._phi_from_rest(rest) + 0.5
    assert vf.gradient_bound_check(rest, zero_h(3, 3), delta)
    flat = vf.restriction_from_lambdas([0.0, 0.0, 0.0])
    assert vf.gradient_bound_check(flat, H, 0.5)


def test_gradient_bound_sampled_and_hypothesis():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, n + 1))
        rest, H, _ = draw_sample(n, m, rng)
        value = vf._phi_from_rest(rest)
        assert vf.gradient_bound_check(rest, H, -value + 0.1)
    with pytest.raises(HypothesisError):
        tight = vf.restriction_from_lambdas([0.9, 0.8])
        vf.gradient_bound_check(tight, zero_h(2, 2), 1e-6)


def test_triple_weight_values():
    assert vf.triple_weight(0.0, 0.0, 0.7) == 0
    assert vf.triple_weight(1.0, 1.0, 0.0) == 0
    with pytest.raises(ValueError):
        vf.triple_weight(1.5, 0.5, 0.8)


@given(st.floats(0, 1.2), st.floats(0, 1.2), st.floats(0, 1.2))
def test_triple_weight_symmetric_and_forms_agree(a, b, c):
    if max(a * c, b * c) >= 0.999 or a * b >= 0.999:
        a, b, c = a * 0.6, b * 0.6, c * 0.6
    assert math.isclose(vf.triple_weight(a, b, c), vf.triple_weight(b, a, c),
                        rel_tol=1e-14, abs_tol=1e-15)
    assert math.isclose(vf.triple_weight(a, b, c),
                        vf.triple_weight_expanded(a, b, c),
                        rel_tol=1e-12, abs_tol=1e-12)
    if a * b < 1.0:
        assert vf.triple_weight(a, b, c) >= 0.0


def test_regroup_residual():
    rng = np.random.default_rng(31)
    rest, _, curv = draw_sample(3, 3, rng)
    assert vf.ricci_regroup_residual(rest, curv) <= 1e-10
    rest2, _, curv2 = draw_sample(2, 2, rng)
    assert vf.ricci_regroup_residual(rest2, curv2) <= 1e-12
    assert vf.ricci_regroup_residual(rest, vf.zero_curvature(3, 3)) == 0


def test_sectional_gap_trivial_and_tight():
    n, m = 3, 2
    flat = vf.restriction_from_lambdas([0.0] * n)
    tau = 0.7
    sec1 = np.ones((n, n)) - np.eye(n)
    sec2 = tau * (np.ones((2, 2)) - np.eye(2))
    curv = vf.CurvatureSample(n, m, sec1, sec2)
    assert abs(vf.sectional_lower_bound_gap(flat, curv, tau)) <= 1e-14
    rng = np.random.default_rng(41)
    for _ in range(100):
        lam = campaigns.sample_spectra(rng, 1, n, m)[0]
        rest = vf.restriction_from_lambdas(lam)
        assert vf.sectional_lower_bound_gap(rest, curv, tau) >= -1e-10


def test_sectional_gap_hypothesis_errors():
    rest, _, _ = draw_sample(3, 2)
    bad1 = vf.CurvatureSample(3, 2, 0.5 * (np.ones((3, 3)) - np.eye(3)),
                              np.zeros((2, 2)))
    with pytest.raises(HypothesisError):
        vf.sectional_lower_bound_gap(rest, bad1, 0.5)
    good_sec1 = np.ones((3, 3)) - np.eye(3)
    bad2 = vf.CurvatureSample(3, 2, good_sec1, 2.0 * (np.ones((2, 2)) - np.eye(2)))
    with pytest.raises(HypothesisError):
        vf.sectional_lower_bound_gap(rest, bad2, 0.5)


def test_m2_claim_terms_nonnegative():
    rng = np.random.default_rng(43)
    for _ in range(300):
        lam = campaigns.sample_spectra(rng, 1, 2, 2)[0]
        rest = vf.restriction_from_lambdas(lam)
        pair, cross = vf.m2_claim_terms(rest, 0, 1)
        assert pair >= 0 and cross >= 0


def test_m2_cross_is_the_triple_weight_at_zero():
    """The cross display reads triple_weight(li, lj, 0): the same Fraction
    and the same float bits as its written-out form."""
    def written_out(li, lj):
        return ((li - lj) ** 2 + 2 * li * lj * (1 - li * lj)) / (2 * (1 + li**2) * (1 + lj**2))

    rng = np.random.default_rng(44)
    samples = [lam for lam, *_ in campaigns.exact_samples(44, 200, 3, 3)]
    samples += [list(lam) for lam in campaigns.sample_spectra(rng, 200, 3, 3)]
    for lam in samples:
        rest = vf.restriction_from_lambdas(lam)
        for i, j in pair_index(3):
            cross = vf.m2_claim_terms(rest, i, j)[1]
            ref = written_out(rest.lam[i], rest.lam[j])
            assert cross == ref and type(cross) is type(ref)


def test_ricci_gap_trivial_case():
    n = 3
    sigma = 0.8
    sec1 = sigma * (np.ones((n, n)) - np.eye(n))
    sec2 = sigma * (np.ones((n, n)) - np.eye(n))
    curv = vf.CurvatureSample(n, n, sec1, sec2)
    flat = vf.restriction_from_lambdas([0.0] * n)
    gap, bound = vf.ricci_lower_bound_gap(flat, curv, sigma)
    assert gap == 0 and bound == 0


def test_ricci_gap_sampled():
    rng = np.random.default_rng(47)
    count = 0
    while count < 100:
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, n + 1))
        sigma = rng.uniform(0.1, 1.5)
        sec1 = campaigns.sample_sec(rng, 1, n, -0.9 * sigma, 3 * sigma + 2)[0]
        if (sec1.sum(axis=1) < (n - 1) * sigma).any():
            continue
        sec2 = campaigns.sample_sec(rng, 1, min(n, m), sigma - 3, sigma)[0]
        lam = campaigns.sample_spectra(rng, 1, n, m)[0]
        rest = vf.restriction_from_lambdas(lam)
        curv = vf.CurvatureSample(n, m, sec1, sec2)
        gap, bound = vf.ricci_lower_bound_gap(rest, curv, sigma)
        assert gap >= -1e-10
        assert bound >= -1e-12
        count += 1


def test_ricci_gap_hypothesis_error():
    n = 3
    sigma = 0.5
    sec1 = sigma * (np.ones((n, n)) - np.eye(n))
    sec2 = 2 * sigma * (np.ones((n, n)) - np.eye(n))  # violates sec2 <= sigma
    curv = vf.CurvatureSample(n, n, sec1, sec2)
    rest = vf.restriction_from_lambdas([0.3, 0.2, 0.1])
    with pytest.raises(HypothesisError):
        vf.ricci_lower_bound_gap(rest, curv, sigma)


def test_exact_rational_mode():
    lam = [Fraction(1, 2), Fraction(1, 3)]
    rest = vf.restriction_from_lambdas(lam)
    assert rest.s[0] == Fraction(3, 5) and rest.c[0] == Fraction(4, 5)
    h = np.empty((2, 2, 2), dtype=object)
    vals = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(1, 7),
            Fraction(0), Fraction(3, 4)]
    it = iter(vals)
    for a in range(2):
        for k in range(2):
            for i in range(k, 2):
                v = next(it)
                h[a, k, i] = v
                h[a, i, k] = v
    H = vf.HCoefficients(h)
    sec1 = np.array([[Fraction(0), Fraction(1, 3)], [Fraction(1, 3), Fraction(0)]],
                    dtype=object)
    curv = vf.CurvatureSample(2, 2, sec1, sec1)
    gap = vf.master_inequality_gap(rest, H, curv)
    assert isinstance(gap, Fraction)
    assert gap == 0  # at n = m = 2 the inequality is an identity
    assert vf.ricci_regroup_residual(rest, curv) == 0
    assert vf.pair_claim_gap(rest, H, 0, 1) == 0


def test_exact_campaign_runner():
    stats = campaigns.run_exact_checks(3, 2, 15, seed=2)
    assert stats["violations"] == 0
    assert stats["regroup_exact_zero"]
    assert stats["master_min"] >= 0
    # the block is memoised; a caller that edits its dict edits only its copy
    expected = dict(stats)
    stats["violations"] = 99
    stats["master_min"] = -1.0
    assert campaigns.run_exact_checks(3, 2, 15, seed=2) == expected


# ---------------------------------------------------------------------------
# master_inequality_gap, pair_claim_gap and ricci_regroup_residual as they
# were written before their Fraction operations were trimmed: every entry of
# the evolution right side, the pair-operator squares weighted one k at a
# time, each row sum of R_S formed once per pair, and the loops as stated.
# In exact arithmetic the trimmed statements must return the same Fraction.


def _ref_evolution_rhs(rest, H, curv):
    n, m = len(rest.lam), H.m
    s = rest.s
    st = vf._stilde(rest, m)
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            acc = 0
            for k in range(n):
                for a in range(m):
                    acc = acc + H.h[a, k, i] * H.h[a, k, j] * (s[i] + s[j] + 2 * st[a])
            out[i, j] = acc
            out[j, i] = acc
    for i in range(n):
        curv_sum = sum(vf.ambient_curvature_entry(rest, curv, i, k) for k in range(n))
        out[i, i] = out[i, i] - 2 * rest.c[i] * curv_sum
    return out


def _ref_grad_restriction(rest, H):
    n = len(rest.lam)
    c = rest.c
    out = np.empty((n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j, k] = -(vf._hval(H, j, k, i) * c[j] + vf._hval(H, i, k, j) * c[i])
    return out


def _ref_gradient_square_term(rest, H):
    vf._require_area_decreasing(rest)
    n = len(rest.lam)
    s, c = rest.s, rest.c
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            inv2 = 1 / (s[i] + s[j]) ** 2
            for k in range(n):
                a, b = vf._hval(H, i, k, i), vf._hval(H, j, k, j)
                total = total + inv2 * (a * c[i] + b * c[j]) ** 2
                total = total + inv2 * (a * c[j] + b * c[i]) ** 2
    return total


def _ref_curvature_term(rest, curv):
    vf._require_area_decreasing(rest)
    n = len(rest.lam)
    s, c = rest.s, rest.c

    def row(i):
        acc = 0
        for k in range(n):
            acc = acc + (1 + s[k]) * curv.sec1[i, k] - (1 - s[k]) * curv.sec2_at(i, k)
        return acc

    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total = total + (c[i] ** 2 * row(i) + c[j] ** 2 * row(j)) / (4 * (s[i] + s[j]))
    return total


def _ref_master_inequality_gap(rest, H, curv):
    vf._require_area_decreasing(rest)
    n = len(rest.lam)
    s = rest.s
    pairs = pair_index(n)
    q = [1 / (s[i] + s[j]) for i, j in pairs]
    rhs = _ref_evolution_rhs(rest, H, curv)
    energy = sum(q[A] * (rhs[i, i] + rhs[j, j]) for A, (i, j) in enumerate(pairs))
    grad = _ref_grad_restriction(rest, H)
    for k in range(n):
        gk = vf._pair_operator_rows([[grad[i, j, k] for j in range(n)] for i in range(n)], pairs)
        for A in range(len(pairs)):
            for B in range(len(pairs)):
                energy = energy + q[A] * q[B] * gk[A][B] ** 2
    diag_h_sq = sum(vf._hval(H, i, k, i) ** 2 for i in range(n) for k in range(n))
    bound = (2 * H.norm_sq() + 2 * (n - 2) * diag_h_sq
             + 2 * _ref_curvature_term(rest, curv) + 2 * _ref_gradient_square_term(rest, H))
    return energy - bound


def _ref_pair_claim_gap(rest, H, i, j):
    vf._require_area_decreasing(rest)
    n = len(rest.lam)
    m = H.m
    s, c = rest.s, rest.c
    st = vf._stilde(rest, m)
    sij = s[i] + s[j]
    hv = vf._hval
    term_i = 0
    for k in range(n):
        for l in range(m):
            term_i = term_i + H.h[l, k, i] ** 2 * (s[i] + st[l]) \
                + H.h[l, k, j] ** 2 * (s[j] + st[l])
    term_ii = sum((hv(H, i, k, i) * c[i] + hv(H, j, k, j) * c[j]) ** 2 for k in range(n)) / sij
    rhs = 0
    for k in range(n):
        sq = hv(H, j, k, i) ** 2 + hv(H, i, k, j) ** 2 + hv(H, i, k, i) ** 2 + hv(H, j, k, j) ** 2
        for l in range(n, m):
            sq = sq + H.h[l, k, i] ** 2 + H.h[l, k, j] ** 2
        rhs = rhs + sij * sq
        rhs = rhs + (hv(H, i, k, i) * c[j] + hv(H, j, k, j) * c[i]) ** 2 / sij
    return term_i + term_ii - rhs


def _ref_triple_weight(li, lj, lk):
    d1 = 1 - li**2 * lk**2
    d2 = 1 - lj**2 * lk**2
    num = (li - lj) ** 2 * (1 + li**2 * lj**2 * lk**2) \
        + 2 * li * lj * (1 - li * lj * lk**2) * (1 - li * lj)
    return (1 + lk**2) * num / (2 * (1 + li**2) * (1 + lj**2) * d1 * d2)


def _ref_ricci_regroup_residual(rest, curv):
    vf._require_area_decreasing(rest)
    n = len(rest.lam)
    lam, s, c = rest.lam, rest.s, rest.c

    def X(i):
        return curv.ric1(i) - curv.ric2(i)

    def W(i, j):
        return curv.sec1[i, j] + curv.sec2_at(i, j)

    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total = total + (c[i] ** 2 * X(i) + c[j] ** 2 * X(j)) / (4 * (s[i] + s[j]))
            total = total + vf._pair_weight(lam[i], lam[j]) * W(i, j)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = total + _ref_triple_weight(lam[i], lam[j], lam[k]) * W(i, j)
                total = total + _ref_triple_weight(lam[j], lam[k], lam[i]) * W(j, k)
                total = total + _ref_triple_weight(lam[i], lam[k], lam[j]) * W(i, k)
    return abs(_ref_curvature_term(rest, curv) - total)


def _float_draws_as_fractions(n, m, count):
    """Kernel float draws (boundary stratum first) as exact Fractions."""
    rng = campaigns._rng(11, "master", n, m, 0)
    exact = np.vectorize(Fraction, otypes=[object])
    lam = exact(campaigns.sample_spectra(rng, count, n, m))
    h = exact(campaigns.sample_h(rng, count, n, m))
    sec1 = exact(campaigns.sample_sec(rng, count, n, -2.0, 2.0))
    sec2 = exact(campaigns.sample_sec(rng, count, min(n, m), -2.0, 2.0))
    return [(list(lam[b]), h[b], sec1[b], sec2[b]) for b in range(count)]


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3), (2, 3), (4, 2), (4, 4)])
def test_trimmed_statements_equal_their_references(n, m):
    """(2, 3) reaches the normal directions beyond n that the pair claim
    retains; the exact block itself never has m > n."""
    if n <= 3:
        samples = [s for seed in range(1, 6) for s in campaigns.exact_samples(seed, 8, n, m)]
    else:
        samples = _float_draws_as_fractions(n, m, 6)
    for lam, h, sec1, sec2 in samples:
        rest = vf.restriction_from_lambdas(lam)
        H = vf.HCoefficients(h)
        curv = vf.CurvatureSample(n, m, sec1, sec2)
        gap = vf.master_inequality_gap(rest, H, curv)
        assert isinstance(gap, Fraction)
        assert gap == _ref_master_inequality_gap(rest, H, curv)
        for i, j in pair_index(n):
            assert vf.pair_claim_gap(rest, H, i, j) == _ref_pair_claim_gap(rest, H, i, j)
        assert vf.ricci_regroup_residual(rest, curv) == _ref_ricci_regroup_residual(rest, curv)
        assert (vf.evolution_rhs(rest, H, curv) == _ref_evolution_rhs(rest, H, curv)).all()
