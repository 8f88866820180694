import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from areaflow import campaigns, svcore, verifier
from areaflow.errors import NotAreaDecreasingError
from areaflow.flowsim import equivariant, torus

# strategies for sorted area-decreasing spectra
lam_entry = st.floats(0.0, 1.4, allow_nan=False)


def ad_spectrum(draw, n, lam_max=1.4):
    lam = sorted((draw(st.floats(0.0, lam_max)) for _ in range(n)), reverse=True)
    return lam


@st.composite
def spectra(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    lam = sorted((draw(lam_entry) for _ in range(n)), reverse=True)
    if n >= 2 and lam[0] * lam[1] >= 0.999:
        scale = math.sqrt(0.95 / (lam[0] * lam[1]))
        lam = [v * scale for v in lam]
    return svcore.spectrum(lam)


def phi(spec):
    """Phi of one spectrum through the batched kernel the program runs."""
    return float(svcore.phi_batch(spec.lam[None, :])[0])


def restriction(spec):
    return verifier.restriction_from_lambdas(spec.lam)


def test_two_dilation_examples():
    assert svcore.two_dilation(svcore.spectrum([2.0, 2.0, 0.0])) == 4.0
    hopf = svcore.spectrum([1.0] * 6 + [0.0])
    assert svcore.two_dilation(hopf) == 1.0
    assert math.isclose(svcore.two_dilation(svcore.spectrum([0.9, 0.5])), 0.45)
    with pytest.raises(ValueError):
        svcore.two_dilation(svcore.spectrum([1.0]))


def test_is_area_decreasing_strictness():
    for lam, ok in (([0.9, 0.9], True), ([1.0, 1.0], False), ([2.0, 0.4], True)):
        spec = svcore.spectrum(lam)
        assert (svcore.two_dilation(spec) < 1.0) == ok
        if ok:
            verifier._require_area_decreasing(restriction(spec))
        else:
            with pytest.raises(NotAreaDecreasingError):
                verifier._require_area_decreasing(restriction(spec))


def test_s_restriction_values():
    rest = restriction(svcore.spectrum([0.0, 1.0, 2.0][::-1]))
    lam = rest.lam
    for i, l in enumerate(lam):
        if l == 0.0:
            assert (rest.s[i], rest.c[i]) == (1.0, 0.0)
        if l == 1.0:
            assert math.isclose(rest.s[i], 0.0, abs_tol=1e-15)
            assert math.isclose(rest.c[i], 1.0)
        if l == 2.0:
            assert math.isclose(rest.s[i], -0.6)
            assert math.isclose(rest.c[i], 0.8)


@given(spectra())
def test_restriction_circle_identity(spec):
    rest = restriction(spec)
    assert np.all(np.abs(rest.s**2 + rest.c**2 - 1.0) <= 1e-14)


def test_s_two_matrix_identity():
    out = svcore.s_two_matrix(np.eye(4))
    assert np.allclose(out, 2.0 * np.eye(6))


def test_s_two_matrix_diagonal():
    s = np.array([0.2, -0.1, 0.7])
    out = svcore.s_two_matrix(np.diag(s))
    pairs = svcore.pair_index(3)
    expect = np.diag([s[i] + s[j] for i, j in pairs])
    assert np.allclose(out, expect)


def test_s_two_matrix_single_off_diagonal():
    t = 0.37
    S = np.zeros((3, 3))
    S[0, 1] = S[1, 0] = t
    out = svcore.s_two_matrix(S)
    pairs = svcore.pair_index(3)
    A = pairs.index((0, 2))
    B = pairs.index((1, 2))
    assert math.isclose(out[A, B], t)
    assert math.isclose(out[B, A], t)


def test_s_two_matrix_stack_matches_single():
    rng = np.random.default_rng(3)
    S = rng.normal(size=(5, 4, 4))
    S = S + np.swapaxes(S, -1, -2)
    out = svcore.s_two_matrix(S)
    assert out.shape == (5, 6, 6)
    for b in range(5):
        assert np.array_equal(out[b], svcore.s_two_matrix(S[b]))


def test_phi_batch_keeps_dtype_and_matches_phi():
    lam = np.array([[0.5, 0.5, 0.0], [0.9, 0.3, 0.1]])
    out = svcore.phi_batch(lam.astype(np.longdouble))
    assert out.dtype == np.longdouble
    for row, value in zip(lam, svcore.phi_batch(lam)):
        scalar = verifier._phi_from_rest(verifier.restriction_from_lambdas(row))
        assert math.isclose(value, scalar, rel_tol=1e-15)
    assert math.isclose(float(out[0]), math.log(0.6) - 2 * math.log(1.25))


def _s_two_matrix_by_deltas(S):
    """The per-entry assembly that the index table replaced: every entry is
    S_ik d_jl + S_jl d_ik - S_il d_jk - S_jk d_il."""
    pairs = svcore.pair_index(S.shape[-1])
    out = np.zeros(S.shape[:-2] + (len(pairs), len(pairs)))
    for A, (i, j) in enumerate(pairs):
        for B, (k, l) in enumerate(pairs):
            out[..., A, B] = (S[..., i, k] * (j == l) + S[..., j, l] * (i == k)
                              - S[..., i, l] * (j == k) - S[..., j, k] * (i == l))
    return out


def _phi_batch_by_pairs(lam):
    """The pair loop that took log1p(l_i^2) once per pair."""
    sq = lam * lam
    total = np.zeros(lam.shape[0], dtype=lam.dtype)
    for i, j in svcore.pair_index(lam.shape[1]):
        total += np.log1p(-sq[:, i] * sq[:, j]) - np.log1p(sq[:, i]) - np.log1p(sq[:, j])
    return total


def test_s_two_matrix_table_matches_deltas_bit_for_bit():
    rng = np.random.default_rng(21)
    for n in range(1, 9):
        S = rng.normal(size=(64, n, n))
        S = S + np.swapaxes(S, -1, -2)
        out = svcore.s_two_matrix(S)
        assert np.array_equal(out, _s_two_matrix_by_deltas(S))
        assert np.array_equal(svcore.s_two_matrix(S[0]), _s_two_matrix_by_deltas(S[0]))
        D = np.zeros_like(S)
        D[:, range(n), range(n)] = rng.uniform(-1.0, 1.0, (64, n))
        ref = _s_two_matrix_by_deltas(D)
        assert np.array_equal(svcore.s_two_matrix(D), ref)
        assert np.array_equal(np.linalg.slogdet(svcore.s_two_matrix(D))[1],
                              np.linalg.slogdet(ref)[1])


def test_phi_batch_matches_pair_loop_bit_for_bit():
    rng = np.random.default_rng(22)
    for n in range(1, 9):
        lam = -np.sort(-rng.uniform(0.0, 1.0, (512, n)), axis=1)
        for dtype in (np.float64, np.longdouble):
            got = svcore.phi_batch(lam.astype(dtype))
            assert got.dtype == dtype
            assert np.array_equal(got, _phi_batch_by_pairs(lam.astype(dtype)))


def test_s_two_matrix_requires_symmetry():
    S = np.zeros((3, 3))
    S[0, 1] = 1e-6
    with pytest.raises(ValueError):
        svcore.s_two_matrix(S)


@given(st.integers(3, 6), st.data())
def test_s_two_matrix_disjoint_pairs_vanish(n, data):
    vals = data.draw(st.lists(st.floats(-2, 2), min_size=n * n, max_size=n * n))
    S = np.array(vals).reshape(n, n)
    S = 0.5 * (S + S.T)
    out = svcore.s_two_matrix(S)
    pairs = svcore.pair_index(n)
    for A, (i, j) in enumerate(pairs):
        for B, (k, l) in enumerate(pairs):
            if not ({i, j} & {k, l}):
                assert out[A, B] == 0.0


def test_phi_examples():
    assert phi(svcore.spectrum([0.0, 0.0, 0.0])) == 0.0
    assert math.isclose(phi(svcore.spectrum([0.5, 0.5])), math.log(0.6))
    assert math.isclose(phi(svcore.spectrum([1.0, 0.0])), math.log(0.5))
    assert phi(svcore.spectrum([3.0])) == 0.0  # empty product at n = 1


def test_phi_rejects_boundary():
    for lam in ([1.0, 1.0], [2.0, 0.5]):
        assert svcore.pair_flags((lam[0] * lam[1]) ** 2)
        with pytest.raises(NotAreaDecreasingError):
            verifier._phi_from_rest(restriction(svcore.spectrum(lam)))


# the pair product whose float square is 1 - PAIR_PRODUCT_GUARD
_EDGE = math.sqrt(1.0 - svcore.PAIR_PRODUCT_GUARD)


@pytest.mark.parametrize("pair, flagged", [(math.nextafter(_EDGE, 0.0), False),
                                           (_EDGE, True), (math.nextafter(_EDGE, 2.0), True)],
                         ids=["below", "edge", "above"])
def test_one_guard_flags_the_same_pair_products(pair, flagged):
    """pair^2 = 1 - PAIR_PRODUCT_GUARD and the squares of the floats on either
    side of its root: every guarded check flags exactly the same inputs."""
    assert (pair * pair == 1.0 - svcore.PAIR_PRODUCT_GUARD) == (pair == _EDGE)
    assert svcore.pair_flags(pair * pair) == flagged
    closed = np.zeros((2, 2, 1, 1))     # (2, 2) closed form, D = pair
    by_svd = np.zeros((3, 2, 1, 1))     # SVD path, spectrum (1, pair)
    for df in (closed, by_svd):
        df[0, 0], df[1, 1] = pair, 1.0
        assert torus.pointwise_phi_stats(df)[3] == flagged
    assert equivariant.pointwise_phi_stats(np.array([pair]), np.array([1.0]))[3] == flagged
    rest = verifier.restriction_from_lambdas([1.0, pair])
    if flagged:
        with pytest.raises(NotAreaDecreasingError):
            verifier._require_area_decreasing(rest)
    else:
        verifier._require_area_decreasing(rest)
    assert set(_guard_decisions(1.0, pair).values()) == {flagged}


def _guard_decisions(l1, l2):
    """Whether each guarded route flags the spectrum (l1, l2), l1 >= l2."""
    rest = verifier.restriction_from_lambdas([l1, l2])
    H = verifier.HCoefficients(np.zeros((2, 2, 2)))

    def rejects(route, *args):
        try:
            route(rest, *args)
        except NotAreaDecreasingError:
            return True
        return False

    closed = np.zeros((2, 2, 1, 1))     # (2, 2) closed form
    by_svd = np.zeros((3, 3, 1, 1))     # SVD path, spectrum (l1, l2, 0)
    for df in (closed, by_svd):
        df[0, 0], df[1, 1] = l1, l2
    return {"_require_area_decreasing": rejects(verifier._require_area_decreasing),
            "_phi_from_rest": rejects(verifier._phi_from_rest),
            "gradient_bound_check": rejects(verifier.gradient_bound_check, H, 100.0),
            "log_det_gradient": rejects(verifier.log_det_gradient, H),
            "torus_closed_form": torus.pointwise_phi_stats(closed)[3],
            "torus_svd": torus.pointwise_phi_stats(by_svd)[3],
            "equivariant": equivariant.pointwise_phi_stats(np.array([l1]), np.array([l2]))[3]}


@pytest.mark.parametrize("l1, l2, flagged", [(1.238486049109887, 0.8074374359878381, False),
                                             (1.2683653259749783, 0.7884163809281889, True)],
                         ids=["pair_sq_below", "pair_sq_at_limit"])
def test_one_guard_flags_the_same_spectra(l1, l2, flagged):
    """Spectra not of the form (1, x), where squaring the pair product,
    (l1 l2)^2, and squaring each value first, l1^2 l2^2, round to different
    sides of the guard: every guarded route decides by (l1 l2)^2."""
    assert svcore.pair_flags((l1 * l2) ** 2) == flagged
    assert svcore.pair_flags(l1**2 * l2**2) != flagged
    decisions = _guard_decisions(l1, l2)
    assert decisions == dict.fromkeys(decisions, flagged)


def test_one_guard_flags_the_same_edge_sample():
    """2,000 seeded spectra (l1, l2) with l1 l2 at the guard's root or one
    ulp of l2 to either side: every route flags exactly the spectra that
    pair_flags((l1 l2)^2) flags.  Squaring each value first decides some of
    them differently, so the sample tells the two squarings apart."""
    rng = np.random.default_rng(24)
    l1 = rng.uniform(1.0, 2.0, 2000)
    l2 = _EDGE / l1
    step = rng.integers(-1, 2, l1.size)
    l2 = np.where(step < 0, np.nextafter(l2, 0.0), np.where(step > 0, np.nextafter(l2, 2.0), l2))
    flagged = svcore.pair_flags((l1 * l2) ** 2)
    assert 0 < flagged.sum() < l1.size
    assert np.any(flagged != svcore.pair_flags(l1**2 * l2**2))
    disagree = [(a, b) for a, b, f in zip(l1.tolist(), l2.tolist(), flagged.tolist())
                if set(_guard_decisions(a, b).values()) != {f}]
    assert disagree == []


@pytest.mark.parametrize("m, n", [(3, 2), (2, 3)])
def test_two_value_torus_monitor_flags_the_same_edge_sample(m, n):
    """The edge sample above, each spectrum fed as a one-node m x n df
    diag(l1, l2): the torus monitor at min(m, n) = 2 decides by
    (l1 l2)^2 too (LAPACK's singular values, 2 ulp off, decided 12 of them
    differently at each shape)."""
    rng = np.random.default_rng(24)
    l1 = rng.uniform(1.0, 2.0, 2000)
    l2 = _EDGE / l1
    step = rng.integers(-1, 2, l1.size)
    l2 = np.where(step < 0, np.nextafter(l2, 0.0), np.where(step > 0, np.nextafter(l2, 2.0), l2))
    flagged = svcore.pair_flags((l1 * l2) ** 2)
    df = np.zeros((m, n, 1, 1))
    disagree = []
    for a, b, f in zip(l1.tolist(), l2.tolist(), flagged.tolist()):
        df[0, 0], df[1, 1] = a, b
        if torus.pointwise_phi_stats(df)[3] != f:
            disagree.append((a, b))
    assert 0 < flagged.sum() < l1.size
    assert disagree == []


_LIMIT = 1.0 - svcore.PAIR_PRODUCT_GUARD


@pytest.mark.parametrize("pair_sq", [math.nextafter(_LIMIT, 0.0), _LIMIT,
                                     math.nextafter(_LIMIT, 2.0)],
                         ids=["below", "limit", "above"])
def test_fraction_guard_decides_as_the_float_comparison(pair_sq):
    """A Fraction compares with the guard limit converted once; the
    decision is the one the Fraction-against-float comparison makes."""
    exact = Fraction(pair_sq)
    for x in (exact, exact - Fraction(1, 10**40), exact + Fraction(1, 10**40)):
        assert svcore.pair_flags(x) is (x >= _LIMIT)
    assert svcore.pair_flags(exact) is svcore.pair_flags(pair_sq) is (pair_sq >= _LIMIT)


@given(spectra())
def test_phi_nonpositive(spec):
    assert phi(spec) <= 0.0


@given(spectra(min_n=2, max_n=5), st.integers(0, 4), st.floats(1e-4, 1e-2))
def test_phi_strictly_decreasing_by_finite_difference(spec, idx, eps):
    idx = idx % spec.n
    lam = spec.lam.copy()
    if lam[idx] < 1e-3 or lam[0] * lam[1] > 0.9:
        lam = lam * 0.5 + 0.05
    base = svcore.spectrum(lam)
    bumped = svcore.spectrum(np.sort(lam + np.eye(1, spec.n, idx)[0] * eps)[::-1])
    assert phi(bumped) < phi(base)


def test_log_det_examples():
    lam = np.array([[0.0] * 3])
    assert math.isclose(float(campaigns.logdet_pair_formula(lam)[0]), 3 * math.log(2.0))
    lam = np.array([[0.5, 0.5]])
    assert math.isclose(float(campaigns.logdet_pair_formula(lam)[0]), math.log(1.2))


@given(spectra(max_n=7))
def test_log_det_matches_oracle(spec):
    lam = spec.lam[None, :]
    assert math.isclose(float(campaigns.logdet_pair_formula(lam)[0]),
                        float(campaigns.logdet_pair_oracle(lam)[0]), abs_tol=1e-10)


@given(spectra())
def test_positivity_equivalence(spec):
    rest = restriction(spec)
    op = svcore.s_two_matrix(np.diag(rest.s))
    eig_min = np.linalg.eigvalsh(op).min()
    pair_min = min(rest.s[i] + rest.s[j] for i, j in svcore.pair_index(spec.n))
    assert (eig_min > 0) == (pair_min > 0) == (svcore.two_dilation(spec) < 1.0)


def test_positivity_fails_beyond_boundary():
    spec = svcore.spectrum([1.5, 1.1])
    rest = restriction(spec)
    op = svcore.s_two_matrix(np.diag(rest.s))
    assert np.linalg.eigvalsh(op).min() < 0
    assert not svcore.two_dilation(spec) < 1.0
    assert np.isnan(campaigns.logdet_pair_oracle(spec.lam[None, :])[0])


@given(spectra(), st.floats(0.1, 3.0))
def test_two_dilation_scales_quadratically(spec, rho):
    scaled = svcore.spectrum(spec.lam * rho, m=spec.m)
    assert math.isclose(svcore.two_dilation(scaled),
                        rho**2 * svcore.two_dilation(spec), rel_tol=1e-12)
