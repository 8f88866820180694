import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from areaflow import svcore
from areaflow.errors import NotAreaDecreasingError

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


def test_singular_values_zero_map():
    spec = svcore.singular_values(np.zeros((3, 2)))
    assert np.all(spec.lam == 0) and spec.n == 3


def test_singular_values_identity():
    spec = svcore.singular_values(np.eye(4))
    assert np.allclose(spec.lam, 1.0)


def test_singular_values_padded_diag():
    df = np.zeros((3, 2))
    df[0, 0], df[1, 1] = 3.0, 4.0
    spec = svcore.singular_values(df)
    assert np.allclose(spec.lam, [4.0, 3.0, 0.0])
    assert spec.m == 2


def test_singular_values_rejects_non_finite():
    with pytest.raises(ValueError):
        svcore.singular_values(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_two_dilation_examples():
    assert svcore.two_dilation(svcore.spectrum([2.0, 2.0, 0.0])) == 4.0
    hopf = svcore.spectrum([1.0] * 6 + [0.0])
    assert svcore.two_dilation(hopf) == 1.0
    assert math.isclose(svcore.two_dilation(svcore.spectrum([0.9, 0.5])), 0.45)
    with pytest.raises(ValueError):
        svcore.two_dilation(svcore.spectrum([1.0]))


def test_is_area_decreasing_strictness():
    assert svcore.is_area_decreasing(svcore.spectrum([0.9, 0.9]))
    assert not svcore.is_area_decreasing(svcore.spectrum([1.0, 1.0]))
    assert svcore.is_area_decreasing(svcore.spectrum([2.0, 0.4]))


def test_s_restriction_values():
    rest = svcore.s_restriction(svcore.spectrum([0.0, 1.0, 2.0][::-1]))
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
    rest = svcore.s_restriction(spec)
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
        assert value == svcore.phi(svcore.spectrum(row))
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
    assert svcore.phi(svcore.spectrum([0.0, 0.0, 0.0])) == 0.0
    assert math.isclose(svcore.phi(svcore.spectrum([0.5, 0.5])), math.log(0.6))
    assert math.isclose(svcore.phi(svcore.spectrum([1.0, 0.0])), math.log(0.5))
    assert svcore.phi(svcore.spectrum([3.0])) == 0.0  # empty product at n = 1


def test_phi_rejects_boundary():
    with pytest.raises(NotAreaDecreasingError):
        svcore.phi(svcore.spectrum([1.0, 1.0]))
    with pytest.raises(NotAreaDecreasingError):
        svcore.phi(svcore.spectrum([2.0, 0.5]))


@given(spectra())
def test_phi_nonpositive(spec):
    assert svcore.phi(spec) <= 0.0


@given(spectra(min_n=2, max_n=5), st.integers(0, 4), st.floats(1e-4, 1e-2))
def test_phi_strictly_decreasing_by_finite_difference(spec, idx, eps):
    idx = idx % spec.n
    lam = spec.lam.copy()
    if lam[idx] < 1e-3 or lam[0] * lam[1] > 0.9:
        lam = lam * 0.5 + 0.05
    base = svcore.spectrum(lam)
    bumped = svcore.spectrum(np.sort(lam + np.eye(1, spec.n, idx)[0] * eps)[::-1])
    assert svcore.phi(bumped) < svcore.phi(base)


def test_log_det_examples():
    assert math.isclose(svcore.log_det_s2(svcore.spectrum([0.0] * 3)), 3 * math.log(2.0))
    assert math.isclose(svcore.log_det_s2(svcore.spectrum([0.5, 0.5])), math.log(1.2))


@given(spectra(max_n=7))
def test_log_det_matches_oracle(spec):
    assert math.isclose(svcore.log_det_s2(spec), svcore.log_det_s2_oracle(spec),
                        abs_tol=1e-10)


@given(spectra())
def test_positivity_equivalence(spec):
    rest = svcore.s_restriction(spec)
    op = svcore.s_two_matrix(np.diag(rest.s))
    eig_min = np.linalg.eigvalsh(op).min()
    pair_min = min(rest.s[i] + rest.s[j] for i, j in svcore.pair_index(spec.n))
    assert (eig_min > 0) == (pair_min > 0) == svcore.is_area_decreasing(spec)


def test_positivity_fails_beyond_boundary():
    spec = svcore.spectrum([1.5, 1.1])
    rest = svcore.s_restriction(spec)
    op = svcore.s_two_matrix(np.diag(rest.s))
    assert np.linalg.eigvalsh(op).min() < 0
    assert not svcore.is_area_decreasing(spec)


def test_rescale_spectrum():
    spec = svcore.spectrum([2.0, 2.0, 0.0])
    assert np.allclose(svcore.rescale_spectrum(spec, 1.0).lam, spec.lam)
    assert np.allclose(svcore.rescale_spectrum(spec, 0.5).lam, [1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        svcore.rescale_spectrum(spec, 0.0)


@given(spectra(), st.floats(0.1, 3.0))
def test_two_dilation_scales_quadratically(spec, rho):
    scaled = svcore.rescale_spectrum(spec, rho)
    assert math.isclose(svcore.two_dilation(scaled),
                        rho**2 * svcore.two_dilation(spec), rel_tol=1e-12)
