import numpy as np
import pytest

from areaflow import campaigns as cp
from areaflow.errors import HypothesisError


def test_sample_spectra_properties():
    rng = np.random.default_rng(0)
    lam = cp.sample_spectra(rng, 4096, 5, 3)
    assert lam.shape == (4096, 5)
    assert np.all(lam >= 0) and np.all(lam <= cp.LAM_MAX)
    assert np.all(np.diff(lam, axis=1) <= 1e-15)
    assert np.all(lam[:, 3:] == 0)  # zero beyond min(n, m)
    pair = lam[:, 0] * lam[:, 1]
    assert pair.max() <= cp.BOUNDARY_RANGE[1] + 1e-12
    stratum = pair[: int(4096 * cp.BOUNDARY_FRAC)]
    assert np.all(stratum >= cp.BOUNDARY_RANGE[0] - 1e-12)


def test_sample_spectra_raises_when_rejection_runs_out():
    class TopHeavy:
        """Every draw is LAM_MAX, so every top pair product exceeds the ceiling."""

        def uniform(self, low, high, size=None):
            return np.full(size, cp.LAM_MAX)

    assert cp.LAM_MAX**2 > cp.BOUNDARY_RANGE[1]
    with pytest.raises(HypothesisError):
        cp.sample_spectra(TopHeavy(), 64, 3, 3)


def test_sample_h_symmetry():
    rng = np.random.default_rng(1)
    h = cp.sample_h(rng, 128, 4, 3)
    assert np.allclose(h, h.transpose(0, 1, 3, 2))


def test_counter_seeding_is_scheduling_independent():
    a = cp.run_suite("triple_weight", samples=3000, seed=11)
    b = cp.run_suite("triple_weight", samples=3000, seed=11)
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b
    c = cp.run_suite("triple_weight", samples=3000, seed=12)
    assert c["configs"][0]["worst"] != a["configs"][0]["worst"]


def test_suite_aliases():
    assert cp.canonical_suite("thm32") == "master"
    assert cp.canonical_suite("master") == "master"
    assert cp.canonical_suite("ricci") == "ricci"
    try:
        cp.canonical_suite("nope")
    except ValueError:
        pass
    else:
        raise AssertionError("unknown suite must raise")


def test_small_sweeps_pass():
    for name, kwargs in (
        ("oracle", dict(n=3)),
        ("master", dict(n=3, m=2)),
        ("pair_claim", dict(n=4, m=2)),
        ("pinch", dict(n=3)),
        ("gradient_bound", dict(n=3, m=2)),
        ("triple_weight", {}),
        ("regroup", dict(n=4, m=3)),
        ("sectional", dict(n=4, m=2)),
        ("ricci", dict(n=3, m=2)),
    ):
        report = cp.run_suite(name, samples=4000, seed=5, **kwargs)
        assert report["passed"], (name, report["configs"])


def test_violation_reports_replay_payload():
    # an impossible tolerance must force a violation with a payload
    report = cp.run_suite("master", n=3, m=2, samples=2000, seed=5, tol=1e6)
    conf = report["configs"][0]
    assert not report["passed"]
    assert conf["violations"] > 0
    assert conf["failing_sample"] is not None
    assert "lambda" in conf["failing_sample"] and "h" in conf["failing_sample"]


def test_phi_level_sampler_respects_hypothesis():
    rng = np.random.default_rng(4)
    for delta in (0.1, 1.0, 3.0):
        lam = cp.sample_phi_level(rng, 2000, 4, 4, delta)
        vals = cp.phi_values(lam).astype(float)
        assert np.all(vals >= -delta - 1e-12)
        assert np.all(vals <= 0.0)
        # levels spread over the strip, including near the floor
        assert vals.min() < -0.8 * delta


def test_exact_checks_dimensions_guard():
    try:
        cp.run_exact_checks(4, 2, 5, seed=0)
    except ValueError:
        pass
    else:
        raise AssertionError("exact mode must reject n > 4")


def _pair_loop_reference(lam, h):
    """The per-pair loops that the vectorized kernels replaced: pair-claim
    gaps, key-identity residuals and Q_S, in extended precision."""
    count, n = lam.shape
    m = h.shape[1]
    s, c = cp._srest(lam)
    st = cp._stilde(lam, m)
    h = h.astype(cp.LD)
    hsq = np.einsum("blki,blki->bli", h, h)
    A = s * hsq.sum(axis=1) + np.einsum("bli,bl->bi", hsq, st)
    hsq_pad = np.zeros((count, n, n), dtype=cp.LD)
    hsq_pad[:, :min(n, m)] = hsq[:, :min(n, m)]
    tail = hsq[:, n:, :].sum(axis=1) if m > n else np.zeros((count, n), dtype=cp.LD)
    dg = cp._diag_h(h, n)
    D2 = np.einsum("bik,bik->bi", dg, dg)
    DD = np.einsum("bik,bjk->bij", dg, dg)
    gaps, keys, q_s = [], [], np.zeros(count, dtype=cp.LD)
    for i in range(n):
        for j in range(i + 1, n):
            sij = s[:, i] + s[:, j]
            keep = (c[:, i] ** 2 * D2[:, i] + 2 * c[:, i] * c[:, j] * DD[:, i, j]
                    + c[:, j] ** 2 * D2[:, j])
            swap = (c[:, j] ** 2 * D2[:, i] + 2 * c[:, i] * c[:, j] * DD[:, i, j]
                    + c[:, i] ** 2 * D2[:, j])
            cross = hsq_pad[:, j, i] + hsq_pad[:, i, j] + D2[:, i] + D2[:, j] \
                + tail[:, i] + tail[:, j]
            gaps.append(A[:, i] + A[:, j] + keep / sij - sij * cross - swap / sij)
            keys.append(np.abs(2 * s[:, i] + c[:, i] ** 2 / sij - sij - c[:, j] ** 2 / sij))
            q_s += (keep + swap) / sij ** 2
    return np.stack(gaps, axis=1), np.stack(keys, axis=1), q_s


def test_vectorized_pair_kernels_match_pair_loops():
    rng = np.random.default_rng(8)
    for n, m in ((2, 2), (4, 2), (4, 4), (5, 7)):
        lam = cp.sample_spectra(rng, 256, n, m)
        h = cp.sample_h(rng, 256, n, m)
        gaps, keys, q_s = _pair_loop_reference(lam, h)
        assert np.array_equal(cp.pair_claim_gaps(lam, h), gaps)
        assert np.array_equal(cp.key_identity_residuals(lam), keys)
        assert np.array_equal(cp.gradient_square_terms(lam, h), q_s)
