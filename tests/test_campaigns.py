import ast
import copy
import inspect
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from areaflow import campaigns as cp
from areaflow import verifier
from areaflow.errors import HypothesisError
from areaflow.svcore import pair_index


def test_sample_spectra_properties():
    rng = np.random.default_rng(0)
    lam = cp.sample_spectra(rng, 4096, 5, 3)
    assert lam.shape == (4096, 5)
    assert np.all(lam >= 0) and np.all(lam <= cp.LAM_MAX)
    assert np.all(np.diff(lam, axis=1) <= 1e-15)
    assert np.all(lam[:, 3:] == 0)  # zero beyond m
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


def _fold_extras(spec, parts):
    """The extras of consecutive slices, folded the way run_config folds them."""
    out = {}
    for extras in parts:
        for field, value in extras.items():
            if out.get(field) is None:
                out[field] = value
            elif value is not None:
                out[field] = spec.extras[field][1](out[field], value)
    return out


@pytest.mark.parametrize("name", sorted(cp.SPECS))
def test_checks_work_row_by_row(name):
    """Each check on 200 drawn rows equals the same check run on 7-row and on
    64-row slices, concatenated, and its extras equal the slices' folded."""
    spec = cp.SPECS[name]
    assert all(2 <= m <= n for n, m in spec.configs)   # the samplers rely on it
    for (n, m), (tag, (draw, check)) in itertools.product(spec.configs,
                                                          spec.streams.items()):
        sample = draw(cp._rng(13, tag, n, m, 0), 200, n, m)
        values, extras = check(sample, n, m)
        for rows in (7, 64):
            parts = [check({k: v[lo:lo + rows] for k, v in sample.items()}, n, m)
                     for lo in range(0, 200, rows)]
            assert np.array_equal(np.concatenate([p[0] for p in parts]), values), \
                (tag, n, m, rows)
            assert _fold_extras(spec, [p[1] for p in parts]) == extras, (tag, n, m, rows)


def _worst_of_first_block(name, n, m, seed):
    """A tolerance that the first block of chunk 0 meets, so that violations
    start in a later block."""
    spec = cp.SPECS[name]
    tag, (draw, check) = next(iter(spec.streams.items()))
    sample = draw(cp._rng(seed, tag, n, m, 0), cp.CHUNK, n, m)
    values, _ = check({k: v[:cp.BLOCK] for k, v in sample.items()}, n, m)
    return float(values.min() if spec.kind == "min_gap" else values.max())


@pytest.mark.parametrize("name,n,m", [("pair_claim", 2, 2), ("triple_weight", 3, 3)])
def test_blocks_fold_to_the_report_of_one_block_per_chunk(monkeypatch, name, n, m):
    """Two chunks with violations that start after the first block: the
    report has the bytes of a run that checks each chunk in one call."""
    tol = _worst_of_first_block(name, n, m, 5)
    report = cp.run_config(name, n, m, cp.CHUNK + 1500, 5, tol=tol)
    assert report["violations"] > 0 and report["failing_sample"] is not None
    monkeypatch.setattr(cp, "BLOCK", cp.CHUNK)
    whole = cp.run_config(name, n, m, cp.CHUNK + 1500, 5, tol=tol)
    assert json.dumps(report) == json.dumps(whole)


@pytest.mark.parametrize("name", sorted(cp.SPECS))
def test_failing_sample_replays_exactly(name):
    """The failing_sample of each configuration of the README loop's forced
    violation, checked as a one-row sample, gives the bits that its row had
    in its chunk."""
    spec = cp.SPECS[name]
    tol = 1e6 if spec.kind == "min_gap" else -1e6
    replayed = 0
    for conf in cp.run_suite(name, samples=1500, seed=3, tol=tol)["configs"]:
        n, m, payload = conf["n"], conf["m"], conf["failing_sample"]
        if payload is None:
            continue
        for tag, (draw, check) in spec.streams.items():
            sample = draw(cp._rng(3, tag, n, m, 0), 1500, n, m)
            values = check(sample, n, m)[0].astype(float)
            bad = values < tol if spec.kind == "min_gap" else values > tol
            if bad.any():
                break
        b = int(np.argmax(bad))
        assert payload == {k: v[b].tolist() for k, v in sample.items()}
        one_row = check({k: np.array([v]) for k, v in payload.items()}, n, m)[0]
        assert one_row.astype(float).tobytes() == values[b:b + 1].tobytes(), (n, m)
        replayed += 1
    assert replayed > 0


@pytest.mark.parametrize("name,n,m", [("oracle", 8, 8), ("regroup", 6, 6)])
def test_blocks_bound_the_memory_of_a_check(monkeypatch, traced_peak, name, n, m):
    """Checking a full chunk in blocks at most halves the traced peak of
    checking it in one call (measured: oracle 99 -> 16 MiB, regroup
    67 -> 24 MiB of resident memory above the interpreter)."""
    args = (cp.run_config, name, n, m, cp.CHUNK, 1)
    blocked = traced_peak(*args)
    monkeypatch.setattr(cp, "BLOCK", cp.CHUNK)
    assert blocked <= traced_peak(*args) / 2


def _ricci_draw_full_rounds(rng, size, n, m):
    """The ricci draw that mapped every row of each rejection round through
    uniform(lo, hi) and kept only the redo rows."""
    lam = cp.sample_spectra(rng, size, n, m)
    sigma = rng.uniform(0.05, 2.0, size)
    sec1 = cp._sym_zero_diag(rng.uniform(-sigma[:, None, None] * 0.999,
                                         3 * sigma[:, None, None] + 2.0, (size, n, n)))
    for _round in range(400):
        redo = (sec1.sum(axis=2) < (n - 1) * sigma[:, None]).any(axis=1)
        if not redo.any():
            break
        fresh = cp._sym_zero_diag(rng.uniform(-sigma[:, None, None] * 0.999,
                                              3 * sigma[:, None, None] + 2.0, (size, n, n)))
        sec1[redo] = fresh[redo]
    block = rng.uniform(sigma[:, None, None] - 3.0, sigma[:, None, None],
                        (size, min(n, m), min(n, m)))
    tight = slice(0, size // 8)
    block[tight] = sigma[tight, None, None]
    block = cp._sym_zero_diag(block)
    return {"lambda": lam, "sigma": sigma, "sec1": sec1, "sec2": cp.pad_sec2(block, n)}


@pytest.mark.parametrize("size", [cp.CHUNK, 1696])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ricci_draw_maps_only_redo_rows_to_the_same_draw(seed, size):
    """Mapping only the redo rows of each round takes the same stream and
    gives the same sample, bit for bit, as mapping every row."""
    for n, m in cp.SPECS["ricci"].configs:
        new = cp._ricci_draw(cp._rng(seed, "ricci", n, m, 0), size, n, m)
        old = _ricci_draw_full_rounds(cp._rng(seed, "ricci", n, m, 0), size, n, m)
        assert new.keys() == old.keys()
        for key in old:
            assert np.array_equal(new[key], old[key]), (n, m, key)


def _bisection_phi_level(d, level, cap):
    """The ray scaling that the Newton sampler replaced: up to 40 doublings
    of an upper end, then 48 bisection steps, each an extended-precision
    Phi evaluation; the lower end keeps Phi >= level."""
    def phi_at(t):
        return cp.phi_values(d * t[:, None]).astype(float)

    lo = np.zeros(len(level))
    hi = np.ones(len(level))
    for _ in range(40):
        need = phi_at(hi) > level
        if not need.any():
            break
        hi[need] = np.minimum(hi[need] * 2.0, cap[need])
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        high_phi = phi_at(mid) >= level
        lo[high_phi] = mid[high_phi]
        hi[~high_phi] = mid[~high_phi]
    return d * lo[:, None]


def _replay_rays(rng, count, n, m, delta):
    """The direction, Phi level and cap that sample_phi_level draws from a
    generator in this state."""
    d = np.zeros((count, n))
    d[:, :m] = np.sort(rng.uniform(0.0, 1.0, (count, m)), axis=1)[:, ::-1]
    d /= np.maximum(d[:, 0], 1e-12)[:, None]
    level = -rng.uniform(0.0, delta, count)
    cap = 0.9999 / np.sqrt(np.maximum(d[:, 0] * d[:, 1], 1e-300))
    return d, level, cap


def test_phi_level_sampler_respects_hypothesis():
    rng = np.random.default_rng(4)
    for n, delta in itertools.product((2, 4, 6), cp.PINCH_DELTAS):
        d, level, cap = _replay_rays(copy.deepcopy(rng), 2000, n, n, delta)
        lam = cp.sample_phi_level(rng, 2000, n, n, delta)
        vals = cp.phi_values(lam).astype(float)
        # the hypothesis Phi >= level >= -delta, exactly as the campaign reads Phi
        assert np.all(vals >= level)
        assert np.all(vals <= 0.0)
        # and the largest such scale: tight against the level below the cap
        t = lam[:, 0] / d[:, 0]
        below = t < cap
        assert below.any()
        assert np.all(vals[below] - level[below]
                      <= 1e-12 * np.maximum(1.0, np.abs(level[below])))
        ref = _bisection_phi_level(d, level, cap)
        assert np.all(np.abs(lam - ref) <= 1e-11 * np.abs(ref))
        # levels spread over the strip, including near the floor
        assert vals.min() < -0.8 * delta


def test_phi_level_sampler_stops_at_cap():
    # delta = 12 reaches below Phi at the pair cap (about -9.2 for d_1 = 1),
    # so some rays end at the cap; none may pass it
    rng = np.random.default_rng(5)
    d, level, cap = _replay_rays(copy.deepcopy(rng), 2000, 2, 2, 12.0)
    lam = cp.sample_phi_level(rng, 2000, 2, 2, 12.0)
    t = lam[:, 0]
    at_cap = cp.phi_values(d * cap[:, None]).astype(float) >= level
    assert 0 < at_cap.sum() < 2000
    assert np.array_equal(t[at_cap], cap[at_cap])
    assert np.all(t <= cap)
    assert np.all(cp.phi_values(lam).astype(float) >= level)


@pytest.mark.parametrize("budget", ["RAY_NEWTON_STEPS", "RAY_CHECK_ROUNDS"])
def test_phi_level_sampler_raises_when_budget_runs_out(monkeypatch, budget):
    monkeypatch.setattr(cp, budget, 1)
    with pytest.raises(HypothesisError):
        cp.sample_phi_level(np.random.default_rng(4), 2000, 4, 4, 1.0)


def test_exact_checks_dimensions_guard():
    try:
        cp.run_exact_checks(4, 2, 5, seed=0)
    except ValueError:
        pass
    else:
        raise AssertionError("exact mode must reject n > 3")


def _offdiag_energy_by_pair_operators(lam, h):
    """The off-diagonal part of the gradient-square term from the assembled
    (B, P, P) pair operator G_k of grad[..., k] for every direction k, its
    diagonal zeroed, in extended precision (the assembly that the closed
    form replaced; svcore.s_two_matrix works in float64)."""
    count, n = lam.shape
    m = h.shape[1]
    s, c = cp._srest(lam)
    iA, jA = np.triu_indices(n, 1)
    q = 1 / (s[:, iA] + s[:, jA])
    dpad = np.zeros((count, n, n, n), dtype=cp.LD)
    dpad[:, :min(n, m)] = h[:, :min(n, m)]
    grad = -(np.einsum("bjki,bj->bijk", dpad, c) + np.einsum("bikj,bi->bijk", dpad, c))
    dj = jA[:, None] == jA[None, :]
    di = iA[:, None] == iA[None, :]
    djk = jA[:, None] == iA[None, :]
    dil = iA[:, None] == jA[None, :]
    off = ~np.eye(iA.size, dtype=bool)
    gsq = np.zeros((count, iA.size, iA.size), dtype=cp.LD)
    for k in range(n):
        gk = grad[:, :, :, k]
        G = (gk[:, iA[:, None], iA[None, :]] * dj + gk[:, jA[:, None], jA[None, :]] * di
             - gk[:, iA[:, None], jA[None, :]] * djk - gk[:, jA[:, None], iA[None, :]] * dil)
        gsq += G * G * off
    return np.einsum("bi,bj,bij->b", q, q, gsq)


@pytest.mark.parametrize("n,m", cp.SPECS["master"].configs)
def test_gradient_energy_matches_pair_operators(n, m):
    rng = cp._rng(3, "master", n, m, 0)
    lam = cp.sample_spectra(rng, 512, n, m)
    h = cp.sample_h(rng, 512, n, m).astype(cp.LD)
    ref = _offdiag_energy_by_pair_operators(lam, h)
    got = cp.offdiag_gradient_energy(lam, h)
    # at n = 2 the one pair operator is 1 x 1: it has no off-diagonal entry
    assert np.all(ref > 0) if n > 2 else not ref.any()
    assert np.all(np.abs(got - ref) <= 1e-15 * ref)


# master_gaps and pair_claim_gaps run in float64.  Their errors, against
# extended precision and against exact arithmetic on the same float inputs,
# are bounded by a multiple of EPS times the magnitude of the terms they
# add: |A|^2 for a pair-claim gap, whose terms are S-weighted sums of h^2,
# and |A|^2 (1 + max_A q_A)^2 for a master gap, whose terms carry up to two
# factors q_A = 1 / (S_ii + S_jj) (and a rounding of S shifts q_A by about
# EPS q_A^2).  Measured worst (seeds 1, 2, 7, 2048 samples, every master
# configuration): 3.5 and 79 units.
EPS = 2.0**-52
PAIR_CLAIM_ULPS = 16
MASTER_ULPS = 256


def _h_norm_sq(h):
    return np.einsum("blki,blki->b", h, h).astype(float)


def _q_max(lam):
    s, _ = cp._srest(lam)
    i, j = np.triu_indices(lam.shape[1], 1)
    return (1 / (s[:, i] + s[:, j])).max(axis=1)


def _master_magnitude(lam, h):
    return _h_norm_sq(h) * (1 + _q_max(lam)) ** 2


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_float64_gaps_match_exact_route(n, m):
    """The float64 kernels against verifier's scalar route on the same float
    inputs as exact Fractions (Fraction(x) is exact), so the reference has
    no rounding at all.  The first rows are the boundary stratum."""
    rng = cp._rng(11, "master", n, m, 0)
    count = 40
    lam = cp.sample_spectra(rng, count, n, m)
    h = cp.sample_h(rng, count, n, m)
    sec1 = cp.sample_sec(rng, count, n, -2.0, 2.0)
    block = cp.sample_sec(rng, count, min(n, m), -2.0, 2.0)
    assert (lam[:, 0] * lam[:, 1] >= cp.BOUNDARY_RANGE[0]).sum() >= count * cp.BOUNDARY_FRAC
    master = cp.master_gaps(lam, h)
    claim = cp.pair_claim_gaps(lam, h)
    exact = np.vectorize(Fraction, otypes=[object])
    master_err, claim_err = [], []
    for b in range(count):
        rest = verifier.restriction_from_lambdas(list(exact(lam[b])))
        H = verifier.HCoefficients(exact(h[b]))
        curv = verifier.CurvatureSample(n, m, exact(sec1[b]), exact(block[b]))
        master_err.append(abs(Fraction(master[b]) - verifier.master_inequality_gap(rest, H, curv)))
        claim_err.append([abs(Fraction(claim[b, A]) - verifier.pair_claim_gap(rest, H, i, j))
                          for A, (i, j) in enumerate(pair_index(n))])
    master_err = np.array(master_err, dtype=float)
    claim_err = np.array(claim_err, dtype=float)
    assert np.all(master_err <= MASTER_ULPS * EPS * _master_magnitude(lam, h))
    assert np.all(claim_err <= PAIR_CLAIM_ULPS * EPS * _h_norm_sq(h)[:, None])


# sectional_gaps and log_det_gradient_sq in float64 against the exact
# route.  A sectional gap's terms carry one factor q_A, over numerators
# bounded by the curvature entries and the bracket; a rounding of S moves
# q_A by about EPS q_A^2, so the error is bounded by EPS (1 + max_A q_A)^2
# times those numerators.  |grad log det S^[2]|^2 is a square of sums whose
# terms carry one factor (1 + l_i^2)(1 + l_j^2) / (1 - l_i^2 l_j^2) = 2 q_A,
# whose denominator loses digits as q_A grows: EPS |A|^2 (1 + max_A q_A)^3.
# Measured worst (seeds 1, 2, 11, 40 rows, (2, 2) to (4, 4)): 0.17 and 2.2
# units.
SECTIONAL_ULPS = 2
LOG_DET_GRADIENT_ULPS = 8


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_float64_sectional_and_gradient_match_exact_route(n, m):
    """The sectional check's gaps and log_det_gradient_sq against
    verifier.sectional_lower_bound_gap and verifier.log_det_gradient on the
    same float inputs as exact Fractions.  The first rows are the boundary
    stratum and the tight family sec1 = 1, sec2 = tau."""
    count = 40
    sample = cp._sectional_draw(cp._rng(11, "sectional", n, m, 0), count, n, m)
    gaps, _ = cp._sectional_check(sample, n, m)
    lam, tau, sec1, sec2 = (sample[k] for k in ("lambda", "tau", "sec1", "sec2"))
    rng = cp._rng(11, "gradient_bound", n, m, 0)
    glam = cp.sample_spectra(rng, count, n, m)
    h = cp.sample_h(rng, count, n, m)
    grad_sq = cp.log_det_gradient_sq(glam, h)
    assert gaps.dtype == grad_sq.dtype == np.float64
    exact = np.vectorize(Fraction, otypes=[object])
    mp = min(n, m)
    gap_err, grad_err = [], []
    for b in range(count):
        curv = verifier.CurvatureSample(n, m, exact(sec1[b]), exact(sec2[b, :mp, :mp]))
        rest = verifier.restriction_from_lambdas(list(exact(lam[b])))
        ref = verifier.sectional_lower_bound_gap(rest, curv, Fraction(tau[b]))
        gap_err.append(abs(Fraction(gaps[b]) - ref))
        rest = verifier.restriction_from_lambdas(list(exact(glam[b])))
        grad = verifier.log_det_gradient(rest, verifier.HCoefficients(exact(h[b])))
        grad_err.append(abs(Fraction(grad_sq[b]) - sum(g * g for g in grad)))
    bracket = (2 * n - m - 1) - (m - 1) * tau
    numerators = (np.abs(sec1).sum(axis=(1, 2)) + np.abs(sec2).sum(axis=(1, 2))
                  + n * n * np.abs(bracket))
    assert np.all(np.array(gap_err, dtype=float)
                  <= SECTIONAL_ULPS * EPS * (1 + _q_max(lam)) ** 2 * numerators)
    assert np.all(np.array(grad_err, dtype=float)
                  <= LOG_DET_GRADIENT_ULPS * EPS * (1 + _q_max(glam)) ** 3 * _h_norm_sq(h))


# ricci_gaps in float64 against the exact route.  The gap is the regrouped
# sum of the slacks e = sigma - sec2 on the m x m block, each rounded once:
# its row terms carry one factor q_A and its pair and triple weights are
# bounded by 1 + max_A q_A, and a rounding of S shifts each weight by about
# EPS q_A times itself, so the error is bounded by EPS (1 + max_A q_A)^2
# times the slack sum sum_ik e_ik (every e_ik >= 0).  The tight family
# sec2 = sigma has every slack 0, so its gap is exactly 0 in both routes.
# Measured worst (seeds 1-8 and 11, 48 to 64 rows, every ricci
# configuration): 0.34 units.
RICCI_ULPS = 2


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2), (5, 5)])
def test_float64_ricci_gaps_match_exact_route(n, m):
    """The ricci check's gaps against verifier.ricci_lower_bound_gap on the
    same float inputs as exact Fractions.  The first rows are the tight
    family sec2 = sigma, then the boundary stratum."""
    count = 48
    sample = cp._ricci_draw(cp._rng(11, "ricci", n, m, 0), count, n, m)
    gaps, _ = cp._ricci_check(sample, n, m)
    assert gaps.dtype == np.float64
    lam, sigma, sec1, sec2 = (sample[k] for k in ("lambda", "sigma", "sec1", "sec2"))
    exact = np.vectorize(Fraction, otypes=[object])
    tight = count // 8
    err = []
    for b in range(count):
        curv = verifier.CurvatureSample(n, m, exact(sec1[b]), exact(sec2[b, :m, :m]))
        rest = verifier.restriction_from_lambdas(list(exact(lam[b])))
        ref, _ = verifier.ricci_lower_bound_gap(rest, curv, Fraction(sigma[b]))
        if b < tight:
            assert ref == 0 and gaps[b] == 0.0, b
        else:
            err.append(abs(Fraction(gaps[b]) - ref))
    slack_sum = (m * (m - 1) * sigma - sec2.sum(axis=(1, 2)))[tight:]
    assert np.all(np.array(err, dtype=float)
                  <= RICCI_ULPS * EPS * (1 + _q_max(lam[tight:])) ** 2 * slack_sum)


FLOAT64_SUITES = ("oracle", "pinch", "gradient_bound", "sectional", "ricci")


def test_float64_kernels_do_not_read_longdouble(monkeypatch):
    """master_gaps, pair_claim_gaps and the checks of the oracle, pinch,
    gradient_bound, sectional and ricci suites compute in float64 whatever
    LD is."""
    def evaluate(n, m):
        rng = np.random.default_rng(9)
        lam = cp.sample_spectra(rng, 256, n, m)
        h = cp.sample_h(rng, 256, n, m)
        values = [cp.master_gaps(lam, h), cp.pair_claim_gaps(lam, h)]
        extras = []
        for suite in FLOAT64_SUITES:
            for tag, (draw, check) in cp.SPECS[suite].streams.items():
                checked, extra = check(draw(cp._rng(9, tag, n, m, 0), 256, n, m), n, m)
                values.append(checked)
                extras.append(extra)
        return values, extras

    for n, m in ((2, 2), (4, 2), (4, 4)):
        before = evaluate(n, m)
        monkeypatch.setattr(cp, "LD", np.float64)
        after = evaluate(n, m)
        monkeypatch.undo()
        for old, new in zip(before[0], after[0]):
            assert old.dtype == np.float64 and np.array_equal(old, new)
        assert before[1] == after[1]


def test_longdouble_is_read_by_three_checks_only():
    """Only the key identity and the regroup and triple_weight checks cast
    to LD; every other function follows its inputs' dtype."""
    tree = ast.parse(inspect.getsource(cp))
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Name) and node.id == "LD"
                       for node in ast.walk(fn))}
    assert readers == {"key_identity_residuals", "_regroup_check", "_triple_weight_check"}


def _pair_loop_reference(lam, h):
    """The per-pair loops that the vectorized kernels replaced: pair-claim
    gaps, key-identity residuals and Q_S, in extended precision."""
    count, n = lam.shape
    m = h.shape[1]
    s, c = cp._srest(lam.astype(cp.LD))
    st = s[:, :m]
    h = h.astype(cp.LD)
    hsq = np.einsum("blki,blki->bli", h, h)
    A = s * hsq.sum(axis=1) + np.einsum("bli,bl->bi", hsq, st)
    hsq_pad = np.zeros((count, n, n), dtype=cp.LD)
    hsq_pad[:, :m] = hsq
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
            cross = hsq_pad[:, j, i] + hsq_pad[:, i, j] + D2[:, i] + D2[:, j]
            gaps.append(A[:, i] + A[:, j] + keep / sij - sij * cross - swap / sij)
            keys.append(np.abs(2 * s[:, i] + c[:, i] ** 2 / sij - sij - c[:, j] ** 2 / sij))
            q_s += (keep + swap) / sij ** 2
    return np.stack(gaps, axis=1), np.stack(keys, axis=1), q_s


def test_vectorized_pair_kernels_match_pair_loops():
    rng = np.random.default_rng(8)
    for n, m in ((2, 2), (4, 2), (4, 4)):
        lam = cp.sample_spectra(rng, 256, n, m)
        h = cp.sample_h(rng, 256, n, m)
        gaps, keys, q_s = _pair_loop_reference(lam, h)
        err = np.abs(cp.pair_claim_gaps(lam, h) - gaps)
        assert np.all(err <= PAIR_CLAIM_ULPS * EPS * _h_norm_sq(h)[:, None])
        assert np.array_equal(cp.key_identity_residuals(lam), keys)
        assert np.array_equal(cp.gradient_square_terms(lam.astype(cp.LD), h.astype(cp.LD)), q_s)


def _regrouped_sum_by_triples(lam, X, W):
    """The regrouped R_S with every triple weight from
    triple_weight_values, as before the per-pair factors."""
    lamld = lam.astype(cp.LD)
    s, c = cp._srest(lamld)
    n = lam.shape[1]
    total = np.zeros(lam.shape[0], dtype=cp.LD)
    for i, j in pair_index(n):
        total += (c[:, i] ** 2 * X[:, i] + c[:, j] ** 2 * X[:, j]) / (4 * (s[:, i] + s[:, j]))
        li, lj = lamld[:, i], lamld[:, j]
        total += (li**2 + lj**2) / (2 * (1 + li**2) * (1 + lj**2)) * W[:, i, j]
    for i, j in pair_index(n):
        for k in range(j + 1, n):
            li, lj, lk = lamld[:, i], lamld[:, j], lamld[:, k]
            total += cp.triple_weight_values(li, lj, lk) * W[:, i, j]
            total += cp.triple_weight_values(lj, lk, li) * W[:, j, k]
            total += cp.triple_weight_values(li, lk, lj) * W[:, i, k]
    return total


@pytest.mark.parametrize("n", range(2, 7))
def test_regrouped_sum_matches_triple_weights_bit_for_bit(n):
    rng = cp._rng(4, "regroup", n, n, 0)
    for m in range(2, n + 1):
        lam = cp.sample_spectra(rng, 1024, n, m)
        sec1 = cp.sample_sec(rng, 1024, n, -2.0, 2.0).astype(cp.LD)
        sec2 = cp.pad_sec2(cp.sample_sec(rng, 1024, min(n, m), -2.0, 2.0), n).astype(cp.LD)
        sig = rng.uniform(0.05, 2.0, 1024).astype(cp.LD)
        # R_S's own inputs, and ricci_gaps' shifted ones
        for X, W in ((sec1.sum(axis=2) - sec2.sum(axis=2), sec1 + sec2),
                     (sec1.sum(axis=2) - (n - 1) * sig[:, None], sec1 + sig[:, None, None])):
            assert np.array_equal(cp._regrouped_sum(lam.astype(cp.LD), X, W),
                                  _regrouped_sum_by_triples(lam, X, W))


def _triple_weight_reference(li, lj, lk):
    """triple_weight_values as it was written out before it read
    ``_triple_weight``."""
    num = (li - lj) ** 2 * (1 + li**2 * lj**2 * lk**2) \
        + 2 * li * lj * (1 - li * lj * lk**2) * (1 - li * lj)
    den = 2 * (1 + li**2) * (1 + lj**2) * (1 - li**2 * lk**2) * (1 - lj**2 * lk**2)
    return (1 + lk**2) * num / den


def _m2_cross_reference(l1, l2):
    """m2_claim_displays' cross display as it was written out."""
    return ((l1 - l2) ** 2 + 2 * l1 * l2 * (1 - l1 * l2)) / (2 * (1 + l1**2) * (1 + l2**2))


@pytest.mark.parametrize("dtype", [np.float64, cp.LD])
@pytest.mark.parametrize("seed", range(1, 6))
def test_one_triple_weight_keeps_its_bits(dtype, seed):
    """triple_weight_values and the m = 2 cross display read ``_triple_weight``
    on the ``_pair_factors`` table, with the bits of their written-out forms."""
    rng = np.random.default_rng(seed)
    lam = cp.sample_spectra(rng, 4096, 3, 3).astype(dtype)
    for i, j, k in itertools.permutations(range(3)):
        li, lj, lk = lam[:, i], lam[:, j], lam[:, k]
        new = cp.triple_weight_values(li, lj, lk)
        assert new.dtype == dtype
        assert np.array_equal(new, _triple_weight_reference(li, lj, lk))
    for n, m in ((2, 2), (4, 2), (6, 6)):
        lam = cp.sample_spectra(rng, 4096, n, m).astype(dtype)
        _, cross = cp.m2_claim_displays(lam)
        assert cross.dtype == dtype
        assert np.array_equal(cross, _m2_cross_reference(lam[:, 0], lam[:, 1]))


def test_run_config_refuses_a_configuration_outside_the_sweep():
    with pytest.raises(ValueError, match=r"pair_claim has no configuration "
                                         r"\(n, m\) = \(5, 7\); its sweep is"):
        cp.run_config("pair_claim", 5, 7, 100, 1)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 4)])
def test_master_curvature_terms_cancel_exactly(n, m):
    """The curvature part of master's energy is 2 R_S, the bound's own
    curvature term: in exact arithmetic the gap does not depend on them."""
    curved = 0
    for lam, h, sec1, sec2 in cp.exact_samples(5, 5, n, m):
        rest = verifier.restriction_from_lambdas(lam)
        H = verifier.HCoefficients(h)
        curv = verifier.CurvatureSample(n, m, sec1, sec2)
        flat = verifier.CurvatureSample(
            n, m, np.full(sec1.shape, Fraction(0), dtype=object),
            np.full(sec2.shape, Fraction(0), dtype=object))
        gap = verifier.master_inequality_gap(rest, H, curv)
        assert isinstance(gap, Fraction)
        assert gap == verifier.master_inequality_gap(rest, H, flat)
        curved += verifier.curvature_term(rest, curv) != 0
    assert curved


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 4)])
def test_ricci_gap_is_the_regrouped_sum_of_its_slacks(n, m):
    """On spectra of rank <= m, R_S minus the sigma-pinched Ricci bound is
    the regrouped sum of the slacks e = sigma - sec2 on the m x m block (0
    elsewhere), X_i = sum_k e_ik and W = -e, in exact arithmetic and for any
    sigma; so the tight family sec2 = sigma has gap 0 term by term."""
    nonzero = 0
    for b, (lam, _, sec1, sec2) in enumerate(cp.exact_samples(6, 8, n, m)):
        sigma = Fraction(b + 1, 3)
        if b % 2:    # the tight family
            sec2 = np.where(np.eye(m, dtype=bool), Fraction(0), sigma)
        e = np.full((n, n), Fraction(0), dtype=object)
        e[:m, :m] = sigma - sec2
        np.fill_diagonal(e, Fraction(0))
        rest = verifier.restriction_from_lambdas(lam)
        curv = verifier.CurvatureSample(n, m, sec1, sec2)
        bound = verifier._regrouped_sum(rest, lambda i: curv.ric1(i) - (n - 1) * sigma,
                                        lambda i, j: sec1[i, j] + sigma)
        gap = verifier.curvature_term(rest, curv) - bound
        assert isinstance(gap, Fraction)
        assert gap == verifier._regrouped_sum(rest, lambda i: sum(e[i]), lambda i, j: -e[i, j])
        assert gap == 0 or not b % 2
        nonzero += gap != 0
    assert nonzero


def _master_gaps_with_curvature(lam, h, sec1, sec2):
    """Master's gap as it was evaluated before the cancellation was used:
    the curvature part of the energy and 2 R_S in the bound, and the
    off-diagonal gradient energy over ordered pairs from the full
    (B, n, n, n) array g."""
    count, n = lam.shape
    m = h.shape[1]
    mp = min(n, m)
    lamld = lam.astype(cp.LD)
    s, c = cp._srest(lamld)
    st = s[:, :m]
    hld = h.astype(cp.LD)
    sec1 = sec1.astype(cp.LD)
    sec2 = sec2.astype(cp.LD)
    iA, jA = np.triu_indices(n, 1)
    hsq = np.einsum("blki,blki->bli", hld, hld)
    rhs_diag = 2 * s * hsq.sum(axis=1) + 2 * np.einsum("bli,bl->bi", hsq, st)
    row = np.einsum("bik,bk->bi", sec1, 1 + s) - np.einsum("bik,bk->bi", sec2, 1 - s)
    rhs_diag = rhs_diag + c * c * row / 2
    q = 1 / (s[:, iA] + s[:, jA])
    T = np.zeros((count, n, n, n), dtype=cp.LD)
    T[:, :mp] = c[:, :mp, None, None] * hld[:, :mp]
    g = T + T.transpose(0, 3, 2, 1)
    Q = np.zeros((count, n, n), dtype=cp.LD)
    Q[:, iA, jA] = q
    Q[:, jA, iA] = q
    M = Q @ Q
    M[:, range(n), range(n)] = 0
    gdiag = np.einsum("biki->bik", g)
    pair_diag = gdiag[:, iA] + gdiag[:, jA]
    energy = (np.einsum("ba,ba->b", q, rhs_diag[:, iA] + rhs_diag[:, jA])
              + np.einsum("ba,ba->b", q * q, np.einsum("bak,bak->ba", pair_diag, pair_diag))
              + np.einsum("bxy,bxky,bxky->b", M, g, g))
    dg = cp._diag_h(hld, n)
    bound = (2 * np.einsum("blki,blki->b", hld, hld)
             + 2 * (n - 2) * np.einsum("bik,bik->b", dg, dg)
             + 2 * cp.curvature_terms(lamld, sec1, sec2)
             + 2 * cp.gradient_square_terms(lamld, hld))
    return energy - bound


@pytest.mark.parametrize("n,m", cp.SPECS["master"].configs)
def test_master_gaps_match_formula_with_curvature(n, m):
    rng = cp._rng(7, "master", n, m, 0)
    lam = cp.sample_spectra(rng, 2048, n, m)
    h = cp.sample_h(rng, 2048, n, m)
    sec1 = cp.sample_sec(rng, 2048, n, -2.0, 2.0)
    sec2 = cp.pad_sec2(cp.sample_sec(rng, 2048, min(n, m), -2.0, 2.0), n)
    ref = _master_gaps_with_curvature(lam, h, sec1, sec2)
    err = np.abs(cp.master_gaps(lam, h) - ref)
    if n == 2:
        # the gap is rounding noise around an identity here
        assert err.max() <= 1e-11
    else:
        assert np.all(err <= MASTER_ULPS * EPS * _master_magnitude(lam, h))
