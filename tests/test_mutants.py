"""Seeded faults must turn a suite red (mutation testing).

Each fault is monkeypatched into one kernel helper; the suite that checks
the algebra behind it must then report ``passed == False``, while the same
suites pass on the unpatched kernels.  Faults that no suite sees must at
least be seen by a cross-route check against ``verifier``.
"""

import json
import math

import numpy as np
import pytest

from areaflow import campaigns as cp
from areaflow import svcore
from areaflow import verifier as vf
from areaflow.cli import main

SEED = 7
SAMPLES = 2000


def _scaled_c(srest):
    def faulty(lam):
        s, c = srest(lam)
        return s, c * 1.001
    return faulty


def _keep_as_swap(keep_minus_swap):
    """keep = swap: the pair term (keep - swap) / (S_ii + S_jj) is zero."""
    def faulty(s, D2):
        return np.zeros_like(keep_minus_swap(s, D2))
    return faulty


def _negated(keep_minus_swap):
    def faulty(s, D2):
        return -keep_minus_swap(s, D2)
    return faulty


def _flipped_sec2(curvature_terms):
    def faulty(lam, sec1, sec2):
        return curvature_terms(lam, sec1, -sec2)
    return faulty


def _scaled_coeff(sectional_coeff):
    def faulty(lam):
        return sectional_coeff(lam) * 0.99
    return faulty


def _flipped_table_sign(pair_operator_table):
    def faulty(n):
        diag, off = pair_operator_table(n)
        off = off.copy()
        off[2, :1] *= -1
        return diag, off
    return faulty


def _swapped_pair_factor(pair_factors):
    """Pairs (0, k) and (1, k) read each other's l_a l_b."""
    def faulty(lam):
        factors = list(pair_factors(lam))
        factors[4] = factors[4][[1, 0, *range(2, lam.shape[1])]]
        return tuple(factors)
    return faulty


def _scaled_triple_weight(triple_weight):
    """The weight's leading coefficient off by 0.1 %."""
    def faulty(F, i, j, k):
        return triple_weight(F, i, j, k) * 1.001
    return faulty


def _no_offdiag_energy(offdiag_gradient_energy):
    """The gradient energy without its 2 sum_{x<y} (QQ)_xy g_xy^2 term."""
    def faulty(lam, h):
        return np.zeros(len(lam))
    return faulty


def _nan_at_row_3(kernel):
    """Row 3 of every kernel call (one per checked block) turns NaN, as a 0/0
    inside the kernel would."""
    def faulty(*args):
        out = np.array(kernel(*args))
        out[3] = np.nan
        return out
    return faulty


FAULTS = {
    "srest_c_x1.001": (cp, "_srest", _scaled_c),
    "keep_returns_swap": (cp, "_keep_minus_swap", _keep_as_swap),
    "pair_term_negated": (cp, "_keep_minus_swap", _negated),
    "sec2_sign": (cp, "curvature_terms", _flipped_sec2),
    "sectional_coeff_x0.99": (cp, "_sectional_coeff", _scaled_coeff),
    "pair_table_sign": (svcore, "_pair_operator_table", _flipped_table_sign),
    "pair_factor_swapped": (cp, "_pair_factors", _swapped_pair_factor),
    "triple_weight_x1.001": (cp, "_triple_weight", _scaled_triple_weight),
    "offdiag_energy_dropped": (cp, "offdiag_gradient_energy", _no_offdiag_energy),
    "master_gap_nan": (cp, "master_gaps", _nan_at_row_3),
    "key_identity_nan": (cp, "key_identity_residuals", _nan_at_row_3),
}

CASES = [
    ("srest_c_x1.001", "pair_claim", 3, 2),
    ("srest_c_x1.001", "regroup", 3, 3),
    ("keep_returns_swap", "pair_claim", 3, 2),
    ("keep_returns_swap", "master", 2, 2),
    ("pair_term_negated", "pair_claim", 3, 2),
    ("pair_term_negated", "master", 2, 2),
    ("sec2_sign", "regroup", 3, 2),
    ("sectional_coeff_x0.99", "sectional", 3, 2),
    ("pair_factor_swapped", "regroup", 3, 2),
    ("pair_factor_swapped", "triple_weight", 3, 3),
    ("triple_weight_x1.001", "triple_weight", 3, 3),
    ("triple_weight_x1.001", "regroup", 3, 2),
    ("triple_weight_x1.001", "ricci", 3, 2),
    ("master_gap_nan", "master", 3, 2),
    ("key_identity_nan", "pair_claim", 3, 2),
]


@pytest.mark.parametrize("suite, n, m", sorted({case[1:] for case in CASES}))
def test_suite_passes_unpatched(suite, n, m):
    assert cp.run_suite(suite, n=n, m=m, samples=SAMPLES, seed=SEED)["passed"]


@pytest.mark.parametrize("fault, suite, n, m", CASES)
def test_seeded_fault_turns_suite_red(monkeypatch, fault, suite, n, m):
    module, attr, make_faulty = FAULTS[fault]
    monkeypatch.setattr(module, attr, make_faulty(getattr(module, attr)))
    report = cp.run_suite(suite, n=n, m=m, samples=SAMPLES, seed=SEED)
    assert not report["passed"], report["configs"]


# Faults in the verifier statements that the exact-rational block reads.
# The block is memoised per process, and the unpatched cases fill the memo
# with the same keys; the autouse fixture in conftest.py clears it, so each
# fault is evaluated rather than served a clean block.
EXACT_FAULTS = {
    "master_gap_negated": ("master_inequality_gap", lambda gap: lambda *a: -gap(*a)),
    "pair_claim_negated": ("pair_claim_gap", lambda gap: lambda *a: -gap(*a)),
    "regroup_residual_one": ("ricci_regroup_residual", lambda residual: lambda *a: 1),
}


@pytest.mark.parametrize("suite", ["master", "pair_claim", "regroup"])
def test_exact_block_passes_unpatched(suite):
    report = cp.run_suite(suite, n=2, m=2, samples=1000, seed=SEED, exact=True)
    assert report["passed"] and len(report["exact"]) == 3


@pytest.mark.parametrize("fault", sorted(EXACT_FAULTS))
def test_seeded_verifier_fault_turns_exact_block_red(monkeypatch, fault):
    attr, make_faulty = EXACT_FAULTS[fault]
    monkeypatch.setattr(vf, attr, make_faulty(getattr(vf, attr)))
    report = cp.run_suite("master", n=2, m=2, samples=1000, seed=SEED, exact=True)
    assert all(c["passed"] for c in report["configs"])
    assert not report["passed"], report["exact"]
    assert sum(e["violations"] for e in report["exact"]) > 0


def _no_constants(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("fault, suite, n, m", [c for c in CASES if c[0].endswith("_nan")])
def test_nan_fault_prints_strict_json(monkeypatch, capsys, fault, suite, n, m):
    module, attr, make_faulty = FAULTS[fault]
    monkeypatch.setattr(module, attr, make_faulty(getattr(module, attr)))
    rc = main(["verify", suite, "--n", str(n), "--m", str(m),
               "--samples", str(SAMPLES), "--seed", str(SEED)])
    report = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    assert rc == 1 and not report["passed"]
    (config,) = report["configs"]
    assert math.isfinite(config["worst"])
    # a NaN gap is a violation: one per block; a NaN extra leaves its field finite
    if fault == "master_gap_nan":
        assert config["violations"] == -(-SAMPLES // cp.BLOCK)
    else:
        assert config["violations"] == 0 and math.isfinite(config["key_identity_max"])


def _pair_operator_routes_agree():
    rng = np.random.default_rng(SEED)
    S = rng.normal(size=(4, 4))
    S = S + S.T
    ref = np.array(vf._pair_operator_rows(S, svcore.pair_index(4)))
    return np.allclose(svcore.s_two_matrix(S), ref, rtol=1e-12, atol=1e-12)


def _master_routes_agree():
    rng = np.random.default_rng(SEED)
    n, m = 3, 3
    lam = cp.sample_spectra(rng, 20, n, m)
    h = cp.sample_h(rng, 20, n, m)
    sec1 = cp.sample_sec(rng, 20, n, -2.0, 2.0)
    block = cp.sample_sec(rng, 20, m, -2.0, 2.0)
    kern = cp.master_gaps(lam, h).astype(float)
    ref = [vf.master_inequality_gap(vf.restriction_from_lambdas(lam[b]), vf.HCoefficients(h[b]),
                                    vf.CurvatureSample(n, m, sec1[b], block[b]))
           for b in range(20)]
    return np.allclose(kern, ref, rtol=1e-9, atol=1e-9)


# No suite turns these red: the oracle assembles the pair operator of a
# diagonal S, whose off-diagonal entries are all zero, and master's slack
# (worst gap above 1 for n >= 3) is wider than the dropped term.
ROUTE_CASES = [
    ("pair_table_sign", _pair_operator_routes_agree),
    ("offdiag_energy_dropped", _master_routes_agree),
]


@pytest.mark.parametrize("fault, routes_agree", ROUTE_CASES)
def test_seeded_fault_splits_kernel_from_verifier(monkeypatch, fault, routes_agree):
    assert routes_agree()
    module, attr, make_faulty = FAULTS[fault]
    monkeypatch.setattr(module, attr, make_faulty(getattr(module, attr)))
    assert not routes_agree()
