"""Seeded faults must turn a suite red (mutation testing).

Each fault is monkeypatched into one campaigns kernel helper; the suite that
checks the algebra behind it must then report ``passed == False``, while the
same suites pass on the unpatched kernels.
"""

import pytest

from areaflow import campaigns as cp

SEED = 7
SAMPLES = 2000


def _scaled_c(srest):
    def faulty(lam):
        s, c = srest(lam)
        return s, c * 1.001
    return faulty


def _keep_as_swap(keep_swap):
    def faulty(c, h, n):
        _, swap, D2 = keep_swap(c, h, n)
        return swap, swap, D2
    return faulty


def _flipped_sec2(curvature_terms):
    def faulty(lam, sec1, sec2):
        return curvature_terms(lam, sec1, -sec2)
    return faulty


def _scaled_coeff(sectional_coeff):
    def faulty(lam):
        return sectional_coeff(lam) * 0.99
    return faulty


FAULTS = {
    "srest_c_x1.001": ("_srest", _scaled_c),
    "keep_returns_swap": ("_keep_swap", _keep_as_swap),
    "sec2_sign": ("curvature_terms", _flipped_sec2),
    "sectional_coeff_x0.99": ("_sectional_coeff", _scaled_coeff),
}

CASES = [
    ("srest_c_x1.001", "pair_claim", 3, 2),
    ("srest_c_x1.001", "regroup", 3, 3),
    ("keep_returns_swap", "pair_claim", 3, 2),
    ("sec2_sign", "regroup", 3, 2),
    ("sec2_sign", "ricci", 3, 2),
    ("sectional_coeff_x0.99", "sectional", 3, 2),
]


@pytest.mark.parametrize("suite, n, m", sorted({case[1:] for case in CASES}))
def test_suite_passes_unpatched(suite, n, m):
    assert cp.run_suite(suite, n=n, m=m, samples=SAMPLES, seed=SEED)["passed"]


@pytest.mark.parametrize("fault, suite, n, m", CASES)
def test_seeded_fault_turns_suite_red(monkeypatch, fault, suite, n, m):
    attr, make_faulty = FAULTS[fault]
    monkeypatch.setattr(cp, attr, make_faulty(getattr(cp, attr)))
    report = cp.run_suite(suite, n=n, m=m, samples=SAMPLES, seed=SEED)
    assert not report["passed"], report["configs"]
