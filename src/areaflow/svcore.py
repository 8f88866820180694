"""Singular-value spectra, the pair operator S^[2], the pair-product guard
and the monotone quantity Phi of area-decreasing maps.

For a map differential with singular values lambda_1 >= ... >= lambda_n the
restriction of the product tensor S to the graph is diagonal in the SVD frame,

    S_ii = (1 - lambda_i^2) / (1 + lambda_i^2),
    C_ii = 2 lambda_i / (1 + lambda_i^2),        S_ii^2 + C_ii^2 = 1,

and the induced operator on index pairs has diagonal entries S_ii + S_jj whose
positivity is equivalent to the area-decreasing condition.  The monotone
quantity is

    Phi = sum_{i<j} [ log(1 - li^2 lj^2) - log(1 + li^2) - log(1 + lj^2) ],

with log det S^[2] = (n(n-1)/2) log 2 + Phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Pairs with 1 - (li*lj)^2 below this guard are rejected as not
# area-decreasing: downstream formulas divide by that factor.
PAIR_PRODUCT_GUARD = 1e-14
_EXACT_GUARD_LIMIT = Fraction(1.0 - PAIR_PRODUCT_GUARD)    # for Fraction input


def pair_flags(pair_sq):
    """True where a squared pair product (li*lj)^2 is within the guard of
    one or beyond it, i.e. where the pair is not strictly area-decreasing.

    Elementwise on arrays; exact on `fractions.Fraction` (compared with the
    double 1 - PAIR_PRODUCT_GUARD as a Fraction, converted once).
    """
    if isinstance(pair_sq, Fraction):
        return pair_sq >= _EXACT_GUARD_LIMIT
    return pair_sq >= 1.0 - PAIR_PRODUCT_GUARD


@dataclass(frozen=True)
class SingularSpectrum:
    """Sorted singular values of a map differential.

    lam has length n (source dimension), is sorted descending, and is zero
    beyond min(n, m) by convention.
    """

    n: int
    m: int
    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (self.n,):
            raise ValueError(f"expected {self.n} singular values, got shape {lam.shape}")
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("singular values must be finite and non-negative")
        if np.any(np.diff(lam) > 0):
            raise ValueError("singular values must be sorted descending")
        if np.any(lam[min(self.n, self.m):] != 0):
            raise ValueError("values beyond min(n, m) must be zero")
        object.__setattr__(self, "lam", lam)


def spectrum(values, m=None) -> SingularSpectrum:
    """Build a SingularSpectrum from an unsorted value sequence."""
    lam = np.sort(np.asarray(values, dtype=float))[::-1].copy()
    n = lam.size
    if m is None:
        m = n
    return SingularSpectrum(n=n, m=int(m), lam=lam)


def two_dilation(spec: SingularSpectrum) -> float:
    """max_{i<j} lambda_i lambda_j; the product of the two largest values."""
    if spec.n < 2:
        raise ValueError("two_dilation needs at least two singular values")
    return float(spec.lam[0] * spec.lam[1])


def pair_index(n: int):
    """Row order (0,1), (0,2), ..., (n-2,n-1) of the pair operator."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


# n -> _pair_operator_table(n), filled on first use
_PAIR_TABLES = {}


def _pair_operator_table(n):
    """Index table of the pair operator, built once per n and read-only:
    ((i, j), (rows, cols, sign, x, y)).  The diagonal entry of rows (i, j)
    reads S_ii + S_jj; the off-diagonal entry (rows, cols) reads sign * S_xy.

    For A = (i, j) != B = (k, l) at most one of the four deltas holds
    (i = l and j = k together would need i < j = k < l = i), so each
    nonzero off-diagonal entry is one signed entry of S.
    """
    if n not in _PAIR_TABLES:
        pairs = pair_index(n)
        off = [(A, B, sign, x, y)
               for A, (i, j) in enumerate(pairs) for B, (k, l) in enumerate(pairs) if A != B
               for hit, sign, x, y in ((j == l, 1, i, k), (i == k, 1, j, l),
                                       (j == k, -1, i, l), (i == l, -1, j, k)) if hit]
        table = (np.array(pairs, dtype=np.intp).reshape(-1, 2).T,
                 np.array(off, dtype=np.intp).reshape(-1, 5).T)
        for arr in table:   # every caller shares these arrays
            arr.setflags(write=False)
        _PAIR_TABLES[n] = table
    return _PAIR_TABLES[n]


def s_two_matrix(S) -> np.ndarray:
    """Assemble the pair operator of a symmetric matrix S, or of each matrix
    in a (..., n, n) stack.

    Entry for rows (ij), (kl) is S_ik d_jl + S_jl d_ik - S_il d_jk - S_jk d_il;
    rows with all four indices distinct vanish.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise ValueError("S must be square")
    if not np.allclose(S, np.swapaxes(S, -1, -2), atol=1e-12, rtol=0.0):
        raise ValueError("S must be symmetric to 1e-12")
    (di, dj), (rows, cols, sign, x, y) = _pair_operator_table(S.shape[-1])
    N = di.size
    out = np.zeros(S.shape[:-2] + (N, N))
    out[..., rows, cols] = sign * S[..., x, y]
    d = np.arange(N)
    out[..., d, d] = S[..., di, di] + S[..., dj, dj]
    return out


def phi_batch(lam) -> np.ndarray:
    """Phi of every row of a (B, n) stack of spectra, in the dtype of lam.

    Pairs are summed in the row order of pair_index.  No pair guard is
    applied: rows with a pair product at or above one give nan or -inf.
    """
    n = lam.shape[1]
    sq = lam * lam
    log_den = np.log1p(sq)
    total = np.zeros(lam.shape[0], dtype=lam.dtype)
    for i, j in pair_index(n):
        total += np.log1p(-sq[:, i] * sq[:, j]) - log_den[:, i] - log_den[:, j]
    return total
