"""Singular-value spectra, the restricted tensor S, the pair operator S^[2],
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

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAreaDecreasingError

# Pairs with 1 - (li*lj)^2 below this guard are rejected as not
# area-decreasing: downstream formulas divide by that factor.
PAIR_PRODUCT_GUARD = 1e-14


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


@dataclass(frozen=True)
class SRestriction:
    """Diagonal values of the restricted tensor in the SVD frame."""

    s: np.ndarray
    c: np.ndarray
    lam: np.ndarray


def spectrum(values, m=None) -> SingularSpectrum:
    """Build a SingularSpectrum from an unsorted value sequence."""
    lam = np.sort(np.asarray(values, dtype=float))[::-1].copy()
    n = lam.size
    if m is None:
        m = n
    return SingularSpectrum(n=n, m=int(m), lam=lam)


def singular_values(df, m=None) -> SingularSpectrum:
    """Spectrum of an n x m array of partials in orthonormal frames.

    Solves the symmetric eigenproblem of the smaller Gram matrix of df and
    pads with zeros beyond min(n, m).
    """
    df = np.asarray(df, dtype=float)
    if df.ndim != 2:
        raise ValueError("df must be a 2-d array")
    if not np.all(np.isfinite(df)):
        raise ValueError("df must have finite entries")
    n, mm = df.shape
    if m is None:
        m = mm
    gram = df.T @ df if mm <= n else df @ df.T
    w = np.linalg.eigvalsh(gram)
    w = np.sqrt(np.clip(w, 0.0, None))[::-1]
    lam = np.zeros(n)
    lam[:min(n, mm)] = w[:min(n, mm)]
    return SingularSpectrum(n=n, m=int(m), lam=lam)


def two_dilation(spec: SingularSpectrum) -> float:
    """max_{i<j} lambda_i lambda_j; the product of the two largest values."""
    if spec.n < 2:
        raise ValueError("two_dilation needs at least two singular values")
    return float(spec.lam[0] * spec.lam[1])


def is_area_decreasing(spec: SingularSpectrum) -> bool:
    """Strict inequality two_dilation < 1."""
    return two_dilation(spec) < 1.0


def s_restriction(spec: SingularSpectrum) -> SRestriction:
    lam = spec.lam
    den = 1.0 + lam**2
    return SRestriction(s=(1.0 - lam**2) / den, c=2.0 * lam / den, lam=lam.copy())


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


def _check_pairs(lam):
    if lam.size >= 2:
        worst = lam[0] * lam[1]
        if 1.0 - worst * worst < PAIR_PRODUCT_GUARD:
            raise NotAreaDecreasingError(
                f"pair product {worst:.17g} is not strictly area-decreasing")


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


def phi(spec: SingularSpectrum) -> float:
    """The monotone quantity, evaluated as a sum of logs.

    Phi <= 0 always; Phi = 0 iff all singular values vanish (n >= 2); the
    empty product at n = 1 gives 0.
    """
    _check_pairs(spec.lam)
    return float(phi_batch(spec.lam[None, :])[0])


def log_det_s2(spec: SingularSpectrum) -> float:
    """(n(n-1)/2) log 2 + Phi."""
    n = spec.n
    return (n * (n - 1) / 2.0) * math.log(2.0) + phi(spec)


def log_det_s2_oracle(spec: SingularSpectrum) -> float:
    """Independent route: pivoted-factorization log-determinant of the
    assembled pair operator of diag(S_ii)."""
    rest = s_restriction(spec)
    _check_pairs(spec.lam)
    sign, logdet = np.linalg.slogdet(s_two_matrix(np.diag(rest.s)))
    if sign <= 0:
        raise NotAreaDecreasingError("pair operator is not positive definite")
    return float(logdet)


def rescale_spectrum(spec: SingularSpectrum, rho: float) -> SingularSpectrum:
    """Target-metric dilation by rho^2 multiplies every singular value by rho."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    return SingularSpectrum(n=spec.n, m=spec.m, lam=spec.lam * rho)
