"""Homotopy-triviality criteria for area-decreasing maps, with the dilation
trick that rescales the target metric to put an almost-area-decreasing map
inside the hypotheses.

Two criteria are implemented, named after the curvature comparison they use:

* sectional: source sectional curvature >= 1 and target sectional curvature
  strictly below (2n - m - 1)/(m - 1), for n >= m >= 2;
* ricci: Einstein-constant comparison Ric1/g1 >= Ric2/g2 together with
  sec1 + sec2 > 0, for dim1 >= dim2 >= 2.

Rescaling the target metric by rho^2 divides every target curvature by
rho^2, so each hypothesis is a row a rho^2 - b > 0 (or >= 0), stated once in
`_hypotheses`: the check at a fixed metric, the rho^2 range, the certified
2-dilation bound and the dilation witness all read the rows.

Verdicts are one-directional: either "hypotheses hold" (map is homotopically
trivial) or "hypotheses not met" - never "nontrivial".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import CurvatureModel, cp, curvature_bounds, model_to_str, parse_model, sphere
from .svcore import spectrum, two_dilation

THEOREM_NAMES = {"sectional": "sectional", "ricci": "ricci", "13": "sectional", "14": "ricci"}


@dataclass(frozen=True)
class MapProfile:
    """A named map described by its singular-value data.

    spectra holds one spectrum per sampled point (a constant map profile has
    a single row); sup_two_dilation is the max over the stored spectra.
    """

    name: str
    source: CurvatureModel
    target: CurvatureModel
    spectra: tuple
    sup_two_dilation: float = field(init=False)

    def __post_init__(self):
        with np.errstate(over="ignore"):
            sup = max(two_dilation(s) for s in self.spectra)
        if not math.isfinite(sup):
            raise ValueError("the sup 2-dilation of the spectra is out of floating-point range")
        object.__setattr__(self, "sup_two_dilation", float(sup))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    criterion: str
    details: dict

    def to_json(self):
        return {"hypotheses_hold": self.ok, "criterion": self.criterion,
                "details": self.details}


def sphere_pair_bound(n: int, m: int) -> float:
    """(2n - m - 1)/(m - 1): the sup of lambda_i lambda_j below which a map
    between unit spheres is homotopically trivial (n >= m >= 2)."""
    if not (n >= m >= 2):
        raise ValueError("need n >= m >= 2")
    return (2 * n - m - 1) / (m - 1)


def cp_bound(n: int) -> float:
    """2n/(2n+1): 2-dilation bound for maps S^{2n+1} -> CP^n (sharp as
    n grows; the Hopf fibration has 2-dilation one)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 2 * n / (2 * n + 1)


def hp_bound(n: int) -> float:
    """(4n+2)/(4(n+2)): 2-dilation bound for maps S^{4n+3} -> HP^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (4 * n + 2) / (4 * (n + 2))


def polynomial_degree_bound(n: int, m: int) -> float:
    """Any homotopically nontrivial polynomial map between unit spheres has
    degree at least sqrt((2n - m - 1)/(m - 1)): a degree-k polynomial map
    keeps every singular value <= k."""
    return math.sqrt(sphere_pair_bound(n, m))


def _hypotheses(criterion: str, source: CurvatureModel, target: CurvatureModel):
    """The curvature numbers a verdict prints, and the criterion's hypotheses
    on rescale(target, rho) as exact rows (a, b, strict, text): each means
    a rho^2 - b > 0 (strict) or >= 0, since rescaling divides every target
    curvature by rho^2.  `text` is the row's `failed` message."""
    if not (source.dim >= target.dim >= 2):
        raise ValueError("need dim(source) >= dim(target) >= 2")
    s1_min, _, ric1 = curvature_bounds(source)
    s2_min, s2_max, ric2 = curvature_bounds(target)
    q1_min, q2_min, q2_max, e1, e2 = map(Fraction, (s1_min, s2_min, s2_max, ric1, ric2))
    if criterion == "sectional":
        bound = sphere_pair_bound(source.dim, target.dim)
        numbers = {"n": source.dim, "m": target.dim, "bound": bound,
                   "source_sec_min": s1_min, "target_sec_max": s2_max}
        rows = [(q1_min - 1, 0, False, "source sectional curvature must be >= 1"),
                (Fraction(bound), q2_max, True, "target sectional curvature must be < bound")]
    else:
        numbers = {"source_ricci": ric1, "target_ricci": ric2,
                   "source_sec_min": s1_min, "target_sec_min": s2_min}
        rows = [(e1, e2, False, "source Einstein constant must dominate the target's"),
                (q1_min, -q2_min, True, "sectional curvature sums must be positive")]
    return numbers, rows


def _holds(row, rho_sq) -> bool:
    """Whether a rho^2 - b > 0 (strict) or >= 0 at the exact rho^2 = rho_sq."""
    a, b, strict, _ = row
    return a * rho_sq > b if strict else a * rho_sq >= b


def _float(x, name):
    """The exact x >= 0 rounded once to print; refused by name if x > 0 rounds to 0 or inf."""
    rounded = float(x) if x < 2**1024 - 2**970 else math.inf   # from there it rounds to 2^1024
    if 0 < x < math.inf and not 0 < rounded < math.inf:
        raise ValueError(f"{name} is too {'large' if rounded else 'small'} for a float")
    return rounded


def _rho_sq_range(rows):
    """The exact rho^2 range (lo, hi) on which every row holds, and None; or
    None and the reason it is empty.  A row with a > 0 gives the lower end
    b/a, one with a < 0 and b < 0 the upper end b/a; a row with a = 0 holds
    for every rho or for none, and any other row for none."""
    lo, hi, lo_text, hi_text = 0, math.inf, None, None
    for row in rows:
        a, b, _, text = row
        if a > 0:
            if b / a > lo:
                lo, lo_text = b / a, text
        elif a < 0 and b < 0:
            if b / a < hi:
                hi, hi_text = b / a, text
        elif a or not _holds(row, 1):
            return None, f"no rescaling of the target meets \"{text}\""
    if not lo < hi:
        return None, (f"\"{lo_text}\" needs rho^2 >= {_float(lo, 'a lower rho^2 end'):.6g} "
                      f"and \"{hi_text}\" needs rho^2 <= {_float(hi, 'an upper rho^2 end'):.6g}")
    return (lo, hi), None


def check_criterion(criterion: str, source: CurvatureModel, target: CurvatureModel) -> Verdict:
    """The criterion's hypotheses at the given metrics (rho = 1); `failed`
    names the first that fails."""
    criterion = THEOREM_NAMES[str(criterion)]
    numbers, rows = _hypotheses(criterion, source, target)
    details = {**numbers, "source": model_to_str(source), "target": model_to_str(target)}
    missed = [row[3] for row in rows if not _holds(row, 1)]
    if missed:
        details["failed"] = missed[0]
    return Verdict(not missed, criterion, details)


def _json_end(x):
    """An interval end for strict JSON: an unbounded end is written as null."""
    return None if math.isinf(x) else x


@dataclass(frozen=True)
class DilationResult:
    rho: float | None
    interval_sq: tuple | None    # feasible interval for rho^2, (lo, hi); hi may be inf
    verdict: str
    criterion: str
    details: dict

    def to_json(self):
        return {
            "rho": self.rho,
            "feasible_interval_rho_sq": ([_json_end(x) for x in self.interval_sq]
                                         if self.interval_sq else None),
            "verdict": self.verdict,
            "criterion": self.criterion,
            "details": self.details,
        }


def dilation_trick(profile: MapProfile, criterion: str) -> DilationResult:
    """Search for rho making the rescaled target satisfy the criterion while
    the map becomes strictly area-decreasing (sup 2-dilation * rho^2 < 1).

    The feasible set is an interval in rho^2; the witness rho is the
    geometric mean of the interval endpoints (log-symmetric margin).  With an
    unbounded side, the witness doubles/halves from the finite endpoint.
    Every verdict's details carry `certified_two_dilation_bound` = 1/lo,
    with lo the lower end of the curvature side's rho^2 range: the criterion
    certifies exactly the maps whose sup 2-dilation lies below it.  It is
    None when that range is empty or starts at 0.  Returns rho = None when
    the interval is empty; its details then name the side that blocks.
    Otherwise the witness is checked exactly on the same rows at its rho^2,
    and the details add the curvature numbers of the profile's own models;
    an interval too thin for the witness names the row it misses.  A
    printed number that leaves the float range raises ValueError.
    """
    criterion = THEOREM_NAMES[str(criterion)]
    numbers, rows = _hypotheses(criterion, profile.source, profile.target)
    curvature, blocked = _rho_sq_range(rows)
    sup = profile.sup_two_dilation
    cap = _float(1 / Fraction(sup), "the area-decreasing cap 1/sup") if sup > 0 else math.inf
    certified = None
    if curvature is not None:
        lo, hi = map(_float, curvature, ("the lower rho^2 end", "the upper rho^2 end"))
        certified = _float(1 / Fraction(lo), "the certified 2-dilation bound") if lo > 0 else None
    details = {"sup_two_dilation": sup, "profile": profile.name,
               "source": model_to_str(profile.source),
               "target": model_to_str(profile.target),
               "certified_two_dilation_bound": certified}
    if curvature is None or (certified is not None and not sup < certified):
        details["area_decreasing_rho_sq_max"] = _json_end(cap)
        if curvature is None:
            details.update(curvature_rho_sq=None, failed=f"the curvature side blocks: {blocked}")
        else:
            details.update(curvature_rho_sq=[lo, _json_end(hi)],
                           failed=f"the area-decreasing side blocks: it needs rho^2 < 1/sup "
                                  f"= {cap:.6g}, the curvature side rho^2 >= {lo:.6g}, so only "
                                  f"a sup 2-dilation below {certified:.6g} is certified")
        return DilationResult(None, None, "hypotheses not met", criterion, details)
    lo, hi = interval = (lo, min(hi, cap))
    if math.isinf(hi):
        rho_sq = 2.0 * lo if lo > 0 else 1.0
    else:
        rho_sq = math.sqrt(lo * hi) if lo > 0 else hi / 2.0
    if not 0 < rho_sq < math.inf:
        raise ValueError(f"the witness rho^2 for the interval {interval} leaves the float range")
    details.update(numbers)
    # sup * rho^2 < 1 is the row (-sup, -1, strict): its upper end is 1/sup
    area = (-Fraction(sup), -1, True, "the rescaled map must be area-decreasing")
    missed = [row[3] for row in (*rows, area) if not _holds(row, Fraction(rho_sq))]
    if missed:
        # the open interval can be too thin for the witness at fp resolution
        details["failed"] = (f"the rho^2 interval is too thin for a witness: "
                             f"rho^2 = {rho_sq!r} misses \"{missed[0]}\"")
        return DilationResult(None, interval, "hypotheses not met", criterion, details)
    verdict = f"homotopically trivial by the {criterion} criterion"
    return DilationResult(math.sqrt(rho_sq), interval, verdict, criterion, details)


def _constant_profile(name, source, target, lam, m=None):
    spec = spectrum(lam, m=m if m is not None else target.dim)
    return MapProfile(name=name, source=source, target=target, spectra=(spec,))


def named_spectrum(name: str, n: int | None = None) -> MapProfile:
    """Catalog of named map profiles.

    hopf_s3_s2, hopf_s7_s4, hopf_s15_s8: the classical fibrations, singular
    values 2 (on the horizontal space) and 0 (fiber directions), so the
    2-dilation is 4.  hopf_s2n1_cpn(n): singular values 1 with multiplicity
    2n and a single 0; 2-dilation 1.  identity(n): the identity of S^n.
    """
    if n is not None and name in ("hopf_s3_s2", "hopf_s7_s4", "hopf_s15_s8"):
        raise ValueError(f"{name} takes no parameter")
    if name == "hopf_s3_s2":
        return _constant_profile(name, sphere(3), sphere(2), [2.0, 2.0, 0.0])
    if name == "hopf_s7_s4":
        return _constant_profile(name, sphere(7), sphere(4), [2.0] * 4 + [0.0] * 3)
    if name == "hopf_s15_s8":
        return _constant_profile(name, sphere(15), sphere(8), [2.0] * 8 + [0.0] * 7)
    if name == "hopf_s2n1_cpn":
        if not n or n < 1:
            raise ValueError("hopf_s2n1_cpn needs n >= 1")
        return _constant_profile(name, sphere(2 * n + 1), cp(n), [1.0] * (2 * n) + [0.0])
    if name == "identity":
        if not n or n < 2:
            raise ValueError("identity needs n >= 2")
        return _constant_profile(name, sphere(n), sphere(n), [1.0] * n)
    raise ValueError(f"unknown profile {name!r}")


def profile_from_json(data: dict) -> MapProfile:
    """Profile from a JSON dict: {"name", "source", "target", "spectra"}
    with models in the plain-text grammar and spectra as rows of singular
    values (a single flat row is taken as one row); each row holds
    source.dim values."""
    if not (isinstance(data, dict) and {"source", "target", "spectra"} <= data.keys()):
        raise ValueError("a profile is a JSON object with source, target and spectra")
    source = parse_model(data["source"])
    target = parse_model(data["target"])
    rows = data["spectra"]
    if isinstance(rows, list) and rows and not isinstance(rows[0], list):
        rows = [rows]
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) and len(row) == source.dim for row in rows)):
        raise ValueError(f"spectra must be one or more rows of {source.dim} singular values")
    spectra = tuple(spectrum(row, m=target.dim) for row in rows)
    return MapProfile(name=data.get("name", "custom"), source=source,
                      target=target, spectra=spectra)
