"""Homotopy-triviality criteria for area-decreasing maps, with the dilation
trick that rescales the target metric to put an almost-area-decreasing map
inside the hypotheses.

Two criteria are implemented, named after the curvature comparison they use:

* sectional: source sectional curvature >= 1 and target sectional curvature
  strictly below (2n - m - 1)/(m - 1), for n >= m >= 2;
* ricci: Einstein-constant comparison Ric1/g1 >= Ric2/g2 together with
  sec1 + sec2 > 0, for dim1 >= dim2 >= 2.

Verdicts are one-directional: either "hypotheses hold" (map is homotopically
trivial) or "hypotheses not met" - never "nontrivial".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import CurvatureModel, cp, curvature_bounds, model_to_str, rescale, sphere
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
        sup = max(two_dilation(s) for s in self.spectra)
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


def check_sectional_criterion(source: CurvatureModel, target: CurvatureModel) -> Verdict:
    """sec1 >= 1 (non-strict) and sec2 < (2n-m-1)/(m-1) (strict)."""
    n, m = source.dim, target.dim
    if not (n >= m >= 2):
        raise ValueError("need dim(source) >= dim(target) >= 2")
    s1_min, _s1_max, _ = curvature_bounds(source)
    _s2_min, s2_max, _ = curvature_bounds(target)
    bound = sphere_pair_bound(n, m)
    details = {
        "n": n, "m": m, "bound": bound,
        "source_sec_min": s1_min, "target_sec_max": s2_max,
        "source": model_to_str(source), "target": model_to_str(target),
    }
    if s1_min < 1.0:
        details["failed"] = "source sectional curvature must be >= 1"
        return Verdict(False, "sectional", details)
    if not s2_max < bound:
        details["failed"] = "target sectional curvature must be < bound"
        return Verdict(False, "sectional", details)
    return Verdict(True, "sectional", details)


def check_ricci_criterion(source: CurvatureModel, target: CurvatureModel) -> Verdict:
    """Ric1/g1 >= Ric2/g2 (Einstein constants; non-strict) and
    min sec1 + min sec2 > 0 (strict)."""
    if not (source.dim >= target.dim >= 2):
        raise ValueError("need dim(source) >= dim(target) >= 2")
    s1_min, _, ric1 = curvature_bounds(source)
    s2_min, _, ric2 = curvature_bounds(target)
    details = {
        "source_ricci": ric1, "target_ricci": ric2,
        "source_sec_min": s1_min, "target_sec_min": s2_min,
        "source": model_to_str(source), "target": model_to_str(target),
    }
    # non-strict comparison; the sharp case arrives through sqrt/square
    # round trips, so allow rounding-level slack
    slack = 1e-12 * max(abs(ric1), abs(ric2), 1.0)
    if ric1 < ric2 - slack:
        details["failed"] = "source Einstein constant must dominate the target's"
        return Verdict(False, "ricci", details)
    if not s1_min + s2_min > 0:
        details["failed"] = "sectional curvature sums must be positive"
        return Verdict(False, "ricci", details)
    return Verdict(True, "ricci", details)


CHECKS = {"sectional": check_sectional_criterion, "ricci": check_ricci_criterion}


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


def _ricci_interval(source, target):
    """Feasible rho^2 interval for the ricci criterion on rescale(target, rho)."""
    s1_min, _, ric1 = curvature_bounds(source)
    s2_min, _, ric2 = curvature_bounds(target)
    lo, hi = 0.0, math.inf
    if ric2 > 0:
        if ric1 <= 0:
            return None
        lo = max(lo, ric2 / ric1)
    if s2_min >= 0:
        if s1_min <= 0:
            if s2_min == 0:
                return None
            hi = min(hi, s2_min / (-s1_min)) if s1_min < 0 else hi
    else:
        if s1_min <= 0:
            return None
        lo = max(lo, (-s2_min) / s1_min)
    return lo, hi


def _sectional_interval(source, target):
    s1_min, _, _ = curvature_bounds(source)
    if s1_min < 1.0:
        return None
    _, s2_max, _ = curvature_bounds(target)
    bound = sphere_pair_bound(source.dim, target.dim)
    lo = max(0.0, s2_max / bound)
    return lo, math.inf


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
    """
    criterion = THEOREM_NAMES[str(criterion)]
    if not (profile.source.dim >= profile.target.dim >= 2):
        raise ValueError("need dim(source) >= dim(target) >= 2")
    if criterion == "sectional":
        interval = _sectional_interval(profile.source, profile.target)
    else:
        interval = _ricci_interval(profile.source, profile.target)
    sup = profile.sup_two_dilation
    curvature = interval if interval is not None and interval[0] < interval[1] else None
    certified = 1.0 / curvature[0] if curvature is not None and curvature[0] > 0 else None
    details = {"sup_two_dilation": sup, "profile": profile.name,
               "source": model_to_str(profile.source),
               "target": model_to_str(profile.target),
               "certified_two_dilation_bound": certified}
    cap = 1.0 / sup if sup > 0 else math.inf
    if curvature is None or (certified is not None and not sup < certified):
        details["area_decreasing_rho_sq_max"] = _json_end(cap)
        if curvature is None:
            details.update(curvature_rho_sq=None,
                           failed=f"the curvature side blocks: no rescaling of the target "
                                  f"meets the {criterion} curvature hypotheses")
        else:
            lo, hi = curvature
            details.update(curvature_rho_sq=[lo, _json_end(hi)],
                           failed=f"the area-decreasing side blocks: it needs rho^2 < 1/sup "
                                  f"= {cap:.6g}, the curvature side rho^2 >= {lo:.6g}, so only "
                                  f"a sup 2-dilation below {certified:.6g} is certified")
        return DilationResult(None, None, "hypotheses not met", criterion, details)
    lo, hi = curvature[0], min(curvature[1], cap)
    interval = (lo, hi)
    if math.isinf(hi):
        rho_sq = 2.0 * lo if lo > 0 else 1.0
    elif lo == 0.0:
        rho_sq = hi / 2.0
    else:
        rho_sq = math.sqrt(lo * hi)
    rho = math.sqrt(rho_sq)
    check = CHECKS[criterion](profile.source, rescale(profile.target, rho))
    details.update(check.details)
    if not check.ok or not sup * rho_sq < 1.0:
        # the open interval can be too thin for the witness at fp resolution
        return DilationResult(None, interval, "hypotheses not met", criterion, details)
    verdict = f"homotopically trivial by the {criterion} criterion"
    return DilationResult(rho, interval, verdict, criterion, details)


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
    from .geometry import parse_model

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
