"""Closed-form curvature data for the homogeneous model spaces.

Supported models: round spheres S^d(r), complex projective spaces CP^l and
quaternionic projective spaces HP^q with their Fubini-Study metrics
(normalized so the sectional curvature ranges over [1, 4]), and flat tori.
Each model carries a metric multiplier `scale`; the metric is scale^2 * g, so
every curvature output is divided by scale^2 and singular values of maps into
the model are multiplied by scale.

No coordinate tensors are ever built: the models are Einstein and their
sectional ranges are known in closed form, which is all the criteria need.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, replace

# kind -> k, the number of complex structures J_u (quaternionic: three)
_STRUCTURES = {"sphere": 0, "torus": 0, "cp": 1, "hp": 3}


@dataclass(frozen=True)
class CurvatureModel:
    kind: str
    dim_param: int          # sphere/torus: dimension, cp: complex dim, hp: quaternionic dim
    radius: float = 1.0     # spheres only
    scale: float = 1.0      # metric multiplier rho (metric is scale^2 * g)

    def __post_init__(self):
        if self.kind not in _STRUCTURES:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.dim_param < 1:
            raise ValueError("dimension parameter must be >= 1")
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if self.kind != "sphere" and self.radius != 1.0:
            raise ValueError("only spheres take a radius argument")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")
        # r^2 and scale^2 must neither overflow nor round to 0, nor the
        # curvatures overflow, nor those of a curved model round to 0
        try:
            sec_min, sec_max, ricci = curvature_bounds(self)
        except (OverflowError, ZeroDivisionError):
            sec_min = sec_max = ricci = math.inf
        if not (math.isfinite(sec_max) and math.isfinite(ricci)
                and (sec_min > 0 or self.kind == "torus")):
            raise ValueError(f"the curvature of {model_to_str(self)} is out of "
                             "floating-point range")

    @property
    def structures(self) -> int:
        """k, the number of complex structures: 0 for a sphere or torus, 1 for
        CP, 3 for HP."""
        return _STRUCTURES[self.kind]

    @property
    def kappa(self) -> float:
        """Unscaled curvature of a plane whose complex-structure invariants
        all vanish: 1/r^2 for a sphere, 0 for a torus, 1 for CP and HP."""
        return 0.0 if self.kind == "torus" else 1.0 / self.radius**2

    @property
    def dim(self) -> int:
        """Real dimension."""
        return (self.structures + 1) * self.dim_param


def sphere(dim, radius=1.0, scale=1.0) -> CurvatureModel:
    return CurvatureModel("sphere", dim, radius=float(radius), scale=float(scale))


def cp(complex_dim, scale=1.0) -> CurvatureModel:
    return CurvatureModel("cp", complex_dim, scale=float(scale))


def hp(quat_dim, scale=1.0) -> CurvatureModel:
    return CurvatureModel("hp", quat_dim, scale=float(scale))


def flat_torus(dim, scale=1.0) -> CurvatureModel:
    return CurvatureModel("torus", dim, scale=float(scale))


def _invariant_range(model: CurvatureModel):
    """Range of |v|^2 = sum_u <J_u X, Y>^2 over orthonormal X, Y.

    The J_u X span a k-plane inside the complement of X, so |v|^2 lies in
    [0, 1], and is 0 without complex structures.  When that complement is
    the k-plane itself (dim = k + 1: CP^1, HP^1) every plane has |v|^2 = 1.
    """
    k = model.structures
    hi = min(k, 1)
    return (hi if model.dim == k + 1 else 0), hi


def _sec(model: CurvatureModel, norm_sq) -> float:
    return (model.kappa + 3.0 * norm_sq) / model.scale**2


def sectional_curvature(model: CurvatureModel, plane=None) -> float:
    """Sectional curvature (kappa + 3 |v|^2) / scale^2 of the plane with
    complex-structure invariants v = (<J_u X, Y>)_u.

    The descriptor holds k numbers (a single number is allowed for k = 1)
    with sum of squares in the range of `_invariant_range`; spheres and tori
    take none.  Without a descriptor the plane is one of least curvature.
    """
    lo, hi = _invariant_range(model)
    if plane is None:
        return _sec(model, lo)
    k = model.structures
    if not k:
        raise ValueError(f"a {model.kind} takes no plane descriptor: every plane "
                         "has the same curvature")
    invs = (plane,) if isinstance(plane, numbers.Real) else tuple(plane)
    if len(invs) != k:
        raise ValueError(f"a {model.kind} plane descriptor needs {k} invariant(s)")
    norm_sq = sum(float(v) * float(v) for v in invs)
    if not lo - 1e-15 <= norm_sq <= hi + 1e-15:
        raise ValueError(f"the plane invariants of {model_to_str(model)} must have "
                         f"sum of squares in [{lo}, {hi}]")
    return _sec(model, min(max(norm_sq, lo), hi))


def ricci_constant(model: CurvatureModel) -> float:
    """Einstein constant ((dim - 1) kappa + 3k) / scale^2: the sectional
    curvatures summed over an orthonormal frame, in which each J_u X
    contributes |v|^2 = 1 and the rest 0.
    """
    return ((model.dim - 1) * model.kappa + 3.0 * model.structures) / model.scale**2


def rescale(model: CurvatureModel, rho: float) -> CurvatureModel:
    """Multiply the metric by rho^2; curvature outputs divide by rho^2."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    return replace(model, scale=model.scale * float(rho))


def curvature_bounds(model: CurvatureModel):
    """Tight (sec_min, sec_max, ricci) over all planes of the model."""
    lo, hi = _invariant_range(model)
    return (_sec(model, lo), _sec(model, hi), ricci_constant(model))


_MODEL_RE = re.compile(
    r"^\s*(s|sphere|cp|hp|torus)\s*\(\s*(\d+)\s*(?:,\s*([0-9.eE+-]+)\s*)?\)"
    r"(?:\s+scaled\s+([0-9.eE+-]+))?\s*$",
    re.IGNORECASE,
)


def parse_model(text: str) -> CurvatureModel:
    """Parse the plain-text model grammar, e.g. ``cp(3) scaled 1.0408``.

    Grammar:  kind(param[, radius]) ["scaled" rho]  with kind one of
    s/sphere, cp, hp, torus; the radius argument is sphere-only.
    """
    match = _MODEL_RE.match(text) if isinstance(text, str) else None
    if not match:
        raise ValueError(f"cannot parse model descriptor {text!r}")
    kind, param, radius, scale = match.groups()
    kind = kind.lower()
    if kind == "s":
        kind = "sphere"
    if radius is not None and kind != "sphere":
        raise ValueError("only spheres take a radius argument")
    return CurvatureModel(
        kind,
        int(param),
        radius=float(radius) if radius is not None else 1.0,
        scale=float(scale) if scale is not None else 1.0,
    )


def model_to_str(model: CurvatureModel) -> str:
    """The descriptor `parse_model` reads back as this very model: numbers
    are written with 17 significant digits, and a scale of exactly 1 is
    left out."""
    radius = f", {model.radius:.17g}" if model.kind == "sphere" else ""
    scaled = f" scaled {model.scale:.17g}" if model.scale != 1.0 else ""
    return f"{model.kind}({model.dim_param}{radius}){scaled}"
