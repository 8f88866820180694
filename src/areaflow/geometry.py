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

_KINDS = ("sphere", "cp", "hp", "torus")


@dataclass(frozen=True)
class CurvatureModel:
    kind: str
    dim_param: int          # sphere/torus: dimension, cp: complex dim, hp: quaternionic dim
    radius: float = 1.0     # spheres only
    scale: float = 1.0      # metric multiplier rho (metric is scale^2 * g)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.dim_param < 1:
            raise ValueError("dimension parameter must be >= 1")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    @property
    def dim(self) -> int:
        """Real dimension."""
        if self.kind == "cp":
            return 2 * self.dim_param
        if self.kind == "hp":
            return 4 * self.dim_param
        return self.dim_param


def sphere(dim, radius=1.0, scale=1.0) -> CurvatureModel:
    return CurvatureModel("sphere", dim, radius=float(radius), scale=float(scale))


def cp(complex_dim, scale=1.0) -> CurvatureModel:
    return CurvatureModel("cp", complex_dim, scale=float(scale))


def hp(quat_dim, scale=1.0) -> CurvatureModel:
    return CurvatureModel("hp", quat_dim, scale=float(scale))


def flat_torus(dim, scale=1.0) -> CurvatureModel:
    return CurvatureModel("torus", dim, scale=float(scale))


def sectional_curvature(model: CurvatureModel, plane=None) -> float:
    """Sectional curvature of the plane described by its complex-structure
    invariants.

    For CP the plane descriptor is the single invariant <JX, Y> in [-1, 1]
    and the curvature is 1 + 3 <JX,Y>^2; for HP it is the triple <J_u X, Y>
    with sum of squares <= 1 and curvature 1 + 3 * sum.  Spheres and tori
    have no complex structure and take no descriptor.  All outputs are
    divided by scale^2.
    """
    s2 = model.scale**2
    if model.kind in ("sphere", "torus") and plane is not None:
        raise ValueError(f"a {model.kind} takes no plane descriptor: every plane "
                         "has the same curvature")
    if model.kind == "sphere":
        return 1.0 / model.radius**2 / s2
    if model.kind == "torus":
        return 0.0
    if model.kind == "cp":
        if not (plane is None or isinstance(plane, numbers.Real)):
            raise ValueError("CP plane descriptor needs one invariant")
        c = 0.0 if plane is None else float(plane)
        if not -1.0 <= c <= 1.0:
            raise ValueError("CP plane invariant must lie in [-1, 1]")
        return (1.0 + 3.0 * c * c) / s2
    if isinstance(plane, numbers.Real):
        plane = (plane,)
    invs = (0.0, 0.0, 0.0) if plane is None else tuple(float(v) for v in plane)
    if len(invs) != 3:
        raise ValueError("HP plane descriptor needs three invariants")
    if any(not -1.0 <= v <= 1.0 for v in invs):
        raise ValueError("HP plane invariants must lie in [-1, 1]")
    ss = sum(v * v for v in invs)
    if ss > 1.0 + 1e-15:
        raise ValueError("HP plane invariants must have sum of squares <= 1")
    return (1.0 + 3.0 * ss) / s2


def ricci_constant(model: CurvatureModel) -> float:
    """Einstein constant of the scaled metric.

    Sphere: (d-1)/r^2, CP^l: 2(l+1), HP^q: 4(q+2), torus: 0; each divided
    by scale^2.
    """
    s2 = model.scale**2
    if model.kind == "sphere":
        return (model.dim_param - 1) / model.radius**2 / s2
    if model.kind == "torus":
        return 0.0
    if model.kind == "cp":
        return 2.0 * (model.dim_param + 1) / s2
    return 4.0 * (model.dim_param + 2) / s2


def rescale(model: CurvatureModel, rho: float) -> CurvatureModel:
    """Multiply the metric by rho^2; curvature outputs divide by rho^2."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    return replace(model, scale=model.scale * float(rho))


def curvature_bounds(model: CurvatureModel):
    """Tight (sec_min, sec_max, ricci) over all planes of the model.

    CP^1 and HP^1 are the half-radius spheres S^2(1/2), S^4(1/2) in disguise
    (every plane attains the holomorphic value 4); higher projective spaces
    range over [1, 4].
    """
    s2 = model.scale**2
    if model.kind == "sphere":
        k = 1.0 / model.radius**2 / s2
        return (k, k, ricci_constant(model))
    if model.kind == "torus":
        return (0.0, 0.0, 0.0)
    if model.dim_param == 1:
        return (4.0 / s2, 4.0 / s2, ricci_constant(model))
    return (1.0 / s2, 4.0 / s2, ricci_constant(model))


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
    base = {
        "sphere": f"sphere({model.dim_param}, {model.radius:g})",
        "cp": f"cp({model.dim_param})",
        "hp": f"hp({model.dim_param})",
        "torus": f"torus({model.dim_param})",
    }[model.kind]
    if not math.isclose(model.scale, 1.0):
        base += f" scaled {model.scale:.17g}"
    return base
