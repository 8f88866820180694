import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from areaflow import geometry as geo
from areaflow import svcore


def test_unit_sphere_sectional():
    assert geo.sectional_curvature(geo.sphere(2)) == 1.0
    assert math.isclose(geo.sectional_curvature(geo.sphere(5, radius=0.5)), 4.0)


@pytest.mark.parametrize("plane", [0.0, (5.0, 1.0, 1.0)])
def test_sphere_and_torus_refuse_a_plane(plane):
    for model in (geo.sphere(2), geo.flat_torus(2)):
        with pytest.raises(ValueError, match="no plane descriptor"):
            geo.sectional_curvature(model, plane)


def test_cp_sectional_range():
    model = geo.cp(2)
    assert math.isclose(geo.sectional_curvature(model, 1.0), 4.0)
    assert math.isclose(geo.sectional_curvature(model, 0.0), 1.0)
    assert math.isclose(geo.sectional_curvature(model, -0.5), 1.75)
    with pytest.raises(ValueError):
        geo.sectional_curvature(model, 1.5)


def test_hp_sectional():
    model = geo.hp(2)
    assert math.isclose(geo.sectional_curvature(model, (1.0, 0.0, 0.0)), 4.0)
    assert math.isclose(geo.sectional_curvature(model, (0.5, 0.5, 0.5)), 3.25)
    with pytest.raises(ValueError):
        geo.sectional_curvature(model, (0.9, 0.9, 0.9))


def test_torus_flat():
    assert geo.sectional_curvature(geo.flat_torus(4)) == 0.0
    assert geo.ricci_constant(geo.flat_torus(4)) == 0.0
    assert geo.curvature_bounds(geo.flat_torus(3)) == (0.0, 0.0, 0.0)


def test_ricci_constants():
    for n in range(1, 6):
        assert math.isclose(geo.ricci_constant(geo.cp(n)), 2 * (n + 1))
        assert math.isclose(geo.ricci_constant(geo.hp(n)), 4 * (n + 2))
    assert math.isclose(geo.ricci_constant(geo.sphere(7)), 6.0)


def test_cp1_is_half_radius_two_sphere():
    assert math.isclose(geo.ricci_constant(geo.cp(1)), 4.0)
    assert math.isclose(geo.ricci_constant(geo.cp(1)),
                        geo.ricci_constant(geo.sphere(2, radius=0.5)))
    assert geo.curvature_bounds(geo.cp(1))[:2] == geo.curvature_bounds(
        geo.sphere(2, radius=0.5))[:2]


def test_rescale_divides_curvature():
    model = geo.rescale(geo.sphere(4), 2.0)
    assert math.isclose(geo.sectional_curvature(model), 0.25)
    same = geo.rescale(geo.cp(3), 1.0)
    assert math.isclose(geo.sectional_curvature(same, 0.3),
                        geo.sectional_curvature(geo.cp(3), 0.3))
    with pytest.raises(ValueError):
        geo.rescale(model, -1.0)


@given(st.floats(0.1, 5.0), st.floats(0.1, 5.0))
def test_rescale_composes_multiplicatively(a, b):
    base = geo.cp(2)
    two_step = geo.rescale(geo.rescale(base, a), b)
    one_step = geo.rescale(base, a * b)
    for plane in (0.0, 0.7, 1.0):
        assert math.isclose(geo.sectional_curvature(two_step, plane),
                            geo.sectional_curvature(one_step, plane),
                            rel_tol=1e-12)
    assert math.isclose(geo.ricci_constant(two_step),
                        geo.ricci_constant(one_step), rel_tol=1e-12)


def test_curvature_bounds():
    lo, hi, ric = geo.curvature_bounds(geo.cp(3))
    assert (lo, hi) == (1.0, 4.0) and math.isclose(ric, 8.0)
    lo, hi, _ = geo.curvature_bounds(geo.hp(2))
    assert (lo, hi) == (1.0, 4.0)
    lo, hi, _ = geo.curvature_bounds(geo.sphere(3, radius=2.0))
    assert math.isclose(lo, 0.25) and math.isclose(hi, 0.25)


def test_ricci_equals_dim_minus_one_times_sec():
    for model in (geo.sphere(2), geo.sphere(5, 0.7), geo.flat_torus(3)):
        sec = geo.sectional_curvature(model)
        assert math.isclose(geo.ricci_constant(model), (model.dim - 1) * sec,
                            abs_tol=1e-15)


@given(st.floats(0.2, 4.0), st.floats(0.0, 1.0), st.floats(0.0, 1.2),
       st.floats(0.0, 1.2))
def test_pair_product_times_curvature_is_scale_invariant(rho, plane, l1, l2):
    model = geo.cp(2)
    spec = svcore.spectrum(sorted([l1, l2], reverse=True), m=model.dim)
    scaled_model = geo.rescale(model, rho)
    scaled_spec = svcore.spectrum(spec.lam * rho, m=spec.m)
    base = spec.lam[0] * spec.lam[1] * geo.sectional_curvature(model, plane)
    scaled = scaled_spec.lam[0] * scaled_spec.lam[1] \
        * geo.sectional_curvature(scaled_model, plane)
    assert math.isclose(base, scaled, rel_tol=1e-12, abs_tol=1e-15)


def test_parse_model():
    m = geo.parse_model("cp(3) scaled 1.0408")
    assert m.kind == "cp" and m.dim_param == 3 and math.isclose(m.scale, 1.0408)
    m = geo.parse_model(" s( 2 , 0.5 ) ")
    assert m.kind == "sphere" and m.radius == 0.5
    assert geo.parse_model("torus(4)").dim == 4
    assert geo.parse_model("hp(2)").dim == 8
    assert geo.parse_model("SPHERE(3)").dim == 3
    for bad in ("cp(3, 2)", "cp()", "blob(2)", "cp(3) scaled -1", "sphere(0)"):
        with pytest.raises(ValueError):
            geo.parse_model(bad)


def test_model_round_trip_through_str():
    for m in (geo.sphere(3, 0.5), geo.cp(2, scale=1.25), geo.hp(1), geo.flat_torus(2),
              geo.cp(2, scale=1 + 1e-10), geo.sphere(3, 1 + 1e-12)):
        again = geo.parse_model(geo.model_to_str(m))
        assert again == m
    assert geo.model_to_str(geo.sphere(5)) == "sphere(5, 1)"
    assert geo.model_to_str(geo.cp(2, scale=1 + 1e-10)) == "cp(2) scaled 1.0000000001"


@given(st.sampled_from(["sphere", "cp", "hp", "torus"]), st.integers(1, 9),
       st.floats(1e-6, 1e6) | st.just(1 + 1e-10), st.floats(1e-6, 1e6) | st.just(1 + 1e-10))
def test_any_model_round_trips_through_str(kind, dim, radius, scale):
    model = geo.CurvatureModel(kind, dim, radius=radius if kind == "sphere" else 1.0,
                               scale=scale)
    assert geo.parse_model(geo.model_to_str(model)) == model


@pytest.mark.parametrize("text", ["sphere(2) scaled 1e999", "s(2, 1e999)", "cp(2) scaled 0"])
def test_parse_model_refuses_a_scale_or_radius_that_is_not_finite_and_positive(text):
    with pytest.raises(ValueError):
        geo.parse_model(text)


@pytest.mark.parametrize("kind, radius, scale", [
    ("sphere", 1e-200, 1.0), ("sphere", 1e200, 1.0),    # r^2 rounds to 0, overflows
    ("cp", 1.0, 1e-200), ("cp", 1.0, 1e200),            # scale^2 likewise
    ("sphere", 1.0, 1e-160),                            # 1 / scale^2 overflows
    ("sphere", 1e150, 1e150),                           # a round sphere's curvature rounds to 0
    ("torus", 1.0, 1e-200),                             # 0 / 0
])
def test_a_model_whose_curvature_leaves_the_float_range_is_refused(kind, radius, scale):
    with pytest.raises(ValueError, match="floating-point range"):
        geo.CurvatureModel(kind, 2, radius=radius, scale=scale)


def test_rescale_refuses_a_model_whose_curvature_leaves_the_float_range():
    # rescale builds through the same constructor
    for model, rho in ((geo.sphere(2), 1e-200), (geo.cp(1), 1e200), (geo.sphere(2, 1e150), 1e150)):
        with pytest.raises(ValueError, match="floating-point range"):
            geo.rescale(model, rho)


def test_only_spheres_carry_a_radius():
    # model_to_str writes no radius for cp, hp or torus, so none may be stored
    with pytest.raises(ValueError, match="only spheres"):
        geo.CurvatureModel("cp", 2, radius=2.0)


# kind -> (kappa for radius r, number k of complex structures), from the
# Fubini-Study curvature sec = 1 + 3 sum_u <J_u X, Y>^2 (Kobayashi-Nomizu II, IX)
DESCRIPTION = {"sphere": (lambda r: 1 / r**2, 0), "torus": (lambda r: 0.0, 0),
               "cp": (lambda r: 1.0, 1), "hp": (lambda r: 1.0, 3)}
MODELS = [geo.sphere(1), geo.sphere(2), geo.sphere(5, 0.7), geo.sphere(3, scale=1.3),
          geo.flat_torus(1), geo.flat_torus(3, scale=2.0), geo.cp(1), geo.cp(2),
          geo.cp(3, scale=1.0408), geo.cp(1, scale=0.6), geo.hp(1), geo.hp(2),
          geo.hp(1, scale=0.5), geo.hp(3, scale=1.7)]


@pytest.mark.parametrize("model", MODELS, ids=geo.model_to_str)
def test_sectional_stays_within_bounds_and_reaches_both_ends(model):
    kappa, k = DESCRIPTION[model.kind]
    s2 = model.scale**2
    sec_min, sec_max, ricci = geo.curvature_bounds(model)
    assert math.isclose(ricci, ((model.dim - 1) * kappa(model.radius) + 3 * k) / s2,
                        rel_tol=1e-15, abs_tol=0.0)
    assert geo.ricci_constant(model) == ricci
    assert geo.sectional_curvature(model) == sec_min
    if not k:
        assert sec_min == sec_max == kappa(model.radius) / s2
        return
    line = model.dim == k + 1  # CP^1, HP^1: every plane has |v|^2 = 1
    assert math.isclose(sec_min, (kappa(model.radius) + 3 * line) / s2, rel_tol=1e-15)
    assert math.isclose(sec_max, (kappa(model.radius) + 3) / s2, rel_tol=1e-15)
    unit = (1.0,) + (0.0,) * (k - 1)
    assert geo.sectional_curvature(model, unit) == sec_max
    if not line:
        assert geo.sectional_curvature(model, (0.0,) * k) == sec_min
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.normal(size=k)
        v *= (1.0 if line else rng.uniform(0, 1)) / np.linalg.norm(v)
        assert sec_min <= geo.sectional_curvature(model, tuple(v)) <= sec_max


@pytest.mark.parametrize("model, plane", [(geo.cp(1), 0.3), (geo.cp(1), 0.0),
                                          (geo.hp(1), (0.0, 0.0, 0.0)),
                                          (geo.hp(1), (0.5, 0.5, 0.5))])
def test_projective_lines_refuse_planes_they_do_not_have(model, plane):
    with pytest.raises(ValueError, match="sum of squares"):
        geo.sectional_curvature(model, plane)
