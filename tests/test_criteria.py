import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from areaflow import criteria as cr
from areaflow import geometry as geo


def test_sphere_pair_bound_table():
    assert cr.sphere_pair_bound(3, 2) == 3.0
    assert cr.sphere_pair_bound(7, 4) == 3.0
    assert cr.sphere_pair_bound(15, 8) == 3.0
    for n in range(2, 9):
        assert cr.sphere_pair_bound(n, 2) == 2 * n - 3
    with pytest.raises(ValueError):
        cr.sphere_pair_bound(2, 3)
    with pytest.raises(ValueError):
        cr.sphere_pair_bound(3, 1)


def test_cp_bound_values():
    assert math.isclose(cr.cp_bound(1), 2.0 / 3.0)
    assert math.isclose(cr.cp_bound(4), 8.0 / 9.0)
    for n in range(1, 200):
        assert cr.cp_bound(n) < 1.0 < cr.cp_bound(n) + 1.0 / n
        assert cr.cp_bound(n + 1) > cr.cp_bound(n)


def test_hp_bound_values():
    assert math.isclose(cr.hp_bound(1), 0.5)
    assert math.isclose(cr.hp_bound(2), 10.0 / 16.0)
    for n in range(1, 200):
        assert cr.hp_bound(n) < 1.0
        assert cr.hp_bound(n + 1) > cr.hp_bound(n)


def test_polynomial_degree_bound():
    assert math.isclose(cr.polynomial_degree_bound(3, 2), math.sqrt(3.0))
    for n in range(2, 8):
        assert math.isclose(cr.polynomial_degree_bound(n, 2), math.sqrt(2 * n - 3))
    # degree-1 maps are only obstructed when the bound exceeds one
    assert 1.0 < cr.polynomial_degree_bound(3, 2)
    assert 1.0 == cr.polynomial_degree_bound(2, 2)


def test_sectional_criterion_sphere_pairs():
    ok = cr.check_sectional_criterion(geo.sphere(3), geo.sphere(2, radius=1.0))
    assert ok.ok  # sec2 = 1 < 3
    boundary = cr.check_sectional_criterion(geo.sphere(2), geo.sphere(2))
    assert not boundary.ok  # bound is 1; sec2 = 1 fails strictness
    assert "failed" in boundary.details
    flat = cr.check_sectional_criterion(geo.flat_torus(3), geo.sphere(2, radius=0.4))
    assert not flat.ok  # source curvature 0 < 1
    big_r = cr.check_sectional_criterion(geo.sphere(4), geo.sphere(2, radius=0.2))
    assert not big_r.ok  # sec2 = 25 > 5


def test_ricci_criterion_examples():
    # CP^n -> CP^m at unit scale: 2(n+1) >= 2(m+1), sec sums >= 2 > 0
    assert cr.check_ricci_criterion(geo.cp(3), geo.cp(2)).ok
    assert cr.check_ricci_criterion(geo.cp(2), geo.cp(2)).ok
    tori = cr.check_ricci_criterion(geo.flat_torus(3), geo.flat_torus(2))
    assert not tori.ok  # sec1 + sec2 = 0 is not > 0
    # m = 1: CP^1 carries the curvature data of S^2(1/2) it is isometric to
    route = cr.check_ricci_criterion(geo.cp(3), geo.cp(1))
    half = cr.check_ricci_criterion(geo.cp(3), geo.sphere(2, radius=0.5))
    assert route.ok and half.ok
    for key in ("target_ricci", "target_sec_min"):
        assert route.details[key] == half.details[key] == 4.0


def test_ricci_criterion_sphere_to_cp_scalings():
    # the Einstein comparison forces rho^2 >= (n+1)/n for S^{2n+1} -> CP^n
    for n in (1, 2, 4):
        source = geo.sphere(2 * n + 1)
        forced = cr.check_ricci_criterion(source, geo.rescale(geo.cp(n),
                                                              math.sqrt((n + 1) / n)))
        assert forced.ok
        slightly_less = math.sqrt((2 * n + 1) / (2 * n))
        assert not cr.check_ricci_criterion(source,
                                            geo.rescale(geo.cp(n), slightly_less)).ok


def test_dilation_trick_sphere_boundary():
    bound = cr.sphere_pair_bound(3, 2)
    for eps, expect in ((-1e-6, True), (1e-6, False)):
        sup = bound + eps
        lam = [math.sqrt(sup), math.sqrt(sup), 0.0]
        profile = cr.MapProfile("probe", geo.sphere(3), geo.sphere(2),
                                (cr.spectrum(lam, m=2),))
        result = cr.dilation_trick(profile, "sectional")
        assert (result.rho is not None) == expect
        if expect:
            lo, hi = result.interval_sq
            assert lo <= result.rho**2 <= hi
            assert result.verdict.startswith("homotopically trivial")
        else:
            assert result.verdict == "hypotheses not met"


def test_dilation_trick_hopf_s3_s2_infeasible():
    profile = cr.named_spectrum("hopf_s3_s2")
    assert profile.sup_two_dilation == 4.0
    result = cr.dilation_trick(profile, "13")
    assert result.rho is None


def test_dilation_trick_validates_witness():
    # feasible sphere-pair case: the returned rho actually passes the check
    profile = cr.MapProfile("small", geo.sphere(4), geo.sphere(3),
                            (cr.spectrum([1.1, 0.9, 0.4, 0.0], m=3),))
    result = cr.dilation_trick(profile, "sectional")
    assert result.rho is not None
    rescaled = geo.rescale(profile.target, result.rho)
    assert cr.check_sectional_criterion(profile.source, rescaled).ok
    assert profile.sup_two_dilation * result.rho**2 < 1.0


def test_dilation_trick_cp_interval():
    # S^{2n+1} -> CP^n: the Einstein comparison pins the feasible interval
    # to [ (n+1)/n, 1/sup ), so feasibility needs sup < n/(n+1)
    n = 2
    sup = (n / (n + 1)) * 0.9
    lam = [math.sqrt(sup)] * 2 + [0.0] * 3
    profile = cr.MapProfile("cp_probe", geo.sphere(2 * n + 1), geo.cp(n),
                            (cr.spectrum(sorted(lam, reverse=True), m=4),))
    result = cr.dilation_trick(profile, "ricci")
    assert result.rho is not None
    lo, hi = result.interval_sq
    assert math.isclose(lo, (n + 1) / n, rel_tol=1e-12)
    assert math.isclose(hi, 1.0 / sup, rel_tol=1e-12)
    # just above the effective bound the interval closes
    sup2 = (n / (n + 1)) * 1.001
    lam2 = [math.sqrt(sup2)] * 2 + [0.0] * 3
    profile2 = cr.MapProfile("cp_probe2", geo.sphere(2 * n + 1), geo.cp(n),
                             (cr.spectrum(sorted(lam2, reverse=True), m=4),))
    assert cr.dilation_trick(profile2, "ricci").rho is None


def test_named_spectra_catalog():
    hopf = cr.named_spectrum("hopf_s3_s2")
    assert np.allclose(hopf.spectra[0].lam, [2.0, 2.0, 0.0])
    s7 = cr.named_spectrum("hopf_s7_s4")
    assert np.allclose(s7.spectra[0].lam, [2.0] * 4 + [0.0] * 3)
    s15 = cr.named_spectrum("hopf_s15_s8")
    assert np.allclose(s15.spectra[0].lam, [2.0] * 8 + [0.0] * 7)
    for n in (1, 3):
        prof = cr.named_spectrum("hopf_s2n1_cpn", n=n)
        assert np.allclose(prof.spectra[0].lam, [1.0] * (2 * n) + [0.0])
        assert prof.sup_two_dilation == 1.0
    ident = cr.named_spectrum("identity", n=4)
    assert ident.sup_two_dilation == 1.0
    with pytest.raises(ValueError):
        cr.named_spectrum("nope")


@given(st.floats(0.3, 3.0))
def test_pair_product_curvature_invariant_under_dilation(rho):
    profile = cr.named_spectrum("hopf_s3_s2")
    spec = profile.spectra[0]
    import areaflow.svcore as sv
    scaled_spec = sv.spectrum(spec.lam * rho, m=spec.m)
    scaled_target = geo.rescale(profile.target, rho)
    base = sv.two_dilation(spec) * geo.sectional_curvature(profile.target)
    scaled = sv.two_dilation(scaled_spec) * geo.sectional_curvature(scaled_target)
    assert math.isclose(base, scaled, rel_tol=1e-12)


def test_profile_from_json():
    data = {"name": "probe", "source": "sphere(3)", "target": "sphere(2)",
            "spectra": [[0.5, 0.4, 0.0], [0.9, 0.2, 0.0]]}
    profile = cr.profile_from_json(data)
    assert profile.sup_two_dilation == 0.5 * 0.4
    flat = {"source": "sphere(3)", "target": "sphere(2)", "spectra": [0.5, 0.4, 0.0]}
    assert cr.profile_from_json(flat).sup_two_dilation == 0.2


NAMED = [("hopf_s3_s2", None), ("hopf_s7_s4", None), ("hopf_s15_s8", None),
         *(("hopf_s2n1_cpn", n) for n in (1, 2, 3, 4)), *(("identity", n) for n in (2, 3, 4, 5))]


def _random_model(rng, max_dim):
    """A sphere, CP or HP model of real dimension in [2, max_dim]."""
    steps = {"sphere": 1, "cp": 2, "hp": 4}  # real dimension per unit of dim_param
    kind = rng.choice([kind for kind, step in steps.items() if max(2, step) <= max_dim])
    step = steps[kind]
    param = int(rng.integers(max(1, 2 // step), max_dim // step + 1))
    radius = float(rng.uniform(0.5, 1.5)) if kind == "sphere" else 1.0
    return geo.CurvatureModel(str(kind), param, radius=radius,
                              scale=float(rng.uniform(0.7, 1.4)))


def _random_profiles(seed, count):
    """Seeded sphere/CP/HP profiles; each comes with a twin whose sup sits on
    the certified bound of the ricci criterion, where rounding decides."""
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(count):
        source = _random_model(rng, 12)
        target = _random_model(rng, source.dim)
        rows = rng.uniform(0.0, 1.5, size=(int(rng.integers(1, 4)), source.dim))
        rows[:, target.dim:] = 0.0
        spectra = tuple(cr.spectrum(row, m=target.dim) for row in rows)
        profile = cr.MapProfile("random", source, target, spectra)
        bound = cr.dilation_trick(profile, "ricci").details["certified_two_dilation_bound"]
        lam = [math.sqrt(bound)] * 2 + [0.0] * (source.dim - 2)
        twin = cr.MapProfile("boundary", source, target, (cr.spectrum(lam, m=target.dim),))
        profiles += [profile, twin]
    return profiles


def test_verdict_is_trivial_exactly_below_the_certified_bound():
    named = [cr.named_spectrum(name, n=n) for name, n in NAMED]
    exceptions = 0
    for profile in named + _random_profiles(3, 300):
        for theorem in ("sectional", "ricci"):
            result = cr.dilation_trick(profile, theorem)
            bound = result.details["certified_two_dilation_bound"]
            sup = profile.sup_two_dilation
            trivial = result.verdict.startswith("homotopically trivial")
            assert trivial == (result.rho is not None)
            if trivial == (bound is not None and sup < bound):
                continue
            # the one exception: sup lies below 1/lo by rounding only, the rho^2
            # interval is too thin for the witness, and dilation_trick refuses it
            assert profile.name == "boundary" and not trivial
            assert result.interval_sq is not None
            assert math.isclose(sup, bound, rel_tol=1e-12)
            exceptions += 1
    assert 0 < exceptions < 300  # 19 of the 300 boundary twins at seed 3
