import math
import re
import warnings
from fractions import Fraction

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
    ok = cr.check_criterion("sectional", geo.sphere(3), geo.sphere(2, radius=1.0))
    assert ok.ok  # sec2 = 1 < 3
    boundary = cr.check_criterion("sectional", geo.sphere(2), geo.sphere(2))
    assert not boundary.ok  # bound is 1; sec2 = 1 fails strictness
    assert "failed" in boundary.details
    flat = cr.check_criterion("sectional", geo.flat_torus(3), geo.sphere(2, radius=0.4))
    assert not flat.ok  # source curvature 0 < 1
    big_r = cr.check_criterion("sectional", geo.sphere(4), geo.sphere(2, radius=0.2))
    assert not big_r.ok  # sec2 = 25 > 5


def test_rows_with_a_zero_side_compare_exactly():
    # sec1 >= 1 is decided exactly, on the printed source curvature
    below = geo.sphere(3, radius=1 + 1e-13)
    assert geo.curvature_bounds(below)[0] < 1.0
    check = cr.check_criterion("sectional", below, geo.sphere(2))
    assert check.details["failed"] == "source sectional curvature must be >= 1"
    assert cr._rho_sq_range(cr._hypotheses("sectional", below, geo.sphere(2))[1])[0] is None
    # nor has a flat source's Einstein constant 0 against a target's 1e-14
    flat, far = geo.flat_torus(3), geo.sphere(2, scale=1e7)
    check = cr.check_criterion("ricci", flat, far)
    assert check.details["failed"] == "source Einstein constant must dominate the target's"
    profile = cr.MapProfile("far", flat, far, (cr.spectrum([0.5, 0.5, 0.0], m=2),))
    assert cr.dilation_trick(profile, "ricci").details["curvature_rho_sq"] is None


def test_sharp_einstein_row_holds_with_no_slack():
    # Ric(S^9) = Ric(S^3 scaled 0.5) = 8.0 exactly: the non-strict row holds
    # at its end, and its rho^2 range starts at exactly 1
    source, sharp = geo.sphere(9), geo.sphere(3, scale=0.5)
    check = cr.check_criterion("ricci", source, sharp)
    assert check.ok and check.details["source_ricci"] == check.details["target_ricci"] == 8.0
    assert cr._rho_sq_range(cr._hypotheses("ricci", source, sharp)[1])[0][0] == 1
    # a target Einstein constant one ulp above 8.0 fails
    above = geo.sphere(3, scale=math.nextafter(0.5, 0.0))
    check = cr.check_criterion("ricci", source, above)
    assert check.details["target_ricci"] == math.nextafter(8.0, math.inf)
    assert check.details["failed"] == "source Einstein constant must dominate the target's"
    assert cr._rho_sq_range(cr._hypotheses("ricci", source, above)[1])[0][0] > 1
    # Ric(S^3, scale 1e5) = 2e-10 against a target 2e-5 relative above it
    source = geo.sphere(3, scale=1e5)
    above = geo.sphere(2, scale=1e5 / math.sqrt(2) * (1 - 1e-5))
    assert not cr.check_criterion("ricci", source, above).ok


def test_ricci_criterion_examples():
    # CP^n -> CP^m at unit scale: 2(n+1) >= 2(m+1), sec sums >= 2 > 0
    assert cr.check_criterion("ricci", geo.cp(3), geo.cp(2)).ok
    assert cr.check_criterion("ricci", geo.cp(2), geo.cp(2)).ok
    tori = cr.check_criterion("ricci", geo.flat_torus(3), geo.flat_torus(2))
    assert not tori.ok  # sec1 + sec2 = 0 is not > 0
    # m = 1: CP^1 carries the curvature data of S^2(1/2) it is isometric to
    route = cr.check_criterion("ricci", geo.cp(3), geo.cp(1))
    half = cr.check_criterion("ricci", geo.cp(3), geo.sphere(2, radius=0.5))
    assert route.ok and half.ok
    for key in ("target_ricci", "target_sec_min"):
        assert route.details[key] == half.details[key] == 4.0


def test_ricci_criterion_sphere_to_cp_scalings():
    # the Einstein comparison forces rho^2 >= (n+1)/n for S^{2n+1} -> CP^n;
    # at the sqrt-rounded scale the verdict is the printed comparison against
    # the source's 2n: n = 1 and n = 4 hold (1.9999999999999996,
    # 7.999999999999998) and n = 2 fails (4.000000000000001)
    for n in (1, 2, 4):
        source = geo.sphere(2 * n + 1)
        forced = cr.check_criterion("ricci", source,
                                    geo.rescale(geo.cp(n), math.sqrt((n + 1) / n)))
        details = forced.details
        assert forced.ok == (details["source_ricci"] >= details["target_ricci"]) == (n != 2)
        slightly_less = math.sqrt((2 * n + 1) / (2 * n))
        assert not cr.check_criterion("ricci", source,
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
    assert cr.check_criterion("sectional", profile.source, rescaled).ok
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


def test_an_overflowing_sup_two_dilation_is_refused_without_a_warning():
    spec = cr.spectrum([1e200, 1e200, 0.0], m=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="2-dilation"):
            cr.MapProfile("overflow", geo.sphere(3), geo.sphere(2), (spec,))


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
    assert 0 < exceptions < 300  # 33 of the 300 boundary twins at seed 3


# a row a rho^2 - b > 0 (or >= 0) with a, b zero or of magnitude in
# [1e-2, 1e3], held exactly as Fractions: every end lies within the probed
# decades, and exact arithmetic decides each probe, the ends included
_COEFF = st.one_of(st.just(0.0), st.floats(1e-2, 1e3), st.floats(-1e3, -1e-2))


@given(st.lists(st.tuples(_COEFF, _COEFF, st.booleans()), min_size=1, max_size=4),
       st.floats(-6.0, 6.0))
def test_rho_sq_range_is_where_every_row_holds(rows, log_x):
    rows = [(Fraction(a), Fraction(b), strict, f"row {i}")
            for i, (a, b, strict) in enumerate(rows)]
    found, why = cr._rho_sq_range(rows)
    ends = [b / a for a, b, _, _ in rows if a]
    probes = [Fraction(10.0 ** log_x), *(end * (1 + side * Fraction(1, 10**9))
                                         for end in ends if end > 0 for side in (-1, 1))]
    for x in probes:
        if x not in ends:  # an end is probed row by row below
            inside = found is not None and found[0] < x < found[1]
            assert all(cr._holds(row, x) for row in rows) == inside
    # at its own end a non-strict row holds and a strict row does not
    for row in rows:
        a, b, strict, _ = row
        if a:
            assert cr._holds(row, b / a) != strict
    if found is None:
        # the row no rescaling meets, or the two rows whose ends cross
        named = re.findall(r'"(row \d)"', why)
        assert len(named) == (1 if why.startswith("no rescaling") else 2)
    else:
        assert why is None


def test_rows_hold_exact_numbers():
    # every decision reads exact numbers: a float in a row would bring back
    # rounding into the comparisons
    named = [cr.named_spectrum(name, n=n) for name, n in NAMED]
    for profile in named + _random_profiles(3, 20):
        for theorem in ("sectional", "ricci"):
            _, rows = cr._hypotheses(theorem, profile.source, profile.target)
            for a, b, _, _ in rows:
                assert all(type(x) in (int, Fraction) for x in (a, b)), (theorem, a, b)


def test_check_on_the_rescaled_target_follows_the_rho_sq_range():
    named = [cr.named_spectrum(name, n=n) for name, n in NAMED]
    for profile in named + _random_profiles(3, 300):
        source, target = profile.source, profile.target
        for theorem in ("sectional", "ricci"):
            found, _ = cr._rho_sq_range(cr._hypotheses(theorem, source, target)[1])

            def holds(x):
                rescaled = geo.rescale(target, math.sqrt(x))
                return cr.check_criterion(theorem, source, rescaled).ok

            if found is None:
                assert not any(holds(x) for x in (0.01, 1.0, 100.0))
                continue
            lo, hi = found
            inside = (lo * (1 + 1e-9), 2 * lo or 1.0, hi * (1 - 1e-9))
            assert all(holds(x) for x in inside if 0 < x < hi)
            outside = (lo * (1 - 1e-9), hi * (1 + 1e-9))
            assert not any(holds(x) for x in outside if 0 < x < math.inf)


def test_verdicts_print_the_profile_and_name_what_fails():
    named = [cr.named_spectrum(name, n=n) for name, n in NAMED]
    witnessed = 0
    for profile in named + _random_profiles(3, 300):
        own = {"source": geo.model_to_str(profile.source),
               "target": geo.model_to_str(profile.target)}
        for theorem in ("sectional", "ricci"):
            result = cr.dilation_trick(profile, theorem)
            details = result.details
            assert {key: details[key] for key in own} == own
            assert result.rho is not None or details["failed"]
            if result.interval_sq is not None:
                # a witness was checked: the numbers describe the printed models
                numbers, _ = cr._hypotheses(theorem, profile.source, profile.target)
                assert numbers.items() <= details.items()
                witnessed += 1
    assert witnessed > 0


def test_blocked_verdicts_name_a_row():
    # the thin twin: the witness rho^2 misses the area-decreasing row
    source = geo.parse_model("cp(3) scaled 1.0617181278349546")
    target = geo.parse_model("cp(2) scaled 1.1107590000066985")
    lam = [1.2080362778892992] * 2 + [0.0] * 4
    thin = cr.dilation_trick(cr.MapProfile("thin", source, target,
                                           (cr.spectrum(lam, m=4),)), "ricci")
    assert thin.rho is None and thin.interval_sq is not None
    assert thin.details["target"] == "cp(2) scaled 1.1107590000066985"
    assert thin.details["failed"].startswith("the rho^2 interval is too thin")
    assert thin.details["failed"].endswith('misses "the rescaled map must be area-decreasing"')
    # a flat source: no rescaling of the target meets one row
    flat = cr.MapProfile("flat", geo.flat_torus(3), geo.sphere(2),
                         (cr.spectrum([0.5, 0.5, 0.0], m=2),))
    for theorem, row in (("sectional", "source sectional curvature must be >= 1"),
                         ("ricci", "source Einstein constant must dominate the target's")):
        failed = cr.dilation_trick(flat, theorem).details["failed"]
        assert failed == f'the curvature side blocks: no rescaling of the target meets "{row}"'
    # two rows whose ends cross
    _, why = cr._rho_sq_range([(1.0, 2.0, True, "low"), (-1.0, -1.0, False, "high")])
    assert why == '"low" needs rho^2 >= 2 and "high" needs rho^2 <= 1'
