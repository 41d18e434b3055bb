import math
import struct

import pytest
from hypothesis import given, strategies as st

from dmy import (ParameterError, PhiProfile, RadialMap, build_phi, phi_deriv, phi_eval,
                 phi_log_slope)
from dmy.phi import _phi_parts


@pytest.fixture(scope="module")
def prof():
    return build_phi(20.0, 2.0, 0.05)


def test_profile_constants(prof):
    # floor = 1/(2C), m_target = 8(1 - floor)/eps, tail at R e^(m_target + ramp)
    assert prof.floor == 0.25
    assert prof.m_target == 120.0
    assert prof.ramp == 1.0
    assert prof.r_tail == 20.0 * math.exp(121.0)
    assert prof.r_tail == 7.090262365522333e+53


def test_flat_inner_disc(prof):
    for r in (0.0, 1e-12, 10.0, 19.999, 20.0):
        assert phi_eval(prof, r) == 1.0
        assert phi_log_slope(prof, r) == 0.0
        assert phi_deriv(prof, r) == 0.0


def test_floor_tail_is_exact(prof):
    for r in (prof.r_tail, 1e54, 1e60, 1e300):
        assert phi_eval(prof, r) == 0.25
        assert phi_log_slope(prof, r) == 0.0


def test_value_just_past_the_flat_edge(prof):
    # the quintic onset is so flat that 20.0001 still rounds to 1.0 in doubles;
    # a visible drop needs a finite step up the ramp
    assert phi_eval(prof, 20.0001) == 1.0
    v = phi_eval(prof, 21.0)
    assert 0.999999 < v < 1.0


def test_mid_decay_value(prof):
    # at u = ln(r/R) = 60 the ramp has been at full slope since u = 1, so
    # m(60) = 60 - integral deficit of the smoothstep ramp (exactly ramp/2)
    r = 20.0 * math.exp(60.0)
    expected = 1.0 - (0.05 / 8.0) * (60.0 - 0.5)
    assert phi_eval(prof, r) == pytest.approx(expected, rel=1e-12)
    assert -0.00625 <= phi_log_slope(prof, r) <= 0.0


def test_slope_budget_everywhere(prof):
    lo, hi = math.log(prof.R / 1000.0), math.log(prof.r_tail * 10.0)
    worst = 0.0
    for i in range(10_000):
        r = math.exp(((9999 - i) * lo + i * hi) / 9999.0)
        s = phi_log_slope(prof, r)
        assert s <= 0.0
        worst = max(worst, -s)
    assert worst <= 0.00625  # eps/8, no tolerance needed
    assert worst == 0.00625  # the plateau attains the budget exactly


def test_monotone_and_strict_radius_stretch(prof):
    lo, hi = math.log(prof.R / 1000.0), math.log(prof.r_tail * 10.0)
    prev_v = None
    prev_rv = None
    for i in range(5000):
        r = math.exp(((4999 - i) * lo + i * hi) / 4999.0)
        v = phi_eval(prof, r)
        assert 0.25 <= v <= 1.0
        if prev_v is not None:
            assert v <= prev_v
            assert r * v > prev_rv  # injectivity surrogate: phi(r) r strictly grows
        prev_v, prev_rv = v, r * v


def test_deriv_matches_central_differences_in_log_r(prof):
    # oracle: d(phi)/dr at r equals d(phi)/du / r with u = ln(r/R)
    for u in (0.5, 1.5, 30.0, 119.0, 120.3, 120.9):
        r = prof.R * math.exp(u)
        h = 1e-6
        fd_du = (phi_eval(prof, prof.R * math.exp(u + h))
                 - phi_eval(prof, prof.R * math.exp(u - h))) / (2.0 * h)
        assert phi_deriv(prof, r) * r == pytest.approx(fd_du, rel=1e-6, abs=1e-12)
        assert phi_log_slope(prof, r) == pytest.approx(fd_du, rel=1e-6, abs=1e-12)


def test_deriv_is_log_slope_over_r(prof):
    r = 20.0 * math.exp(3.0)
    assert phi_deriv(prof, r) == phi_log_slope(prof, r) / r


@given(st.floats(min_value=0.0, max_value=1e60, allow_nan=False),
       st.floats(min_value=0.0, max_value=1e60, allow_nan=False))
def test_monotone_property(r1, r2):
    prof = build_phi(20.0, 2.0, 0.05)
    lo, hi = sorted((r1, r2))
    assert phi_eval(prof, lo) >= phi_eval(prof, hi)


def test_eval_rejects_negative_radius(prof):
    with pytest.raises(ParameterError):
        phi_eval(prof, -1.0)
    with pytest.raises(ParameterError):
        phi_deriv(prof, -1e-300)
    with pytest.raises(ParameterError):
        phi_eval(prof, float("nan"))


def test_build_validation():
    with pytest.raises(ParameterError):
        build_phi(0.0, 2.0, 0.05)
    with pytest.raises(ParameterError):
        build_phi(20.0, 0.5, 0.05)  # floor would reach 1
    with pytest.raises(ParameterError):
        build_phi(20.0, 2.0, 1.0 / 16.0)  # eps must stay below 1/(8C)
    with pytest.raises(ParameterError):
        build_phi(20.0, 2.0, 0.0)
    with pytest.raises(ParameterError):
        build_phi(20.0, 2.0, 1e-300)  # tail radius overflows


def test_small_budget_shrinks_ramp():
    # when the total decay is under one log unit the ramp contracts to fit
    prof = build_phi(1.0, 0.51, 0.2)
    assert prof.ramp < 1.0
    assert prof.r_tail > prof.R
    assert phi_eval(prof, prof.r_tail) == prof.floor


def test_profile_fields_are_validated():
    with pytest.raises(ParameterError):
        PhiProfile(R=-1.0, C=2.0, eps=0.05)


def _ref_build(R, C, eps):
    """Reference for the derived constants: the closed forms, guarded against
    degenerate inputs, then the validation in its order.  The profile must
    match it bit for bit and error for error."""
    floor = 1.0 / (2.0 * C) if C > 0.0 else math.inf
    m_target = 8.0 * (1.0 - floor) / eps if eps > 0.0 else math.inf
    ramp = min(1.0, m_target)
    try:
        r_tail = R * math.exp(m_target + 1.0)
    except OverflowError:
        r_tail = math.inf
    if not (math.isfinite(R) and R > 0.0):
        raise ParameterError(f"flat radius must be positive and finite, got {R!r}")
    if not (math.isfinite(C) and C > 0.5):
        raise ParameterError(
            f"norm bound must exceed 1/2 so the floor 1/(2C) stays below 1, got {C!r}")
    if not (0.0 < eps < 1.0 / (8.0 * C)):
        raise ParameterError(
            f"slope budget must lie in (0, 1/(8C)) = (0, {1.0 / (8.0 * C)!r}), got {eps!r}")
    if not math.isfinite(r_tail):
        raise ParameterError(
            f"tail radius R * exp(m_target + 1) overflows a double at R {R!r}, "
            f"slope budget {eps!r} (m_target {m_target!r}); "
            f"pick a smaller R or a larger slope budget")
    return floor, m_target, r_tail, ramp


def test_derived_fields_match_the_reference_bit_for_bit():
    cases = [(R, C, eps)
             for R in (1e-300, 1.0, 19.99999999999999, 20.0, 1e200)
             for C in (0.51, 0.6, 1.5907629949682967, 2.0, 37.0)
             for eps in (1e-3, 0.01, 0.05, 0.2, 0.24)
             if eps < 1.0 / (8.0 * C)]
    cases.append((20.0, 0.50000001, 0.2499999))  # m_target near 0
    ramps = []
    for R, C, eps in cases:
        try:
            want = _ref_build(R, C, eps)
        except ParameterError:
            continue  # an overflowing tail; the errors are compared below
        prof = PhiProfile(R, C, eps)
        got = (prof.floor, prof.m_target, prof.r_tail, prof.ramp)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert build_phi(R, C, eps) == prof
        ramps.append(prof.ramp)
    assert len(ramps) > 50
    assert min(ramps) < 1.0 == max(ramps)


@pytest.mark.parametrize("R, C, eps", [
    (math.nan, 2.0, 0.05), (20.0, math.nan, 0.05), (20.0, 2.0, math.nan),
    (0.0, 2.0, 0.05), (-1.0, 2.0, 0.05), (-math.inf, 2.0, 0.05), (math.inf, 2.0, 0.05),
    (20.0, 0.0, 0.05), (20.0, -2.0, 0.05), (20.0, 0.5, 0.05),
    (20.0, 2.0, 0.0), (20.0, 2.0, -0.05), (20.0, 2.0, 1.0 / 16.0),
    (-1.0, -2.0, -0.05), (20.0, 0.0, 0.0),
    (20.0, 2.0, 1e-300), (20.0, 2.0, 0.0085), (1e300, 2.0, 0.1),
])
def test_profile_errors_match_the_reference(R, C, eps):
    with pytest.raises(ParameterError) as want:
        _ref_build(R, C, eps)
    with pytest.raises(ParameterError) as got:
        PhiProfile(R, C, eps)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("R, eps, cause", [
    (1e300, 0.05, "R 1e+300, slope budget 0.05 (m_target 120.0)"),  # R is too large
    (20.0, 1e-300, "R 20.0, slope budget 1e-300 (m_target 6e+300)"),  # eps is too small
])
def test_tail_overflow_names_the_flat_radius_and_the_slope_budget(R, eps, cause):
    with pytest.raises(ParameterError) as exc:
        PhiProfile(R, 2.0, eps)
    assert str(exc.value) == (f"tail radius R * exp(m_target + 1) overflows a double at "
                              f"{cause}; pick a smaller R or a larger slope budget")


# Reference: the profile as two separate knot walks, each behind its own
# validation, range checks and log.  The single-walk evaluation must match it
# bit for bit.

def _ref_smoothstep(t):
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _ref_smoothstep_integral(t):
    return t * t * t * t * (t * (t - 3.0) + 2.5)


def _ref_slope_factor(profile, u):
    w = profile.ramp
    mt = profile.m_target
    if u <= 0.0 or u >= mt + w:
        return 0.0
    if u < w:
        return _ref_smoothstep(u / w)
    if u <= mt:
        return 1.0
    return _ref_smoothstep((mt + w - u) / w)


def _ref_decay(profile, u):
    w = profile.ramp
    mt = profile.m_target
    if u <= 0.0:
        return 0.0
    if u >= mt + w:
        return mt
    if u < w:
        return w * _ref_smoothstep_integral(u / w)
    if u <= mt:
        return u - 0.5 * w
    return mt - w * _ref_smoothstep_integral((mt + w - u) / w)


def _ref_phi_eval(profile, r):
    if not r >= 0.0:
        raise ParameterError(f"radius must be >= 0, got {r!r}")
    if r <= profile.R:
        return 1.0
    if r >= profile.r_tail:
        return profile.floor
    u = math.log(r / profile.R)
    if u >= profile.m_target + profile.ramp:
        return profile.floor
    val = 1.0 - profile.eps / 8.0 * _ref_decay(profile, u)
    return val if val > profile.floor else profile.floor


def _ref_phi_log_slope(profile, r):
    if not r >= 0.0:
        raise ParameterError(f"radius must be >= 0, got {r!r}")
    if r <= profile.R or r >= profile.r_tail:
        return 0.0
    s = _ref_slope_factor(profile, math.log(r / profile.R))
    if s == 0.0:
        return 0.0
    return -(profile.eps / 8.0) * s


def _ref_phi_deriv(profile, r):
    ls = _ref_phi_log_slope(profile, r)
    if ls == 0.0:
        return 0.0
    return ls / r


def _ref_radial_jac(profile, x, y):
    r = math.hypot(x, y)
    f = _ref_phi_eval(profile, r)
    fp = _ref_phi_deriv(profile, r)
    if fp == 0.0:
        return f, 0.0, 0.0, f
    s = fp / r
    return f + s * x * x, s * x * y, s * x * y, f + s * y * y


def _raw(*vals):
    return struct.pack(f"<{len(vals)}d", *vals)


def _knot_radii(prof):
    """Each knot R, R e^ramp, R e^m_target, R e^(m_target + ramp) and r_tail
    with its neighbours one and two ulps away, plus a point inside every zone."""
    w, mt, R = prof.ramp, prof.m_target, prof.R
    knots = [R, R * math.exp(w), R * math.exp(mt), R * math.exp(mt + w), prof.r_tail]
    radii = [0.0, 5e-324, 1e-300, 0.5 * R, R * math.exp(0.5 * w),
             R * math.exp(0.5 * (w + mt)), R * math.exp(mt + 0.5 * w),
             math.sqrt(R * math.exp(mt + w) * prof.r_tail),  # past the ramp, short of r_tail
             10.0 * prof.r_tail, 1e300, math.inf]
    for k in knots:
        lo = hi = k
        for _ in range(2):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
            radii += [lo, hi]
        radii.append(k)
    return sorted(radii)


PROFILES = [build_phi(20.0, 2.0, 0.05),
            build_phi(19.99999999999999, 1.5907629949682967, 0.05),  # the paper's build
            build_phi(20.0, 0.51, 0.2),                               # m_target < 1
            build_phi(1e300, 0.6, 0.2)]  # phi' = phi'r / r underflows at the ramp's end
IDS = ["C2", "paper", "short-ramp", "huge-R"]


@pytest.mark.parametrize("prof", PROFILES, ids=IDS)
def test_single_walk_matches_the_two_walks_bit_for_bit(prof):
    assert PROFILES[2].m_target < 1.0  # so its ramp shrinks to m_target
    for r in _knot_radii(prof):
        want = _raw(_ref_phi_eval(prof, r), _ref_phi_log_slope(prof, r))
        assert _raw(*_phi_parts(prof, r)) == want, r
        assert _raw(phi_eval(prof, r), phi_log_slope(prof, r)) == want, r
        assert _raw(phi_deriv(prof, r)) == _raw(_ref_phi_deriv(prof, r)), r


@pytest.mark.parametrize("prof", PROFILES, ids=IDS)
def test_radial_jacobian_matches_the_two_walks_bit_for_bit(prof):
    h = RadialMap(prof)
    for r in _knot_radii(prof):
        if not math.isfinite(r):
            continue
        for x, y in ((r, 0.0), (-r, 0.0), (0.0, r), (0.6 * r, -0.8 * r), (-0.28 * r, 0.96 * r)):
            assert _raw(*h.jac(x, y)) == _raw(*_ref_radial_jac(prof, x, y)), (x, y)


@pytest.mark.parametrize("prof", PROFILES, ids=IDS)
def test_single_walk_rejects_negative_and_nan_radii(prof):
    # the public functions refuse both; the walk itself checks no radius, and
    # gives NaN at a NaN radius, so the radial Jacobian's entries are NaN
    for r in (-1.0, -5e-324, -math.inf, math.nan):
        for f in (phi_eval, phi_log_slope, phi_deriv, _ref_phi_eval):
            with pytest.raises(ParameterError):
                f(prof, r)
    assert all(map(math.isnan, _phi_parts(prof, math.nan)))
    for x, y in ((math.nan, 0.0), (0.0, math.nan)):
        assert all(map(math.isnan, RadialMap(prof).jac(x, y)))


@pytest.mark.parametrize("prof", PROFILES, ids=IDS)
def test_value_only_walk_matches_the_two_walks_bit_for_bit(prof):
    for r in _knot_radii(prof):
        want = _raw(_ref_phi_eval(prof, r))
        assert _raw(_phi_parts(prof, r, False)) == want, r
        assert _raw(phi_eval(prof, r)) == want, r
    h = RadialMap(prof)
    for r in _knot_radii(prof):
        if not math.isfinite(r):
            continue
        for x, y in ((r, 0.0), (-r, -0.0), (0.6 * r, -0.8 * r)):
            f = _ref_phi_eval(prof, math.hypot(x, y))
            assert _raw(*h.xy(x, y)) == _raw(f * x, f * y), (x, y)


@pytest.mark.parametrize("prof", PROFILES, ids=IDS)
def test_value_only_walk_rejects_negative_and_nan_radii(prof):
    # phi_eval refuses both; the value-only walk gives NaN at a NaN radius
    for r in (-1.0, -5e-324, -math.inf, math.nan):
        with pytest.raises(ParameterError):
            phi_eval(prof, r)
    assert math.isnan(_phi_parts(prof, math.nan, False))
