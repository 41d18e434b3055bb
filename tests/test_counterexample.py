import hashlib
import json
import math
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from dmy import (K_CEIL, K_MAX, DampedSzlenkMap, ParameterError, PlanarMap, Point2,
                 RadialMap, SzlenkMap, build_counterexample, basin_raster, build_phi, compose,
                 dissipativity_bound, dynamics, find_periodic, phi_eval,
                 verify_counterexample)
from dmy import counterexample as ce
from dmy.cli import _finite_or_null, main
from dmy.geometry import replace
from dmy.spectral import _lerps, _log_radii, _norm, _radius, _ring_points

EXPECTED_CHECKS = ["origin-fixed", "spectral-radius-bound", "tail-contraction",
                   "radial-orientation", "period-4-orbit", "profile-envelope"]


def test_parameter_ceiling_constant():
    assert K_CEIL == K_MAX * 0.88
    assert K_CEIL == pytest.approx(1.0161364737737415, rel=1e-15)


def test_bundle_frozen_values(bundle):
    assert bundle.k == 1.01 and bundle.a == 0.005
    assert bundle.c_raw == pytest.approx(1.5150123761602825, rel=1e-9)
    assert bundle.c_used == pytest.approx(1.5907629949682967, rel=1e-9)
    assert bundle.profile.eps == 0.05  # default budget needs no halving
    assert bundle.profile.floor == pytest.approx(0.3143145783385317, rel=1e-9)
    assert bundle.profile.r_tail == pytest.approx(2.407840247103163e+49, rel=1e-6)
    assert bundle.flat_radius == pytest.approx(2.0 / math.sqrt(0.01), rel=1e-12)


def test_bundle_internal_consistency(bundle):
    assert bundle.c_used == 1.05 * max(bundle.c_raw, 1.0)
    assert bundle.profile.floor == 1.0 / (2.0 * bundle.c_used)
    assert bundle.profile.C == bundle.c_used
    assert bundle.radial.profile == bundle.profile
    assert (bundle.composite.outer, bundle.composite.inner) == (bundle.radial, bundle.damped)
    assert bundle.damped.k == bundle.k and bundle.damped.a == bundle.a


def test_build_validation():
    k_range = "cubic parameter must satisfy 1 < k < 1.0161364737737415, got "
    damping = "damping must satisfy 0 < a < 1, got "
    for kwargs, message in [
        ({"k": 1.0}, k_range + "1.0"),
        ({"k": 1.2}, k_range + "1.2"),  # past the sampled-certificate ceiling
        ({"k": 1.01, "a": 0.0}, damping + "0.0"),
        ({"k": 1.01, "a": 1.0}, damping + "1.0"),
        ({"k": 1.01, "eps_init": 0.0}, "slope budget must be positive, got 0.0"),
        # the damping is checked before the slope budget
        ({"k": 1.01, "a": 1.0, "eps_init": 0.0}, damping + "1.0"),
    ]:
        with pytest.raises(ParameterError) as exc:
            build_counterexample(**kwargs)
        assert str(exc.value) == message


@pytest.mark.parametrize("eps_init", [1e-300, 0.007])
def test_build_refuses_a_tail_radius_past_the_doubles(eps_init):
    # the flat radius is derived from k, so the refusal advises only the budget
    with pytest.raises(ParameterError) as exc:
        build_counterexample(1.01, eps_init=eps_init)
    assert str(exc.value) == (f"slope budget {eps_init!r} gives a profile tail radius that "
                              "overflows a double; pick a larger slope budget (--eps-init)")


def test_build_rejects_heavy_damping():
    # damping this strong drags eigenvalues past the sampled radius cap
    with pytest.raises(ParameterError) as exc:
        build_counterexample(1.01, a=0.9)
    assert "spectral radius" in str(exc.value)


def test_build_halves_damping_when_newton_collapses():
    # a = 0.1 sends the period-4 search into the origin; the builder retries
    b = build_counterexample(1.01, a=0.1)
    assert b.a == 0.05
    assert verify_counterexample(b).passed


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.floats(-5.0, math.log10(K_CEIL - 1.0)).map(lambda e: 1.0 + 10.0 ** e),
       st.floats(-4.0, math.log10(0.99)).map(lambda e: 10.0 ** e),
       st.floats(0.041, 2.0))
@example(1.0001, 0.005, 0.05)  # too near neutral at every damping
@example(1.0002, 0.05, 0.05)  # too near neutral until the damping halves
# the envelope's last log radius rounds one step under the reach, where
# floor * r ties for the two radii
@example(1.000439338551215, 0.01685986951190581, 0.8135664765207141)
def test_every_built_bundle_passes_its_report(k, a, eps_init):
    # k is drawn log-uniformly above 1, where the orbit's larger multiplier
    # nears 1; the build refuses, or returns a bundle its verifier accepts
    try:
        b = build_counterexample(k, a, eps_init)
    except ParameterError:
        return
    report = verify_counterexample(b)
    assert report.passed, [c.detail for c in report.checks if not c.passed]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(1e-300, 1e300), min_size=4, max_size=4))
@example([1.0 / 3.0, 3.0, 1.0, 1.0])
@example([1.0, 1.0, 1.0 / 3.0, 3.0])
@example([0.1, 3.0, 0.3, 1.0])
def test_exact_product_comparison_settles_float_ties(xs):
    # the envelope's stretch tie-break: a * b > c * d between the exact rationals
    from fractions import Fraction
    a, b, c, d = xs
    assert ce._exact_product_gt(a, b, c, d) == (Fraction(a) * Fraction(b) > Fraction(c) * Fraction(d))


def test_exact_product_comparison_where_the_float_products_tie():
    # 1/3 rounds down, so (1/3) * 3 is 1.0 in floats and just under 1 exactly
    third = 1.0 / 3.0
    assert third * 3.0 == 1.0 * 1.0
    assert not ce._exact_product_gt(third, 3.0, 1.0, 1.0)
    assert ce._exact_product_gt(1.0, 1.0, third, 3.0)
    assert not ce._exact_product_gt(1.0, 1.0, 1.0, 1.0)


def test_build_halves_oversized_slope_budget():
    b = build_counterexample(1.01, eps_init=0.2)
    assert b.profile.eps == pytest.approx(0.07072078012616964, rel=1e-9)
    assert b.profile.eps <= 0.9 / (8.0 * b.c_used)
    assert verify_counterexample(b).passed


def test_composite_matches_damped_inside_flat_disc(bundle):
    # the radial squash is the identity below the flat radius, so the
    # composition agrees with the damped map wherever images stay small
    for p in (Point2(0.5, 0.5), Point2(1.0, -2.0), Point2(-3.0, 0.25)):
        got = bundle.composite.eval(p)
        want = bundle.damped.eval(p)
        assert got.x == want.x and got.y == want.y


def test_origin_is_fixed(bundle):
    img = bundle.composite.eval(Point2(0.0, 0.0))
    assert (img.x, img.y) == (-0.0, 0.0)
    assert img.norm() == 0.0


def test_verify_all_checks_pass(bundle):
    report = verify_counterexample(bundle)
    assert report.passed
    assert [c.name for c in report.checks] == EXPECTED_CHECKS
    for c in report.checks:
        assert c.passed, f"{c.name}: {c.detail}"


def test_verify_is_deterministic(bundle):
    r1 = verify_counterexample(bundle)
    r2 = verify_counterexample(bundle)
    assert r1.to_dict() == r2.to_dict()


def test_report_dict_layout(bundle):
    d = _finite_or_null(verify_counterexample(bundle).to_dict())
    assert list(d) == ["map", "k", "a", "c_raw", "c_used", "eps", "floor",
                       "flat_radius", "tail_radius", "passed", "checks"]
    assert d["passed"] is True
    assert len(d["checks"]) == 6
    for c in d["checks"]:
        assert set(c) >= {"name", "passed", "detail"}


def test_verify_sample_counts_and_orientation_witness(bundle):
    # the fixed sampling plan, seen through the report
    report = _finite_or_null(verify_counterexample(bundle).to_dict())
    checks = {c["name"]: c["data"] for c in report["checks"]}
    assert checks["spectral-radius-bound"]["samples"] == 1 + 400 * 32
    assert checks["tail-contraction"]["samples"] == 128 * 16
    assert checks["radial-orientation"]["samples"] == 1 + 256 * 16
    assert checks["profile-envelope"]["samples"] == 10_006
    orient = checks["radial-orientation"]
    assert orient["worst"] == [1.2179055414480883e+49, 0.0]
    assert orient["min_det"] == pytest.approx(0.09797422804162682, rel=1e-12)


def test_verified_orbit_near_axis_cycle(bundle):
    report = verify_counterexample(bundle)
    orbit = next(c for c in report.checks if c.name == "period-4-orbit")
    pts = orbit.data["points"]
    targets = [(10.0, 0.0), (0.0, 10.0), (-10.0, 0.0), (0.0, -10.0)]
    # the cycle is a perturbation of the undamped axis cycle; match each
    # image to the nearest target within half a unit
    for x, y in pts:
        assert min(math.hypot(x - tx, y - ty) for tx, ty in targets) < 0.5


def test_tampered_profile_fails_verification(bundle):
    # force an illegally steep decay profile past the constructor checks
    bad_profile = replace(bundle.profile)
    object.__setattr__(bad_profile, "eps", 3.0)
    tampered = replace(bundle, profile=bad_profile)
    report = verify_counterexample(tampered)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing
    assert any(c.detail for c in failing)


def _eps_forced(profile, eps):
    # a profile whose eps no longer matches its derived constants
    bad = replace(profile)
    object.__setattr__(bad, "eps", eps)
    return bad


def _envelope_record(max_slope, budget, range_ok, monotone_ok, slope_ok, stretch_ok):
    # flat disc and floor tail hold in every case below
    return (range_ok and monotone_ok and slope_ok and stretch_ok,
            f"range {range_ok}, monotone {monotone_ok}, slope {slope_ok} "
            f"(max {max_slope!r} vs budget {budget!r}), flat disc True, "
            f"floor tail True, radius stretch strictly increasing {stretch_ok}",
            {"samples": 10_006, "max_abs_log_slope": max_slope, "slope_budget": budget,
             "range_ok": range_ok, "monotone_ok": monotone_ok, "flat_ok": True,
             "floor_ok": True, "stretch_ok": stretch_ok})


@pytest.mark.parametrize("field, value, want", [
    (None, None, _envelope_record(0.00625, 0.00625, True, True, True, True)),
    # a slope of -3/8 in log radius: where phi is below 3/8, near the floor,
    # phi(r) * r falls as r grows
    ("eps", 3.0, _envelope_record(0.375, 0.375, True, True, True, False)),
    # a floor above 1: the flat disc's 1 lies under it, and the decay is
    # clamped up to it
    ("floor", 1.5, _envelope_record(0.00625, 0.00625, False, False, True, True)),
    # at the knot R e^0.25, u rounds just under the quarter-unit ramp and the
    # quintic rounds just past 1
    ("ramp", 0.25, _envelope_record(0.006250000000000005, 0.00625, True, True, False, True)),
    # the decay ends at phi 0.6875, and the floor branch then drops phi to
    # 1/(2C) at once
    ("m_target", 50.0, _envelope_record(0.00625, 0.00625, True, True, True, False)),
    # a negative budget lifts phi above 1 past the flat disc, and the floor
    # branch then drops it to 1/(2C)
    ("eps", -0.05, _envelope_record(0.00625, -0.00625, False, False, False, False)),
])
def test_envelope_flags_on_tampered_profiles(bundle, field, value, want):
    # each flag of the streaming envelope check, pinned on the paper bundle and
    # on profiles tampered past the constructor's checks
    profile = replace(bundle.profile)
    if field is not None:
        object.__setattr__(profile, field, value)
    assert ce._check_envelope(replace(bundle, profile=profile)) == want


def test_bundle_composes_its_own_map(bundle):
    # neither map can be handed in apart from the profile and damped map
    # they are composed from
    bad_radial = RadialMap(_eps_forced(bundle.profile, 3.0))
    with pytest.raises(ValueError, match="init=False"):
        replace(bundle, composite=compose(bad_radial, bundle.damped))
    with pytest.raises(ValueError, match="init=False"):
        replace(bundle, radial=bad_radial)
    with pytest.raises(TypeError):
        ce.CounterexampleBundle(bundle.damped, bundle.profile, bundle.c_raw, bundle.orbit,
                                composite=bundle.composite)


def test_tampered_profile_reports_the_map_it_verifies(bundle):
    tampered = replace(bundle, profile=_eps_forced(bundle.profile, 3.0))
    assert tampered.composite.outer == RadialMap(tampered.profile)
    assert tampered.composite.inner == bundle.damped
    report = verify_counterexample(tampered)
    failing = {c.name for c in report.checks if not c.passed}
    assert {"radial-orientation", "profile-envelope"} <= failing
    d = report.to_dict()
    assert d["eps"] == 3.0
    assert d["map"] == tampered.composite.describe()
    assert "eps=3.0)" in d["map"]


def test_bundle_reads_its_header_off_its_parts(bundle):
    assert bundle.c_used == bundle.profile.C
    assert bundle.flat_radius == bundle.profile.R
    other = replace(bundle, damped=DampedSzlenkMap(1.005, 0.01),
                                profile=build_phi(bundle.flat_radius, 2.0, 0.05))
    assert (other.k, other.a, other.c_used, other.c_raw) == (1.005, 0.01, 2.0, bundle.c_raw)
    d = verify_counterexample(other).to_dict()
    assert (d["k"], d["a"], d["c_used"]) == (1.005, 0.01, 2.0)
    assert d["map"] == other.composite.describe()


def test_spectral_sweep_overflow_is_a_failed_check(bundle):
    # at eps 0.02 a sweep out to 10 * r_tail passes where the cubic Jacobian's
    # d*d overflows: each such sample counts as radius infinity, not an
    # exception
    steep = replace(
        bundle, profile=build_phi(bundle.flat_radius, bundle.c_used, 0.02))
    span = ce.SweepConfig.sr_span * steep.profile.r_tail
    sup, _, count = ce._composite_sr_sweep(steep.composite, steep.flat_radius, span)
    assert sup == math.inf
    assert count == 1 + 400 * 32
    # that tail lies past the tail sampling cap, so the bundle has no reach
    # and the check itself samples nothing
    assert steep.reach is None
    report = verify_counterexample(steep)
    rec = next(c for c in report.checks if c.name == "spectral-radius-bound")
    assert not report.passed and not rec.passed
    assert rec.data == {"tail_radius": steep.profile.r_tail, "cap": 1e60, "samples": 0}
    json.dumps(_finite_or_null(report.to_dict()), allow_nan=False)


def test_sweep_span_overflow_is_a_failed_check(bundle):
    # the tail radius 9.48e307 is finite, but the sweeps' end 10 * r_tail is
    # not: the spectral-radius check fails unsampled, it does not raise
    huge = replace(
        bundle, profile=build_phi(bundle.flat_radius, bundle.c_used, 0.0077792))
    assert math.isfinite(huge.profile.r_tail)
    assert not math.isfinite(ce.SweepConfig.sr_span * huge.profile.r_tail)
    report = verify_counterexample(huge)
    rec = next(c for c in report.checks if c.name == "spectral-radius-bound")
    assert not report.passed and not rec.passed
    assert rec.data["samples"] == 0
    text = json.dumps(_finite_or_null(report.to_dict()), allow_nan=False)
    assert json.loads(text)["checks"][1]["data"]["samples"] == 0


def test_bundle_without_reach_fails_the_far_checks_unsampled(bundle):
    # sr_span * r_tail overflows here: the envelope and orientation sweeps
    # once passed on 7 and 4,097 samples that never reached the tail
    huge = replace(
        bundle, profile=build_phi(bundle.flat_radius, bundle.c_used, 0.0077792))
    assert huge.reach is None
    checks = {c.name: c for c in verify_counterexample(huge).checks}
    far = ["spectral-radius-bound", "tail-contraction", "radial-orientation", "profile-envelope"]
    for name in far:
        assert not checks[name].passed
        assert checks[name].data["samples"] == 0
        assert checks[name].detail == (
            f"profile tail radius {huge.profile.r_tail!r} is beyond the tail sampling cap "
            f"1e+60, so nothing was sampled")
    assert checks["origin-fixed"].passed and checks["period-4-orbit"].passed


def test_far_tail_contracts_strongly(bundle):
    for r in (1e54, 1e60):
        p = Point2(r / math.sqrt(2.0), r / math.sqrt(2.0))
        img = bundle.composite.eval(p)
        assert img.norm() / p.norm() <= 0.5


def test_tail_is_dissipative(bundle):
    b = dissipativity_bound(bundle.composite, bundle.profile.r_tail, 0.5)
    assert b.passed
    assert b.contraction_factor == 0.75


def test_profile_floor_active_beyond_tail(bundle):
    prof = bundle.profile
    assert phi_eval(prof, prof.r_tail) == prof.floor
    assert phi_eval(prof, 10.0 * prof.r_tail) == prof.floor


def test_no_escaping_cells_in_window(bundle):
    g = basin_raster(bundle.composite, 15.0, 16, 16)
    assert g.counts() == (188, 68, 0, 0)
    assert g.counts()[2] == 0  # nothing escapes: infinity repels


def test_long_run_orbit_stays_bounded(bundle):
    report = verify_counterexample(bundle)
    orbit = next(c for c in report.checks if c.name == "period-4-orbit")
    x, y = orbit.data["points"][0]
    step = bundle.composite.xy
    biggest = 0.0
    for _ in range(40_000):
        x, y = step(x, y)
        n = math.hypot(x, y)
        if n > biggest:
            biggest = n
    assert biggest < 11.0  # the saddle cycle never drifts outward


def test_damped_map_standalone_validation():
    with pytest.raises(ParameterError):
        DampedSzlenkMap(1.01, 0.0)
    with pytest.raises(ParameterError):
        DampedSzlenkMap(1.01, 1.0)
    with pytest.raises(ParameterError):
        DampedSzlenkMap(K_MAX, 0.005)


def _orbit_record(bundle):
    return next(c for c in verify_counterexample(bundle).checks if c.name == "period-4-orbit")


def test_build_and_verify_run_one_newton_search(monkeypatch):
    calls = []
    search = dynamics.find_periodic

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(dynamics, "find_periodic", counting)
    monkeypatch.setattr(ce, "find_periodic", counting)
    report = verify_counterexample(build_counterexample(1.01, 0.005, 0.05))
    assert report.passed
    assert len(calls) == 1


def test_bundle_keeps_the_build_orbit_and_verify_checks_it(bundle):
    orbit = find_periodic(bundle.composite, 4, Point2(bundle.flat_radius / 2.0, 0.0),
                          ce.SweepConfig.newton)
    assert bundle.orbit == orbit.points
    # the record as the report encodes it
    rec = _finite_or_null(_orbit_record(bundle))
    assert rec["passed"]
    assert rec["data"]["points"] == [[p.x, p.y] for p in orbit.points]
    assert rec["data"]["residual"] == orbit.residual
    mults = orbit.multipliers
    assert rec["data"]["multipliers"] == [[mults[0].real, mults[0].imag],
                                          [mults[1].real, mults[1].imag]]
    assert rec["data"]["hyperbolic"] is orbit.hyperbolic is True


def test_orbit_shifted_off_the_cycle_fails_its_check(bundle):
    for dx in (1e-3, 1e-9):
        shifted = replace(
            bundle, orbit=tuple(Point2(p.x + dx, p.y) for p in bundle.orbit))
        rec = _orbit_record(shifted)
        assert not rec.passed
        assert rec.data["residual"] > 1e-10
    # one point off the cycle is enough: every gap around it is checked
    pts = list(bundle.orbit)
    pts[2] = Point2(pts[2].x, pts[2].y + 1e-6)
    assert not _orbit_record(replace(bundle, orbit=tuple(pts))).passed


def test_orbit_collapsed_onto_the_origin_fails_its_check(bundle):
    # four points at radius 1e-20 about the fixed origin, where f is -a times
    # the identity to first order: they close up and are far from neutral,
    # so only the puncture about the origin tells them from a cycle
    pts = tuple(Point2(1e-20 * (-0.005) ** i, 0.0) for i in range(4))
    rec = _orbit_record(replace(bundle, orbit=pts))
    assert rec.data["residual"] < 1e-10 and rec.data["unit_circle_gap"] > 0.99
    assert not rec.passed
    assert rec.detail.endswith(f"inside disc of {bundle.flat_radius!r}: False")


def test_orbit_moved_past_the_doubles_fails_its_check(bundle):
    for scale in (1e200, 1e300):
        far = replace(
            bundle, orbit=tuple(Point2(p.x * scale, p.y * scale) for p in bundle.orbit))
        report = verify_counterexample(far)
        rec = next(c for c in report.checks if c.name == "period-4-orbit")
        assert not report.passed and not rec.passed
        assert "overflow" in rec.detail
        assert rec.data == {}


class _RecordingMap:
    """Records every point a Jacobian sweep asks of the raw kernel ``jac``,
    answering with the wrapped map's raw Jacobian, or zeros without one.  The
    sweeps check finiteness themselves, so asking for ``_jac`` is an error."""

    def __init__(self, inner=None):
        self.points = []
        self.inner = inner

    def jac(self, x, y):
        self.points.append((x, y))
        return (0.0, 0.0, 0.0, 0.0) if self.inner is None else self.inner.jac(x, y)

    def _jac(self, x, y):
        raise AssertionError(f"a sweep asked for the checked Jacobian at ({x!r}, {y!r})")


class _CheckedRecordingMap(_RecordingMap):
    """A ``_RecordingMap`` whose ``_jac`` is the checked form over its recording
    ``jac``, for the orientation check, which uses every value it asks for."""

    _jac = PlanarMap._jac


def test_verify_spectral_sample_is_disjoint_from_the_build_sample(bundle):
    # the build samples no spectral radius; the verifier's sample is the
    # origin, then 400 rings of 32 points, all distinct, strictly between
    # the sweep's ends
    verify = _RecordingMap()
    ce._composite_sr_sweep(verify, bundle.flat_radius, bundle.reach)
    assert len(verify.points) == len(set(verify.points)) == 1 + 400 * 32
    assert verify.points[0] == (0.0, 0.0)
    radii = [math.hypot(x, y) for x, y in verify.points[1:]]
    assert bundle.flat_radius * 1e-6 < min(radii) and max(radii) < bundle.reach
    # and the check reports a point of its own sample
    data = next(c for c in verify_counterexample(bundle).checks
                if c.name == "spectral-radius-bound").data
    assert tuple(data["worst"]) in set(verify.points)
    assert data["max"] < 0.95


def test_jacobian_sweeps_make_one_raw_call_per_sample(bundle):
    # the origin and 400 rings of 32; the origin, half the 81x81 grid with
    # its center, and 240 rings of 32
    composite = _RecordingMap(bundle.composite)
    assert (ce._composite_sr_sweep(composite, bundle.flat_radius, bundle.reach)
            == ce._composite_sr_sweep(bundle.composite, bundle.flat_radius, bundle.reach))
    assert len(composite.points) == 12_801
    damped = _RecordingMap(bundle.damped)
    assert ce._damped_sweep(damped) == ce._damped_sweep(bundle.damped)
    assert len(damped.points) == 10_962


def test_far_sweeps_end_at_the_reach(monkeypatch):
    # the tail 6.9e59 is inside the tail sampling cap 1e60 while ten tails
    # are not: every far sweep still ends at the one reach
    sweeps = []
    sweep, parts = ce._composite_sr_sweep, ce._phi_parts

    def recording_sweep(m, *args):
        sweeps.append(_RecordingMap(m))
        return sweep(sweeps[-1], *args)

    monkeypatch.setattr(ce, "_composite_sr_sweep", recording_sweep)
    b = build_counterexample(1.01, 0.005, 0.041)
    assert b.profile.r_tail < 1e60 < b.reach == 10.0 * b.profile.r_tail
    far = replace(b)
    orient = _CheckedRecordingMap(b.radial)
    object.__setattr__(far, "radial", orient)
    envelope = []
    monkeypatch.setattr(ce, "_phi_parts", lambda prof, r: envelope.append(r) or parts(prof, r))
    assert verify_counterexample(far).passed
    # the build samples no spectral radius, so the one sweep is the verifier's
    [sr] = sweeps
    # log grids end at exp(log(reach)), which may round off the reach; the
    # spectral rings are midpoints, so they end half a log step short of it
    ends = [max(math.hypot(x, y) for x, y in rec.points) for rec in (sr, orient)]
    half_step = (b.reach / (b.flat_radius * 1e-6)) ** (0.5 / 400)
    assert ends + [max(envelope)] == pytest.approx([b.reach / half_step, b.reach, b.reach],
                                                   rel=1e-12)
    assert b.reach in envelope


@pytest.mark.parametrize("eps_init", [0.02, 0.04])
def test_build_refuses_a_tail_past_the_cap_before_any_sweep(monkeypatch, eps_init):
    calls = _record_search_and_sweeps(monkeypatch)
    with pytest.raises(ParameterError, match="beyond the tail sampling cap 1e"):
        build_counterexample(1.01, 0.005, eps_init)
    assert calls == []


# the drawn parameters of op 5 of the certify bench at seed 0, whose damping
# fails its period-4 search and is halved once
HALVED_K, HALVED_A = 1.0108361478612184, 0.08926466739278938


def test_halved_damping_report_bytes_are_pinned(capsys):
    assert main(["counterexample", "--k", repr(HALVED_K), "--a", repr(HALVED_A),
                 "--eps-init", "0.05"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
            == "2495c8793b3ecdf9cd6da5fd74280a3774c92218bfa27a25bfea8c8e1cf98653")


def _record_search_and_sweeps(monkeypatch, sweep_sups=()):
    """Log each period-4 search (by the damping and slope budget of the map
    it searched) and each composite sweep, in call order; the first sweeps
    report the given sups instead of their own."""
    calls, sups = [], list(sweep_sups)
    sweep, search = ce._composite_sr_sweep, ce.find_periodic

    def recording_sweep(*args):
        calls.append("sweep")
        sup, worst, count = sweep(*args)
        return (sups.pop(0) if sups else sup), worst, count

    def recording_search(m, *args):
        radial, damped = m.outer, m.inner
        calls.append(("search", damped.a, radial.profile.eps))
        return search(m, *args)

    monkeypatch.setattr(ce, "_composite_sr_sweep", recording_sweep)
    monkeypatch.setattr(ce, "find_periodic", recording_search)
    return calls


def test_rejected_damping_pays_no_slope_budget_sweep(monkeypatch):
    calls = _record_search_and_sweeps(monkeypatch)
    b = build_counterexample(HALVED_K, HALVED_A, 0.05)
    assert b.a == HALVED_A / 2.0 and b.profile.eps == 0.05
    assert verify_counterexample(b).passed
    # the build makes no composite sweep: the one sweep is the verifier's
    assert calls == [("search", HALVED_A, 0.05), ("search", b.a, 0.05), "sweep"]


def test_spectral_refusal_names_the_sampled_sup(monkeypatch, capsys):
    # the verifier alone reads the spectral cap: a sweep over it builds, and
    # the report fails spectral-radius-bound with the sampled sup (exit 1)
    calls = _record_search_and_sweeps(monkeypatch, [1.0])
    assert build_counterexample(1.01, 0.005, 0.05).orbit
    assert calls == [("search", 0.005, 0.05)]
    assert main(["counterexample", "--k", "1.01", "--a", "0.005", "--eps-init", "0.05"]) == 1
    assert calls[1:] == [("search", 0.005, 0.05), "sweep"]
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out, parse_constant=pytest.fail)
    assert not report["passed"]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["spectral-radius-bound"]
    assert report["checks"][1]["data"]["max"] == 1.0


def test_damped_jacobian_is_exactly_even():
    rng = random.Random(11)
    points = [(0.0, 0.0), (0.0, 1.0), (-0.0, 3.0), (2.5, 0.0), (50.0, -50.0), (1e-320, 7.0)]
    points += [(rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)) for _ in range(2000)]
    for m in (DampedSzlenkMap(1.01, 0.005), DampedSzlenkMap(1.15, 0.3)):
        for x, y in points:
            assert (struct.pack("<4d", *m.jac(-x, -y))
                    == struct.pack("<4d", *m.jac(x, y))), (x, y)


def test_damped_sweep_half_grid_sees_the_whole_grid():
    cfg = ce.SweepConfig
    g, hw = cfg.norm_grid, cfg.norm_half_width
    assert g * g // 2 + 1 == 3281
    for k, a in ((1.01, 0.005), (1.15, 0.3), (1.004, 0.02)):
        damped = DampedSzlenkMap(k, a)
        axis = _lerps(-hw, hw, g)
        full = [damped._jac(axis[ix], axis[iy]) for iy in range(g) for ix in range(g)]
        rings = _ring_points(_log_radii(1e-2, cfg.norm_r_max, cfg.norm_radii), cfg.norm_angles)
        full += [damped._jac(x, y) for x, y in rings]
        want = (max(0.0, *(_norm(*j) for j in full)), max(0.0, *(_radius(*j) for j in full)))
        assert ce._damped_sweep(damped) == want


# ------------------------------------------------ the far-field norm lemma
# Polynomials in (A, B) = (x^2, y^2) as {(i, j): integer coefficient of A^i B^j}.


def _padd(*terms):
    """The sum of (integer scale, polynomial) terms."""
    out = {}
    for s, p in terms:
        for mono, c in p.items():
            out[mono] = out.get(mono, 0) + s * c
    return {mono: c for mono, c in out.items() if c}


def _pmul(*ps):
    out = {(0, 0): 1}
    for p in ps:
        prod = {}
        for (i, j), c in out.items():
            for (u, v), e in p.items():
                prod[i + u, j + v] = prod.get((i + u, j + v), 0) + c * e
        out = {mono: c for mono, c in prod.items() if c}
    return out


def _ppow(p, n):
    return _pmul(*[p] * n)


def _peval(p, a, b):
    return sum(c * a ** i * b ** j for (i, j), c in p.items())


_ONE, _A, _B = {(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}
_AB = _pmul(_A, _B)
_D = _padd((1, _ONE), (1, _A), (1, _B))  # d = 1 + x^2 + y^2
# DF = (k/d^2) M, M = [[2xy^3, -y^2 S12], [x^2 S21, -2x^3 y]]
_S12 = _padd((3, _ONE), (3, _A), (1, _B))
_S21 = _padd((3, _ONE), (1, _A), (3, _B))
_FR = _padd((4, _pmul(_AB, _B, _B)), (1, _pmul(_B, _B, _S12, _S12)),  # ||M||_F^2
            (1, _pmul(_A, _A, _S21, _S21)), (4, _pmul(_AB, _A, _A)))
_DET = _padd((-4, _pmul(_AB, _AB)), (1, _pmul(_AB, _S12, _S21)))  # det M


def test_norm_lemma_polynomials_match_the_kernel():
    # k^2 Fr / d^4 and k^2 D / d^4 are the sum of squares and the det of
    # the cubic's Jacobian entries
    for k, x, y in ((1.01, 0.3, -2.0), (1.15, 7.0, 5.0), (1.004, -40.0, 0.5)):
        j11, j12, j21, j22 = SzlenkMap(k).jac(x, y)
        a, b = x * x, y * y
        d4 = _peval(_D, a, b) ** 4
        assert j11 ** 2 + j12 ** 2 + j21 ** 2 + j22 ** 2 == pytest.approx(
            k * k * _peval(_FR, a, b) / d4, rel=1e-12)
        assert j11 * j22 - j12 * j21 == pytest.approx(k * k * _peval(_DET, a, b) / d4, rel=1e-12)


def test_norm_lemma_is_exact():
    # ||M|| < 3 d^2 / 2 exactly when 9 d^4 / 4 lies past Fr / 2 and above both
    # roots of t^2 - Fr t + D^2: when Q = 9 d^4 / 2 - Fr > 0 and
    # P = 81 d^8 / 4 - 9 d^4 Fr + 4 D^2 > 0, here 4Q and 4P on exact integers
    q4 = _padd((18, _ppow(_D, 4)), (-4, _FR))
    p4 = _padd((81, _ppow(_D, 8)), (-36, _pmul(_ppow(_D, 4), _FR)), (16, _pmul(_DET, _DET)))
    assert q4[0, 0] == 18 and all(c > 0 for c in q4.values())
    # every monomial of degree 0 to 7 is present and positive...
    low = {mono: c for mono, c in p4.items() if sum(mono) <= 7}
    assert len(low) == 36 and all(c > 0 for c in low.values())
    # ...and the degree-8 part is 9 (A - B)^2 (A + B)^4 (5A^2 + 6AB + 5B^2) >= 0,
    # which vanishes on the diagonal, where the bound is tight far out
    top = {mono: c for mono, c in p4.items() if sum(mono) == 8}
    a_minus_b, a_plus_b = _padd((1, _A), (-1, _B)), _padd((1, _A), (1, _B))
    quadratic = _padd((5, _pmul(_A, _A)), (6, _AB), (5, _pmul(_B, _B)))
    assert top == _padd((9, _pmul(_ppow(a_minus_b, 2), _ppow(a_plus_b, 4), quadratic)))
    assert len(low) + len(top) == len(p4)
