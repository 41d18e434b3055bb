"""Construction and verification of the squashed damped map.

The construction: damp the cubic map by subtracting a small multiple of the
identity, bound its Jacobian norm by a sampled constant, build a radial
profile that is 1 on a disc large enough to contain the period-4 orbit and
collapses to 1/(2C) far out, and compose.  The result fixes the origin,
keeps every sampled Jacobian eigenvalue inside the 0.95 disc, has a
hyperbolic period-4 orbit inside the flat disc, and halves norms beyond the
profile tail, so orbits cannot run away even though the origin is not a
global attractor.

``build_counterexample`` is one loop over dampings and keeps the orbit it
found.  Each damping gets the damped map's sweep, one slope budget,
min(eps_init, 0.9/(8C)), its profile and the period-4 Newton search (the
orbit lies where the profile is 1); a failed search, or an orbit that fails
the verifier's own orbit check, halves the damping.  The build runs no
composite sweep: only the verifier reads the spectral cap.
The bundle stores each fact once (damped map, profile, c_raw, orbit) and
composes its own map.
``verify_counterexample`` re-derives the six claims of ``_CHECKS``, checking
that orbit rather than searching again; every check maps a bundle to (passed,
detail, data), and the build reads the orbit check's verdict.  The report's
header is read off the same bundle; it never raises on a failed claim, and a
sample where the Jacobian overflows counts as spectral radius infinity.  The
damped-map (norm and radius in one pass) and composite sweeps run through
``_jacobian_sups``.  The spectral-radius, orientation and envelope sweeps end
at the bundle's ``reach``, ``sr_span`` tail radii.  A tail at or past
``tail_r_max`` has no reach: the build refuses it before the search, and the
verifier fails those three checks and tail contraction unsampled.
"""

from __future__ import annotations

import math
from itertools import chain

from .dynamics import NewtonConfig, PeriodicOrbit, find_periodic, orbit_multipliers
from .errors import NewtonError, ParameterError
from .geometry import DERIVED, Point2, record, replace
from .phi import PhiProfile, _phi_parts, build_phi
from .planar import (CompositeMap, DampedSzlenkMap, K_MAX, PlanarMap, RadialMap,
                     compose)
from .spectral import (_growth, _half_grid, _jacobian_sups, _lerp, _log_radii, _norm, _radius,
                       _ring_points, _sweep_sup)

# the damped map's parameter must stay below 0.88 of the cubic-map ceiling so
# the spectral margin survives damping and squashing
K_CEIL = K_MAX * 0.88
DEFAULT_A, DEFAULT_EPS_INIT = 0.005, 0.05  # build_counterexample's; the CLI's --a and --eps-init


class SweepConfig:
    """The fixed sampling plan of the build search and the verification."""

    # spectral-radius sweep of the composed map
    sr_radii = 400
    sr_angles = 32
    sr_span = 10.0        # far sweeps reach sr_span * r_tail (CounterexampleBundle.reach)
    sr_cap = 0.95
    # norm and spectral-radius sweep of the damped map (c_raw and the
    # damping precondition)
    norm_grid = 81
    norm_half_width = 50.0
    norm_radii = 240
    norm_angles = 32
    norm_r_max = 1e6
    ga_sr_cap = 0.9
    # tail-contraction sweep
    tail_radii = 128
    tail_angles = 16
    tail_r_max = 1e60     # a tail at or past this has no reach: nothing far is sampled
    # radial-map orientation sweep
    orient_radii = 256
    orient_angles = 16
    # profile envelope sweep
    phi_samples = 10_000
    # search budgets
    max_a_halvings = 8
    newton = NewtonConfig(tol=1e-12, max_steps=60)


@record
class CounterexampleBundle:
    """One constructed map with everything needed to verify it.

    Only the damped map, the profile, c_raw and the orbit are set; the radial
    map and the composite radial o damped are composed from them, and k, a,
    c_used, flat_radius and the sweeps' reach are read off them, so the
    verifier always checks the map the report names."""

    damped: DampedSzlenkMap
    profile: PhiProfile  # built for the norm bound c_used = 1.05 * max(c_raw, 1)
    c_raw: float   # sampled sup of the damped map's Jacobian norm
    orbit: tuple[Point2, ...]  # the build's period-4 orbit of the composite, p0 first
    radial: RadialMap = DERIVED
    composite: CompositeMap = DERIVED

    def __post_init__(self):
        radial = RadialMap(self.profile)
        object.__setattr__(self, "radial", radial)
        object.__setattr__(self, "composite", compose(radial, self.damped))

    k = property(lambda self: self.damped.k)
    a = property(lambda self: self.damped.a)
    c_used = property(lambda self: self.profile.C)
    flat_radius = property(lambda self: self.profile.R)

    @property
    def reach(self) -> float | None:
        """Where the far sweeps end; None at or past the tail sampling cap."""
        r_tail = self.profile.r_tail
        return SweepConfig.sr_span * r_tail if r_tail < SweepConfig.tail_r_max else None


@record
class CheckRecord:
    name: str
    passed: bool
    detail: str
    data: dict


@record
class VerificationReport:
    """The verdicts on one bundle; the report header is read off the bundle."""

    bundle: CounterexampleBundle
    checks: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """Header, then CheckRecords whose Point2 and complex data cli._finite_or_null encodes."""
        b = self.bundle
        return {
            "map": b.composite.describe(),
            "k": b.k,
            "a": b.a,
            "c_raw": b.c_raw,
            "c_used": b.c_used,
            "eps": b.profile.eps,
            "floor": b.profile.floor,
            "flat_radius": b.flat_radius,
            "tail_radius": b.profile.r_tail,
            "passed": self.passed,
            "checks": self.checks,
        }


def _damped_sweep(damped: DampedSzlenkMap):
    """Sampled sup of Jacobian norm and spectral radius over a wide
    multi-scale region: a uniform grid around the origin plus log-spaced
    rings far beyond it."""
    g = SweepConfig.norm_grid
    hw = SweepConfig.norm_half_width
    # the grid's axes are mirrored and the damped Jacobian is exactly even,
    # so grid points up to the center see every value the mirrored half would
    axis = [_lerp(-hw, hw, i, g) for i in range(g)]
    grid = _half_grid(axis, axis)
    rings = _ring_points(_log_radii(1e-2, SweepConfig.norm_r_max, SweepConfig.norm_radii),
                         SweepConfig.norm_angles)
    (sup_norm, _, _), (sup_sr, _, _) = _jacobian_sups(chain([(0.0, 0.0)], grid, rings),
                                                      damped.jac, (_norm, _radius), 0.0)
    return sup_norm, sup_sr


def _composite_sr_sweep(m: PlanarMap, flat_radius: float, reach: float):
    """Max sampled spectral radius of the composed map's Jacobian, where it
    is attained, and the sample count, over the origin and rings between log
    radii from far inside the flat disc out to the reach: midpoints of a
    one-point-longer log grid, with the angles offset by half a step."""
    radii = _log_radii(flat_radius * 1e-6, reach, SweepConfig.sr_radii, 0.5)
    points = chain([(0.0, 0.0)], _ring_points(radii, SweepConfig.sr_angles, 0.5))
    return _jacobian_sups(points, m.jac, (_radius,))[0]


def build_counterexample(k: float, a: float = DEFAULT_A,
                         eps_init: float = DEFAULT_EPS_INIT) -> CounterexampleBundle:
    """Build the composed map for the given cubic parameter and damping.

    One loop over dampings, each at the one slope budget min(eps_init,
    0.9/(8C)): the damped map's sweep, the profile, then the period-4 Newton
    search, whose orbit must pass ``_check_periodic_orbit``, the verifier's
    own orbit check.  A failed search or check halves the damping (up to
    ``SweepConfig.max_a_halvings`` times), since only smallness of the
    damping is required.  Next to k = 1 (1.0001, say) the orbit is too near
    neutral for the check's unit-circle gap at every damping.
    Raises ParameterError when k, the damping or the slope budget is out of
    range, when a damping pushes the damped map's spectral radius past
    ``ga_sr_cap``, when the profile's tail is past the tail sampling cap or
    the doubles, or when the damping search is exhausted.
    """
    if not (1.0 < k < K_CEIL):
        raise ParameterError(
            f"cubic parameter must satisfy 1 < k < {K_CEIL!r}, got {k!r}")
    damped = DampedSzlenkMap(k, a)
    if not (math.isfinite(eps_init) and eps_init > 0.0):
        raise ParameterError(f"slope budget must be positive, got {eps_init!r}")
    flat_radius = 2.0 / math.sqrt(k - 1.0)
    for halvings in range(SweepConfig.max_a_halvings + 1):
        if halvings:
            damped = replace(damped, a=damped.a / 2.0)
        c_raw, ga_sr = _damped_sweep(damped)
        if ga_sr > SweepConfig.ga_sr_cap:
            raise ParameterError(
                f"damping {damped.a!r} pushes the sampled spectral radius of the damped map to "
                f"{ga_sr!r} > {SweepConfig.ga_sr_cap!r}; pick a smaller damping")
        c_used = 1.05 * max(c_raw, 1.0)
        eps = min(eps_init, 0.9 / (8.0 * c_used))
        try:
            profile = build_phi(flat_radius, c_used, eps)
        except ParameterError:  # R, C and eps are in range: the tail radius overflows
            raise ParameterError(f"slope budget {eps!r} gives a profile tail radius that overflows "
                                 f"a double; pick a larger slope budget (--eps-init)") from None
        # a candidate without its orbit yet
        bundle = CounterexampleBundle(damped, profile, c_raw, ())
        if bundle.reach is None:
            raise ParameterError(f"profile tail radius {bundle.profile.r_tail!r} is beyond the tail "
                                 f"sampling cap {SweepConfig.tail_r_max!r}; pick a larger slope budget")
        try:
            orbit = find_periodic(bundle.composite, 4, Point2(flat_radius / 2.0, 0.0),
                                  SweepConfig.newton)
        except NewtonError as exc:
            failure = exc
            continue
        bundle = replace(bundle, orbit=orbit.points)
        passed, detail, _ = _check_periodic_orbit(bundle)
        if passed:
            return bundle
        failure = f"period-4 orbit fails its check: {detail}"
    raise ParameterError(
        f"no damping down to {damped.a!r} gave a period-4 orbit that passes its check: {failure}")


def _check_origin_fixed(bundle: CounterexampleBundle):
    img = bundle.composite.eval(Point2(0.0, 0.0))
    return (img.x == 0.0 and img.y == 0.0, f"image of the origin is ({img.x!r}, {img.y!r})",
            {"image": img})


def _check_sr_bound(bundle: CounterexampleBundle):
    bound = SweepConfig.sr_cap + 1e-9
    sup, worst, count = _composite_sr_sweep(bundle.composite, bundle.flat_radius, bundle.reach)
    return (sup <= bound,
            f"max sampled spectral radius {sup!r} vs cap {bound!r} over {count} samples",
            {"max": sup, "cap": bound, "samples": count, "worst": worst})


def _check_tail_contraction(bundle: CounterexampleBundle):
    r_tail = bundle.profile.r_tail
    radii = _log_radii(r_tail, SweepConfig.tail_r_max, SweepConfig.tail_radii)
    worst, worst_at, count = _sweep_sup(_ring_points(radii, SweepConfig.tail_angles),
                                        _growth(bundle.composite), 0.0, (r_tail, 0.0))
    return (worst <= 0.5,
            f"max |f(p)|/|p| = {worst!r} over {count} tail samples (bound 0.5)",
            {"max_ratio": worst, "samples": count, "worst": worst_at})


def _check_orientation(bundle: CounterexampleBundle):
    """det of the radial map's Jacobian stays positive at every sample."""
    ring = _ring_points(_log_radii(bundle.flat_radius * 1e-6, bundle.reach,
                                   SweepConfig.orient_radii), SweepConfig.orient_angles)
    def neg_det(x, y):
        j11, j12, j21, j22 = bundle.radial._jac(x, y)
        return -(j11 * j22 - j12 * j21)

    neg, worst_at, count = _sweep_sup(chain([(0.0, 0.0)], ring), neg_det)
    worst = -neg
    return (worst > 0.0, f"min sampled radial Jacobian det {worst!r} over {count} samples",
            {"min_det": worst, "samples": count, "worst": worst_at})


def _check_periodic_orbit(bundle: CounterexampleBundle):
    m, pts = bundle.composite, bundle.orbit
    try:
        # largest gap |f(p_i) - p_i+1|: the closing gap on the build's orbit
        residual = max(m.eval(p).dist(q) for p, q in zip(pts, pts[1:] + pts[:1]))
        mults = orbit_multipliers(m, pts)
        orbit = PeriodicOrbit(len(pts), pts, residual, mults)
        gap = min(abs(abs(z) - 1.0) for z in mults)
    except (ArithmeticError, ValueError) as exc:
        return False, f"the stored orbit cannot be checked: {exc}", {}
    norms = [p.norm() for p in orbit.points]
    in_disc = min(norms) > 1e-6 and max(norms) < bundle.flat_radius
    return (orbit.residual < 1e-10 and gap >= 1e-3 and in_disc,
            f"residual {orbit.residual!r}, unit-circle gap {gap!r}, "
            f"orbit radii {min(norms)!r}..{max(norms)!r} inside disc of "
            f"{bundle.flat_radius!r}: {in_disc}",
            {"points": orbit.points,
             "residual": orbit.residual,
             "multipliers": mults,
             "unit_circle_gap": gap,
             "hyperbolic": orbit.hyperbolic})


def _exact_product_gt(a: float, b: float, c: float, d: float) -> bool:
    """a * b > c * d between the exact rationals of four finite floats."""
    (na, da), (nb, db), (nc, dc), (nd, dd) = (v.as_integer_ratio() for v in (a, b, c, d))
    return na * nb * dc * dd > nc * nd * da * db


def _check_envelope(bundle: CounterexampleBundle):
    prof, reach = bundle.profile, bundle.reach
    slope_budget = prof.eps / 8.0
    # the log grid, the origin, the reach exactly, the knot walk's knots R,
    # R e^ramp and R e^m_target, and the tail radius
    knots = (prof.R, prof.R * math.exp(prof.ramp), prof.R * math.exp(prof.m_target), prof.r_tail)
    radii = sorted({0.0, *knots, reach, *_log_radii(prof.R * 1e-3, reach, SweepConfig.phi_samples)})
    max_slope = 0.0
    range_ok = monotone_ok = flat_ok = floor_ok = stretch_ok = True
    prev_val, prev_r = math.inf, 0.0
    for r in radii:
        val, ls = _phi_parts(prof, r)
        max_slope = max(max_slope, abs(ls))
        range_ok &= prof.floor <= val <= 1.0
        monotone_ok &= not val > prev_val
        flat_ok &= not (r <= prof.R and val != 1.0)
        floor_ok &= not (r >= prof.r_tail and val != prof.floor)
        if prev_r > 0.0:
            # the radial map sends radius r to val * r; rounding can tie the
            # products of adjacent radii, and such a tie is settled exactly
            stretch_ok &= val * r > prev_val * prev_r or _exact_product_gt(val, r, prev_val, prev_r)
        prev_val, prev_r = val, r
    slope_ok = not max_slope > slope_budget
    ok = range_ok and monotone_ok and slope_ok and flat_ok and floor_ok and stretch_ok
    return (ok,
            f"range {range_ok}, monotone {monotone_ok}, slope {slope_ok} "
            f"(max {max_slope!r} vs budget {slope_budget!r}), flat disc {flat_ok}, "
            f"floor tail {floor_ok}, radius stretch strictly increasing {stretch_ok}",
            {"samples": len(radii), "max_abs_log_slope": max_slope,
             "slope_budget": slope_budget, "range_ok": range_ok,
             "monotone_ok": monotone_ok, "flat_ok": flat_ok,
             "floor_ok": floor_ok, "stretch_ok": stretch_ok})


def _unsampled(bundle: CounterexampleBundle):
    r_tail, cap = bundle.profile.r_tail, SweepConfig.tail_r_max
    return (False, f"profile tail radius {r_tail!r} is beyond the tail sampling cap {cap!r}, "
            "so nothing was sampled", {"tail_radius": r_tail, "cap": cap, "samples": 0})


# the six claims in report order: (name, check, samples_to_reach); every check
# maps a bundle to (passed, detail, data), and one that samples out to the
# bundle's reach fails unsampled on a bundle with no reach
_CHECKS = (
    ("origin-fixed", _check_origin_fixed, False),
    ("spectral-radius-bound", _check_sr_bound, True),
    ("tail-contraction", _check_tail_contraction, True),
    ("radial-orientation", _check_orientation, True),
    ("period-4-orbit", _check_periodic_orbit, False),
    ("profile-envelope", _check_envelope, True),
)


def verify_counterexample(bundle: CounterexampleBundle) -> VerificationReport:
    """Re-check the six claims of ``_CHECKS`` about a built bundle by sampling.

    The orbit check recomputes closure, multipliers and hyperbolicity of the
    build's stored orbit; it is the check the build's orbit already passed.
    Failures are verdicts in the report, never exceptions, so a deliberately
    broken bundle, or one whose spectral sweep overflows, yields a failing
    report rather than a crash.  A bundle with no reach fails the four checks
    that sample out to it unsampled (``samples: 0``).
    """
    unreached = bundle.reach is None
    return VerificationReport(bundle, tuple(
        CheckRecord(name, *(_unsampled if to_reach and unreached else check)(bundle))
        for name, check, to_reach in _CHECKS))
