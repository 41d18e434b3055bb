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

The composite sweep skips far rings by a proved bound.  Write DF = (k/d^2) M
for the cubic's Jacobian, d = 1 + x^2 + y^2, Fr = ||M||_F^2 and D = det M.
In A = x^2 and B = y^2, Q = (9/2) d^4 - Fr has positive coefficients, and
P = (81/4) d^8 - 9 d^4 Fr + 4 D^2 has positive coefficients in each of its
homogeneous parts of degree 0 to 7 and the degree-8 part
(9/4) (A - B)^2 (A + B)^4 (5A^2 + 6AB + 5B^2) >= 0 (tests/test_counterexample.py
expands both exactly).  So s = 9 d^4 / 4 lies past the vertex Fr/2 of
t^2 - Fr t + D^2, whose roots are M's squared singular values, and the
quadratic is positive there: ||M|| < 3 d^2 / 2, ||DF|| < 3k/2 and
||DG_a|| < 3k/2 + a everywhere.  The bound is tight far out on the diagonal.
The radial factor at q = G_a(p) is phi I + l u u^T with l = phi'(|q|) |q| in
[-eps/8, 0]; its norm is phi(|q|), since eps/8 < floor <= phi.  On the ring
|p| = r, x^6 + y^6 >= r^6 / 4 gives |F(p)| >= k r^3 / (2 (1 + r^2)), so
|q| >= q_lo(r) = k r^3 / (2 (1 + r^2)) - a r, and phi is nonincreasing:
rho(Df(p)) <= ||Df(p)|| <= phi(q_lo(r)) (3k/2 + a).

``_ring_bound`` states this in floats, and only where the proof's premises
hold: for a ``CompositeMap(RadialMap, DampedSzlenkMap)``, by exact type,
whose profile and damped map are the records their own (R, C, eps) and
(k, a) build (so phi has its proved shape, with eps/8 < floor/32 and a floor
above 1/47, and 1 < k, 0 < a), and on rings with 1 <= r <= 2^200, where every
kernel product is finite and an underflow's absolute error is far below the
slack.  The k r^3 term of q_lo is scaled by 1 - 2^-40 and the a r term by
1 + 2^-40, which covers a sample's radius lying a few ulps off r and the
rounding of q_lo and of the kernel's |q|; 3k/2 + a is scaled by 1 + 2^-40,
which covers phi's rounding (a few ulps, absolute, against phi >= floor) and
the kernels' and the product's.  Left over is ``_radius``'s own error, a
relative ~2e-8 near a double root, which ``PRETEST_MARGIN`` covers as it does
for ``spectral._pretest``: a ring whose bound lies below the running sup times
the margin holds no sample that reaches the sup, so the sweep counts it and
evaluates none of it.  At the paper's parameters 133 of the 400 rings are
skipped.
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
from .spectral import (PRETEST_MARGIN, _growth, _half_grid, _jacobian_sups, _lerps, _log_radii,
                       _norm, _radius, _ring_points, _rings, _sweep_sup)

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
    axis = _lerps(-hw, hw, g)
    grid = _half_grid(axis, axis)
    rings = _ring_points(_log_radii(1e-2, SweepConfig.norm_r_max, SweepConfig.norm_radii),
                         SweepConfig.norm_angles)
    (sup_norm, _, _), (sup_sr, _, _) = _jacobian_sups(chain([(0.0, 0.0)], grid, rings),
                                                      damped.jac, (_norm, _radius), 0.0)
    return sup_norm, sup_sr


# relative slack of the ring bound for rounding in q_lo, phi and the kernels
_RING_SLACK = 2.0 ** -40


def _rebuilds(rec) -> bool:
    """True when ``rec`` is the record its own arguments build: a record
    tampered past its constructor's checks is not."""
    try:
        return replace(rec) == rec
    except ParameterError:
        return False


def _ring_bound(m: PlanarMap):
    """r -> a bound on every float ``_radius(*m.jac(p))`` on the ring |p| = r,
    up to the rounding of ``_radius`` that ``PRETEST_MARGIN`` covers, or +inf
    where none is proved: off radial o damped maps whose records their own
    parameters build, and off 1 <= r <= 2**200.  On the ring, |G_a(p)| >= q_lo(r) and the bound is
    phi(q_lo(r)) (3k/2 + a), each with its slack (the module docstring)."""
    if not (type(m) is CompositeMap and type(m.outer) is RadialMap
            and type(m.inner) is DampedSzlenkMap
            and _rebuilds(m.outer.profile) and _rebuilds(m.inner)):
        return lambda r: math.inf
    prof, k, a = m.outer.profile, m.inner.k, m.inner.a
    c = (1.5 * k + a) * (1.0 + _RING_SLACK)

    def bound(r):
        if not 1.0 <= r <= 2.0 ** 200:
            return math.inf
        q_lo = (k * r * r * r / (2.0 * (1.0 + r * r)) * (1.0 - _RING_SLACK)
                - a * r * (1.0 + _RING_SLACK))
        return _phi_parts(prof, max(q_lo, 0.0), False) * c
    return bound


def _composite_sr_sweep(m: PlanarMap, flat_radius: float, reach: float):
    """Max sampled spectral radius of the composed map's Jacobian, where it
    is attained, and the sample count, over the origin and rings between log
    radii from far inside the flat disc out to the reach: midpoints of a
    one-point-longer log grid, with the angles offset by half a step.

    Sup, witness and count are ``_sweep_sup``'s over every sample, bit for
    bit, but a ring whose ``_ring_bound`` lies below the running sup times
    ``PRETEST_MARGIN`` is counted and not evaluated: no sample on it can
    reach the sup (the module docstring proves the bound).  Each other ring
    is one ``_jacobian_sups`` pass from the running sup, whose pre-test is
    the one a single pass would hold there."""
    radii = _log_radii(flat_radius * 1e-6, reach, SweepConfig.sr_radii, 0.5)
    bound = _ring_bound(m)
    sup, at, count = _jacobian_sups([(0.0, 0.0)], m.jac, (_radius,))[0]
    for r, ring in zip(radii, _rings(radii, SweepConfig.sr_angles, 0.5)):
        if not bound(r) < sup * PRETEST_MARGIN:
            ring_sup, ring_at, _ = _jacobian_sups(ring, m.jac, (_radius,), sup)[0]
            if ring_at is not None:
                sup, at = ring_sup, ring_at
        count += len(ring)
    return sup, at, count


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
    R, floor, r_tail = prof.R, prof.floor, prof.r_tail
    slope_budget = prof.eps / 8.0
    # the log grid, the origin, the reach exactly, the knot walk's knots R,
    # R e^ramp and R e^m_target, and the tail radius
    knots = (R, R * math.exp(prof.ramp), R * math.exp(prof.m_target), r_tail)
    radii = sorted({0.0, *knots, reach, *_log_radii(R * 1e-3, reach, SweepConfig.phi_samples)})
    max_slope = 0.0
    range_ok = monotone_ok = flat_ok = floor_ok = stretch_ok = True
    prev_val, prev_r = math.inf, 0.0
    for r in radii:
        val, ls = _phi_parts(prof, r)
        if abs(ls) > max_slope:
            max_slope = abs(ls)
        if not floor <= val <= 1.0:
            range_ok = False
        if val > prev_val:
            monotone_ok = False
        if r <= R and val != 1.0:
            flat_ok = False
        if r >= r_tail and val != floor:
            floor_ok = False
        # the radial map sends radius r to val * r; rounding can tie the
        # products of adjacent radii, and such a tie is settled exactly
        if prev_r > 0.0 and not val * r > prev_val * prev_r:
            stretch_ok &= _exact_product_gt(val, r, prev_val, prev_r)
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
