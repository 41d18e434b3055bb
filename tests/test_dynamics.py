import math
import os
import random
import struct
from collections import deque

import pytest
from hypothesis import assume, given, settings, strategies as st

from dmy import (BasinGrid, ConvergenceError, DampedSzlenkMap, DissipativitySampling,
                 LinearMap, Mat2, NewtonConfig, NumericOverflowError, OmegaConfig,
                 OmegaTag, ParameterError, PlanarMap, Point2, SingularSystemError,
                 SzlenkMap, basin_raster, classify_omega, dissipativity_bound,
                 find_periodic, orbit_multipliers, resolve_workers,
                 verify_invariant_ray)
from dmy import dynamics, eig2
from dmy.counterexample import SweepConfig
from dmy.dynamics import OmegaVerdict

_ID = Mat2(1.0, 0.0, 0.0, 1.0)


def _diag(d1, d2):
    return Mat2(d1, 0.0, 0.0, d2)


CONTRACT = LinearMap(_diag(0.5, 0.3))
SZLENK = SzlenkMap(1.01)


class TranslationMap(PlanarMap):
    """f(p) = p + (1, 0): Jacobian is the identity, so Df^n - I is singular."""

    def xy(self, x, y):
        return x + 1.0, y

    def jac(self, x, y):
        return 1.0, 0.0, 0.0, 1.0

    def describe(self):
        return "translate(1,0)"


class ScriptMap(PlanarMap):
    """Sends each scripted point to the next one and everything else far
    past the escape radius, so an orbit from the first point is the script."""

    def __init__(self, *xs):
        pts = [(x, 0.0) for x in xs]
        self._next = dict(zip(pts, pts[1:]))

    def xy(self, x, y):
        return self._next.get((x, y), (1e10, 0.0))

    def jac(self, x, y):
        return 1.0, 0.0, 0.0, 1.0

    def describe(self):
        return "script"


# ---------------------------------------------------------------- classify


def test_classify_contraction_converges():
    v = classify_omega(CONTRACT, Point2(7.0, -3.0))
    assert v.tag is OmegaTag.CONVERGES_TO_ORIGIN
    assert v.final_norm <= 1e-9
    assert v.period is None and v.representative is None


def test_classify_random_contraction_seeds_all_converge():
    rng = random.Random(7)
    for _ in range(100):
        p = Point2(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        assert classify_omega(CONTRACT, p).tag is OmegaTag.CONVERGES_TO_ORIGIN


def test_classify_starts_at_origin():
    v = classify_omega(CONTRACT, Point2(0.0, 0.0))
    assert v.tag is OmegaTag.CONVERGES_TO_ORIGIN
    assert v.final_norm == 0.0


def test_classify_cubic_axis_cycle():
    v = classify_omega(SZLENK, Point2(10.0, 0.0))
    assert v.tag is OmegaTag.PERIODIC
    assert v.period == 4
    assert v.iterations == 4  # the revisit happens on the fourth step exactly
    assert v.representative is not None
    assert v.representative.norm() == pytest.approx(10.0, abs=1e-9)


def test_classify_cubic_escape_frozen():
    v = classify_omega(SZLENK, Point2(20.0, 0.0))
    assert v.tag is OmegaTag.ESCAPING
    assert v.iterations == 1797
    assert v.final_norm == pytest.approx(1007237182.6141621, rel=1e-12)
    assert v.final_norm > 1e9


def test_classify_budget_monotone():
    # the same slow orbit is undecided on a small budget, escaping on a larger one
    p = Point2(20.0, 0.0)
    small = classify_omega(SZLENK, p, OmegaConfig(max_iter=100))
    assert small.tag is OmegaTag.UNDECIDED
    assert small.iterations == 100
    big = classify_omega(SZLENK, p, OmegaConfig(max_iter=2000))
    assert big.tag is OmegaTag.ESCAPING


def test_classify_seed_outside_escape_radius():
    v = classify_omega(CONTRACT, Point2(2e9, 0.0))
    assert v.tag is OmegaTag.ESCAPING
    assert v.iterations == 0


def test_classify_overflowing_orbit_escapes():
    grow = LinearMap(_diag(1e200, 1e200))
    v = classify_omega(grow, Point2(1.0, 0.0), OmegaConfig(escape_radius=1e300))
    assert v.tag is OmegaTag.ESCAPING


def test_classify_step_that_raises_escapes(bundle):
    # the damped step from (1e160, 0) gives (-5.05e157, nan), since d
    # overflows, and the radial factor refuses the NaN radius with
    # ParameterError: the raw step raises, and the point escapes at step 1
    v = classify_omega(bundle.composite, Point2(1e160, 0.0), OmegaConfig(escape_radius=1e300))
    assert (v.tag, v.iterations, v.final_norm) == (OmegaTag.ESCAPING, 1, math.inf)


def test_omega_config_validation():
    with pytest.raises(ParameterError):
        OmegaConfig(max_iter=0)
    with pytest.raises(ParameterError):
        OmegaConfig(window=0)
    with pytest.raises(ParameterError):
        OmegaConfig(origin_tol=-1.0)
    with pytest.raises(ParameterError):
        OmegaConfig(escape_radius=0.0)
    with pytest.raises(ParameterError):
        OmegaConfig(cycle_rel_tol=float("inf"))


def test_omega_config_window_cap():
    assert OmegaConfig(window=4096).window == 4096
    with pytest.raises(ParameterError, match="cap"):
        OmegaConfig(window=4097)
    with pytest.raises(ParameterError, match="cap"):
        OmegaConfig(window=100_000_000, max_iter=100_000_000)


def test_classify_composite_cycle_frozen(bundle):
    # cell (4, 0) of the L=15 16x16 raster: x = -15 + 9 * 15/16, y = 15 - 15/16
    v = classify_omega(bundle.composite, Point2(-6.5625, 14.0625))
    assert v.tag is OmegaTag.PERIODIC
    assert v.period == 4
    assert v.iterations == 2249
    assert v.final_norm == 156.93426788712395
    assert (v.representative.x, v.representative.y) == (-156.93234445790634, -0.77698147508196)


def _classify_by_lag_scan(m, p, cfg):
    """Reference classifier: tests every lag of the tail, newest first."""
    step = m.xy
    x, y = p.x, p.y
    nn = math.hypot(x, y)
    if not (nn <= cfg.escape_radius):
        return OmegaVerdict(OmegaTag.ESCAPING, 0, nn)
    tail = deque(maxlen=cfg.window)
    tail.append((x, y, nn))
    origin_run = 1 if nn <= cfg.origin_tol else 0
    tol = cfg.cycle_rel_tol
    for i in range(1, cfg.max_iter + 1):
        try:
            x, y = step(x, y)
        except (ArithmeticError, ValueError):
            return OmegaVerdict(OmegaTag.ESCAPING, i, math.inf)
        nn = math.hypot(x, y)
        if not (nn <= cfg.escape_radius):
            return OmegaVerdict(OmegaTag.ESCAPING, i, nn if math.isfinite(nn) else math.inf)
        if nn <= cfg.origin_tol:
            origin_run += 1
            if origin_run >= cfg.window:
                return OmegaVerdict(OmegaTag.CONVERGES_TO_ORIGIN, i, nn)
        else:
            origin_run = 0
            for lag in range(1, len(tail) + 1):
                bx, by, bn = tail[-lag]
                scale = nn if nn >= bn else bn
                if abs(nn - bn) > tol * scale:
                    continue
                if math.hypot(x - bx, y - by) <= tol * scale:
                    return OmegaVerdict(OmegaTag.PERIODIC, i, nn, lag, Point2(x, y))
        tail.append((x, y, nn))
    return OmegaVerdict(OmegaTag.UNDECIDED, cfg.max_iter, nn)


def _verdict_key(v):
    rep = None if v.representative is None else (v.representative.x, v.representative.y)
    return v.tag, v.iterations, v.period, v.final_norm, rep


def _assert_same_as_lag_scan(m, p, cfg):
    assert _verdict_key(classify_omega(m, p, cfg)) == _verdict_key(_classify_by_lag_scan(m, p, cfg))


@pytest.mark.parametrize("xs", [(10.0, 1.0, 1.19, 1.09), (10.0, 1.19, 1.0, 1.09)])
def test_classify_smallest_of_two_matching_lags_wins(xs):
    # 1.09 revisits both 1.0 and 1.19 within 10%, which do not revisit each
    # other; the newer one is the higher norm in one script, the lower in the other
    m, cfg = ScriptMap(*xs), OmegaConfig(cycle_rel_tol=0.1)
    v = classify_omega(m, Point2(xs[0], 0.0), cfg)
    assert (v.tag, v.iterations, v.period) == (OmegaTag.PERIODIC, 3, 1)
    _assert_same_as_lag_scan(m, Point2(xs[0], 0.0), cfg)


@pytest.mark.parametrize("b, n, tol", [(1.412212029078202, 1.7652650363477527, 0.2),
                                        (1.8035934850933664, 1.713413810838698, 0.05)])
def test_classify_revisit_at_rounding_edge_of_norm_band(b, n, tol):
    # the old norm b lies a hair outside [n * (1 - tol), n * (1 / (1 - tol))],
    # yet the revisit test passes in floating point, so the band needs its margin
    assert b < n * (1.0 - tol) or b > n * (1.0 / (1.0 - tol))
    m, cfg = ScriptMap(b, n), OmegaConfig(cycle_rel_tol=tol)
    v = classify_omega(m, Point2(b, 0.0), cfg)
    assert (v.tag, v.iterations, v.period) == (OmegaTag.PERIODIC, 1, 1)
    _assert_same_as_lag_scan(m, Point2(b, 0.0), cfg)


@pytest.mark.parametrize("angle", [math.pi, math.pi / 2, 2 * math.pi / 5, 1.0])
@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-7, 1.0 - 1e-7])
def test_classify_matches_lag_scan_on_rotations(angle, scale):
    # every tail norm is (nearly) equal, so the whole window lies in the norm band
    c, s = scale * math.cos(angle), scale * math.sin(angle)
    m = LinearMap(Mat2(c, -s, s, c))
    rng = random.Random(f"{angle}:{scale}")
    for window in (1, 3, 64):
        for tol in (1e-7, 0.3, 0.6, 0.9, 5.0):
            p = Point2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            _assert_same_as_lag_scan(m, p, OmegaConfig(max_iter=300, window=window,
                                                       cycle_rel_tol=tol))


@pytest.mark.parametrize("m", [
    LinearMap(Mat2(1.02 * math.cos(1.0), -1.02 * math.sin(1.0),
                   1.02 * math.sin(1.0), 1.02 * math.cos(1.0))),
    LinearMap(Mat2(0.98 * math.cos(1.0), -0.98 * math.sin(1.0),
                   0.98 * math.sin(1.0), 0.98 * math.cos(1.0))),
    LinearMap(_diag(1.5, 1.5)),
], ids=["rotate-grow", "rotate-decay", "diagonal-grow"])
@pytest.mark.parametrize("window", [1, 2, 4096])
def test_classify_matches_lag_scan_on_runaway_and_decaying_orbits(m, window):
    # at small tolerances each new norm leaves the tail's norm range, so the
    # band search is skipped
    rng = random.Random(window)
    for tol in (1e-7, 0.01, 0.3, 0.9):
        for _ in range(2):
            p = Point2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            _assert_same_as_lag_scan(m, p, OmegaConfig(max_iter=1500, window=window,
                                                       cycle_rel_tol=tol))


@pytest.mark.parametrize("xs", [(3.0, -3.0, 3.0), (3.0, -3.0, 1.0, 3.0), (3.0, -3.0, 2.0, -3.0),
                                (5.0, 3.0, -3.0, 1.0, -3.0)])
@pytest.mark.parametrize("window", [1, 2, 3, 4096])
def test_classify_matches_lag_scan_on_equal_norms(xs, window):
    # distinct points with exactly equal norms, some inserted below a larger
    # norm: evicting the wrong one of a tie either hides a revisit inside the
    # window or lets one older than the window count as a cycle
    m = ScriptMap(*xs)
    for tol in (1e-7, 0.3):
        _assert_same_as_lag_scan(m, Point2(xs[0], 0.0),
                                 OmegaConfig(max_iter=40, window=window, cycle_rel_tol=tol))


def test_classify_matches_lag_scan_on_random_starts(bundle):
    rng = random.Random(11)
    for m, half_width in ((SZLENK, 30.0), (bundle.composite, 15.0)):
        for cfg in (OmegaConfig(), OmegaConfig(window=3, cycle_rel_tol=0.3)):
            for _ in range(6):
                p = Point2(rng.uniform(-half_width, half_width),
                           rng.uniform(-half_width, half_width))
                _assert_same_as_lag_scan(m, p, cfg)


def _script(start, *legs):
    """Points on the x-axis from `start`, each leg (factors, steps) taking
    `steps` steps that multiply by the factors in turn."""
    xs = [start]
    for factors, steps in legs:
        for k in range(steps):
            xs.append(xs[-1] * factors[k % len(factors)])
    return xs


def _assert_window_edge(xs, window):
    # revisiting the point `window` iterates back is a cycle of that period;
    # one iterate further back it has left the window
    cfg = OmegaConfig(max_iter=3 * len(xs), window=window)
    p = Point2(xs[0], 0.0)
    inside = ScriptMap(*xs, xs[-window])
    v = classify_omega(inside, p, cfg)
    assert (v.tag, v.iterations, v.period) == (OmegaTag.PERIODIC, len(xs), window)
    _assert_same_as_lag_scan(inside, p, cfg)
    outside = ScriptMap(*xs, xs[-window - 1])
    assert classify_omega(outside, p, cfg).tag is not OmegaTag.PERIODIC
    _assert_same_as_lag_scan(outside, p, cfg)


@pytest.mark.parametrize("window", [1, 2, 3, 64])
@pytest.mark.parametrize("start, factor", [(1.0, 1.25), (100.0, 0.8)], ids=["rising", "falling"])
def test_classify_revisit_at_the_window_edge_after_a_monotone_run(window, start, factor):
    # each norm lies band-above (band-below) the last for longer than the window
    _assert_window_edge(_script(start, ((factor,), window + 5)), window)


@pytest.mark.parametrize("window", [1, 2, 3, 64])
def test_classify_revisit_after_leaving_and_reentering_runs(window):
    # a rising run, a zigzag that breaks it, a rising run again, a falling run
    # mirrored through the origin (its norms retrace the rising ones, so the
    # band search finds candidates that are not revisits), and a last zigzag
    n = window + 3
    xs = _script(1.0, ((1.1,), n), ((1.5, 0.7), 5), ((1.1,), n), ((-0.9,), 1),
                 ((0.9,), n), ((1.5, 0.7), 4))
    assert len(set(xs)) == len(xs)
    _assert_window_edge(xs, window)


@pytest.mark.parametrize("window", [1, 2, 3, 64])
@pytest.mark.parametrize("factor, starts, out", [(1.5, (1e-12, 5e-10), 1.5),
                                                 (0.5, (1e-6, 3e-9), 1.3)],
                         ids=["rising-out-of-the-ball", "falling-into-the-ball"])
def test_classify_origin_ball_on_a_monotone_run(window, factor, starts, out):
    # a monotone run that leaves the origin ball (from 1e-12 in fewer than 64
    # iterates) must restart the ball count, and one that enters it must count
    # from there; each scripted orbit runs the map's way, then climbs out at
    # `out` per step and revisits the point `window` iterates back, a cycle
    # the band search finds only once the ball count is reset
    m = LinearMap(_diag(factor, factor))
    for x0 in starts:
        script = _script(x0, ((factor,), 12), ((out,), window + 20))
        for tol in (1e-7, 0.1):
            cfg = OmegaConfig(max_iter=300, window=window, cycle_rel_tol=tol)
            _assert_same_as_lag_scan(m, Point2(x0, 0.0), cfg)
            _assert_same_as_lag_scan(m, Point2(-x0 * 0.6, x0 * 0.8), cfg)
            _assert_same_as_lag_scan(ScriptMap(*script, script[-window]), Point2(x0, 0.0), cfg)


@pytest.mark.parametrize("p", [(200.0, 0.0), (0.0, -300.0), (-250.0, 170.0), (1000.0, -20.0)])
def test_classify_composite_orbits_falling_onto_the_cycle(bundle, p):
    # starts beyond the attracting cycle at radius 156.93 fall onto it
    m = bundle.composite
    v = classify_omega(m, Point2(*p))
    assert (v.tag, v.period) == (OmegaTag.PERIODIC, 4)
    assert v.final_norm == pytest.approx(156.935, abs=2e-3)
    for cfg in (OmegaConfig(), OmegaConfig(window=3, cycle_rel_tol=0.3)):
        _assert_same_as_lag_scan(m, Point2(*p), cfg)


# ------------------------------------------------------------ find_periodic


def test_newton_fixed_point_of_contraction_is_origin():
    orb = find_periodic(LinearMap(_diag(0.5, 0.5)), 1, Point2(1.0, 1.0))
    assert orb.period == 1
    assert orb.points == (Point2(0.0, 0.0),)
    assert orb.residual == 0.0
    assert orb.multipliers[0] == 0.5 and orb.multipliers[1] == 0.5
    assert orb.hyperbolic


def test_newton_cubic_axis_orbit_from_nearby_seed():
    orb = find_periodic(SZLENK, 4, Point2(9.5, 0.1))
    p0 = orb.points[0]
    assert math.hypot(p0.x - 10.0, p0.y) < 1e-8
    assert orb.residual < 1e-10
    mods = sorted((abs(orb.multipliers[0]), abs(orb.multipliers[1])))
    assert mods[0] == 0.0
    assert mods[1] == pytest.approx(1.0815918439522445, rel=1e-12)
    assert orb.hyperbolic


def test_newton_from_exact_cycle_point():
    orb = find_periodic(SZLENK, 4, Point2(10.0, 0.0))
    assert orb.residual == 0.0
    assert orb.points[0] == Point2(10.0, 0.0)
    # chain-rule multiplier equals the fourth power of the axis coupling
    c = 1.01 * 100.0 * 103.0 / 101.0 ** 2
    big = max(abs(orb.multipliers[0]), abs(orb.multipliers[1]))
    assert big == pytest.approx(c ** 4, rel=1e-13)


def test_newton_orbit_closes_under_map():
    orb = find_periodic(SZLENK, 4, Point2(9.5, 0.1))
    back = SZLENK.eval(orb.points[-1])
    gap = math.hypot(back.x - orb.points[0].x, back.y - orb.points[0].y)
    assert gap <= max(orb.residual * 10.0, 1e-14)


def test_newton_singular_system():
    with pytest.raises(SingularSystemError):
        find_periodic(TranslationMap(), 1, Point2(0.0, 0.0))


def test_newton_budget_exhaustion():
    with pytest.raises(ConvergenceError) as exc:
        find_periodic(SZLENK, 4, Point2(9.5, 0.1), NewtonConfig(max_steps=1))
    assert exc.value.last_iterate is not None
    assert exc.value.residual > 0.0


def test_newton_orbit_leaving_the_doubles_is_a_convergence_error():
    # the second iterate of (1e150, 3) overflows, so the search stops before any step
    with pytest.raises(ConvergenceError) as exc:
        find_periodic(SZLENK, 2, Point2(1e150, 3.0))
    assert str(exc.value).startswith("orbit left the doubles during the newton search:")
    assert exc.value.last_iterate == Point2(1e150, 3.0)
    assert exc.value.residual == math.inf


class _FarShiftMap(PlanarMap):
    """f(p) = (1 + 2e-7) p + (1e308, 0): Newton's step from the origin is
    about -1e308 / 2e-7, past the doubles."""

    def xy(self, x, y):
        return (1.0 + 2e-7) * x + 1e308, (1.0 + 2e-7) * y

    def jac(self, x, y):
        return 1.0 + 2e-7, 0.0, 0.0, 1.0 + 2e-7

    def describe(self):
        return "far-shift"


def test_newton_step_leaving_the_doubles_is_a_convergence_error():
    with pytest.raises(ConvergenceError) as exc:
        find_periodic(_FarShiftMap(), 1, Point2(0.0, 0.0))
    assert str(exc.value) == ("newton step diverged: point components must be finite, "
                              "got (-inf, 0.0)")
    assert exc.value.last_iterate == Point2(0.0, 0.0)
    assert exc.value.residual == 1e308


def test_newton_jacobian_overflow_raises():
    # the image of (1e100, 1e100) is finite, but its chain-rule Jacobian is not
    with pytest.raises(NumericOverflowError) as exc:
        find_periodic(SZLENK, 1, Point2(1e100, 1e100))
    assert str(exc.value) == "szlenk(k=1.01) Jacobian overflowed at (1e+100, 1e+100)"


def test_newton_validation():
    with pytest.raises(ParameterError):
        find_periodic(SZLENK, 0, Point2(1.0, 0.0))
    with pytest.raises(ParameterError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ParameterError):
        NewtonConfig(max_steps=0)


def test_orbit_multipliers_cyclic_invariance():
    orb = find_periodic(SZLENK, 4, Point2(9.5, 0.1))
    base = sorted((abs(orb.multipliers[0]), abs(orb.multipliers[1])))
    for shift in range(1, 4):
        rolled = orb.points[shift:] + orb.points[:shift]
        pair = orbit_multipliers(SZLENK, rolled)
        got = sorted((abs(pair[0]), abs(pair[1])))
        for g, b in zip(got, base):
            assert g == pytest.approx(b, abs=1e-8)


def test_orbit_multipliers_empty():
    with pytest.raises(ParameterError):
        orbit_multipliers(SZLENK, ())


def _mat2_chain(m, pts):
    """Reference chain-rule product over Mat2 @, from the identity."""
    jac = _ID
    for p in pts:
        jac = m.jacobian(p) @ jac
    return jac


def _mat2_newton_delta(m, pts, gx, gy):
    a = _mat2_chain(m, pts) - _ID
    det = a.det
    if abs(det) < 1e-14:
        raise SingularSystemError(
            f"newton system for {m.describe()} is singular (|det| = {abs(det)!r})")
    return ((-gx * a.a22 + gy * a.a12) / det,
            (-gy * a.a11 + gx * a.a21) / det)


def _mat2_find_periodic(m, n, seed, cfg=None):
    """Reference Newton search on Mat2 products: (points, residual,
    multipliers), or it raises."""
    cfg = cfg or NewtonConfig()
    x = seed
    res = math.inf
    for attempt in range(cfg.max_steps + 1):
        pts, cur = [], x
        for _ in range(n):
            pts.append(cur)
            cur = m.eval(cur)
        gx, gy = cur.x - x.x, cur.y - x.y
        res = math.hypot(gx, gy)
        if res < cfg.tol:
            return tuple(pts), res, eig2(_mat2_chain(m, pts))
        if attempt == cfg.max_steps:
            break
        dx, dy = _mat2_newton_delta(m, pts, gx, gy)
        x = Point2(x.x + dx, x.y + dy)
    raise ConvergenceError(
        f"newton did not close a period-{n} orbit of {m.describe()} in "
        f"{cfg.max_steps} steps (last residual {res!r})",
        last_iterate=x, residual=res)


def _bits(*values):
    out = []
    for v in values:
        for f in ((v.real, v.imag) if isinstance(v, complex) else (v,)):
            out.append(struct.pack("<d", f))
    return out


def _outcome(search, *args):
    try:
        pts, res, mults = search(*args)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        last = getattr(exc, "last_iterate", None)
        return (type(exc), str(exc), last and _bits(last.x, last.y),
                _bits(getattr(exc, "residual", None) or 0.0))
    return (_bits(*(c for p in pts for c in (p.x, p.y))), _bits(res),
            _bits(mults[0], mults[1]))


def _float_search(*args):
    orb = find_periodic(*args)
    return orb.points, orb.residual, orb.multipliers


def test_find_periodic_is_bit_identical_to_mat2_newton(bundle):
    cases = [(SZLENK, 4, Point2(9.5, 0.1)), (SZLENK, 4, Point2(10.0, 0.0)),
             (DampedSzlenkMap(1.01, 0.005), 4, Point2(9.5, 0.1)),
             (bundle.composite, 4, Point2(bundle.flat_radius / 2.0, 0.0), SweepConfig.newton),
             (TranslationMap(), 1, Point2(0.0, 0.0)),
             (SZLENK, 4, Point2(9.5, 0.1), NewtonConfig(max_steps=1)),
             (bundle.composite, 4, Point2(3.0, 1.0), NewtonConfig(max_steps=3))]
    for args in cases:
        want = _outcome(_mat2_find_periodic, *args)
        assert _outcome(_float_search, *args) == want, args[0].describe()
    assert _outcome(_float_search, *cases[4])[0] is SingularSystemError
    assert _outcome(_float_search, *cases[5])[0] is ConvergenceError
    # the chain itself, from the identity, down to the sign of a zero entry
    flip = LinearMap(Mat2(-0.0, 1.0, 0.0, -0.0))
    for m, pts in ((flip, [Point2(1.0, 0.0)]), (flip, [Point2(-0.0, 2.0)] * 3),
                   (SZLENK, [Point2(10.0, 0.0), Point2(-0.0, 10.0)]),
                   (bundle.composite, list(bundle.orbit))):
        want = _mat2_chain(m, pts)
        got = dynamics._chain_jacobian(m, pts)
        assert _bits(*got) == _bits(want.a11, want.a12, want.a21, want.a22)


# ------------------------------------------------------------ dissipativity


def test_dissipativity_expanding_map_exact_values():
    b = dissipativity_bound(LinearMap(_diag(2.0, 2.0)), 20.0, 0.5)
    assert b.norm_sup == 2.0
    assert b.norm_sup_used == 2.0
    assert b.threshold_radius == 120.0
    assert b.contraction_factor == 0.75
    # a doubling map satisfies neither sampled inequality
    assert not b.hypothesis_ok and b.hypothesis_max_ratio == pytest.approx(2.0, rel=1e-12)
    assert not b.contraction_ok and b.contraction_max_ratio == pytest.approx(2.0, rel=1e-12)
    assert b.hypothesis_worst_at is not None and b.contraction_worst_at is not None
    assert not b.passed
    assert b.samples > 0


def test_dissipativity_contraction_passes_with_norm_floor():
    b = dissipativity_bound(LinearMap(_diag(0.5, 0.5)), 1.0, 0.6)
    assert b.norm_sup == 0.5
    assert b.norm_sup_used == 1.0  # floored so the threshold stays positive
    assert b.threshold_radius == 2.0
    assert b.contraction_factor == pytest.approx(0.8, rel=1e-15)
    assert b.hypothesis_ok and b.contraction_ok and b.passed


def test_dissipativity_validation():
    m = LinearMap(_diag(0.5, 0.5))
    with pytest.raises(ParameterError):
        dissipativity_bound(m, 0.0, 0.5)
    with pytest.raises(ParameterError):
        dissipativity_bound(m, 1.0, 0.0)
    with pytest.raises(ParameterError):
        dissipativity_bound(m, 1.0, 1.0)
    with pytest.raises(ParameterError):
        DissipativitySampling(ball_radii=0)


# --------------------------------------------------------------------- rays


def _x_axis(radius, n):
    return [Point2(i * radius / (n - 1), 0.0) for i in range(n)]


def test_ray_invariant_under_axis_contraction():
    v = verify_invariant_ray(LinearMap(_diag(0.5, 0.5)), _x_axis(100.0, 101), 1e-9)
    assert v.passed
    assert v.max_deviation == 0.0
    assert v.radius_ok
    assert v.max_image_radius == 50.0


def test_ray_broken_by_rotation():
    rot = LinearMap(Mat2(0.0, -1.0, 1.0, 0.0))
    v = verify_invariant_ray(rot, _x_axis(100.0, 101), 1e-9)
    assert not v.passed
    assert v.max_deviation == pytest.approx(100.0, rel=1e-12)
    assert v.worst_index == 100
    assert v.radius_ok  # rotation preserves norms, only the direction breaks


def test_ray_not_invariant_for_counterexample(bundle):
    v = verify_invariant_ray(bundle.composite, _x_axis(15.0, 101), 1e-9)
    assert not v.passed
    assert v.max_deviation == pytest.approx(15.083151069264147, rel=1e-9)


def test_segment_distance_where_the_squares_overflow():
    # vv = 2**1200 overflows while the dot product 2**900 does not: dividing by
    # vv = inf would give t = 0 and the distance to a, 2**300, not 3
    assert dynamics._segment_dist(2.0 ** 300, 3.0, 0.0, 0.0, 2.0 ** 600, 0.0) == 3.0
    # the distance is homogeneous, and the overflow path scales by a power of two
    rng = random.Random(5)
    for _ in range(500):
        c = [rng.uniform(-1e3, 1e3) for _ in range(6)]
        d = dynamics._segment_dist(*c)
        for k in (600, 1010):
            assert dynamics._segment_dist(*(math.ldexp(v, k) for v in c)) == math.ldexp(d, k)


def test_ray_tolerance_is_relative_to_the_sampled_length():
    # the halving map keeps the x axis, yet at radius 1e160 the float samples
    # sit about 1e-17 of the radius off exact multiples of one another
    half = LinearMap(_diag(0.5, 0.5))
    v = verify_invariant_ray(half, _x_axis(1e160, 11), 1e-9)
    assert v.passed and 1e142 < v.max_deviation < 1e-16 * 1e160
    # a quarter turn sends the last sample exactly one ray length off the
    # ray, at every scale, so the verdict does not depend on the scale
    rot = LinearMap(Mat2(0.0, -1.0, 1.0, 0.0))
    for radius in (1e-300, 1e-150, 1.0, 100.0, 1e160, 1e300):
        pts = _x_axis(radius, 11)
        assert verify_invariant_ray(rot, pts, 1.0).passed
        assert not verify_invariant_ray(rot, pts, 0.999).passed
        v = verify_invariant_ray(half, pts, 1e-12)
        assert v.passed, (radius, v)


def test_segment_distance_where_the_squares_underflow():
    # vv = 1e-602 underflows to 0: the distance would fall back to |q - a|,
    # 5e-302, although q lies on the segment
    assert dynamics._segment_dist(5e-302, 0.0, 0.0, 0.0, 1e-301, 0.0) == 0.0
    # the underflow path scales by a power of two, so tiny rays keep the bits
    # of the same ray at an ordinary scale
    rng = random.Random(6)
    for _ in range(500):
        c = [rng.uniform(-1e3, 1e3) for _ in range(6)]
        d = dynamics._segment_dist(*c)
        for k in (-600, -1000):
            assert dynamics._segment_dist(*(math.ldexp(v, k) for v in c)) == math.ldexp(d, k)


def _loop_polyline_dist(q, pts):
    """The reference: every segment measured, in order."""
    best = math.inf
    for a, b in zip(pts, pts[1:]):
        d = dynamics._segment_dist(q.x, q.y, a.x, a.y, b.x, b.y)
        if d < best:
            best = d
    return best


def _loop_ray(m, pts):
    """max_deviation and worst_index as the every-segment loop finds them."""
    worst, worst_idx = -1.0, 0
    for i, p in enumerate(pts):
        d = _loop_polyline_dist(m.eval(p), pts)
        if d > worst:
            worst, worst_idx = d, i
    return worst, worst_idx


@st.composite
def _polylines(draw):
    """Polylines from the origin with increasing radii, straight or bent at
    every sample, scaled by a power of two from the subnormals to near the
    top of the doubles."""
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=60))
    bent = draw(st.booleans())
    angle = draw(st.floats(-math.pi, math.pi))
    k = draw(st.integers(-1070, 1010))
    pts, r = [Point2(0.0, 0.0)], 0.0
    for step in steps:
        r += step
        t = draw(st.floats(-math.pi, math.pi)) if bent else angle
        pts.append(Point2(math.ldexp(r * math.cos(t), k), math.ldexp(r * math.sin(t), k)))
    return pts


_unit = st.floats(-1.5, 1.5)


@settings(max_examples=300, deadline=None)
@given(_polylines(), st.lists(st.tuples(_unit, _unit, st.floats(0.0, 1.0), st.integers(0, 59),
                                        st.integers(-60, 0)), min_size=1, max_size=12))
def test_pruned_polyline_distance_is_the_loop_distance(pts, draws):
    runs = dynamics._segment_runs(pts)
    size = max(max(abs(p.x), abs(p.y)) for p in pts)
    queries = list(pts)
    for u, v, t, j, e in draws:
        a, b = pts[j % (len(pts) - 1)], pts[j % (len(pts) - 1) + 1]
        near = math.ldexp(size, e)
        # anywhere about the polyline, and on or just off one of its segments
        queries.append(Point2(u * size, v * size))
        queries.append(Point2(a.x + t * (b.x - a.x) + u * near, a.y + t * (b.y - a.y) + v * near))
    for q in queries:
        assert dynamics._polyline_dist(q, pts, runs) == _loop_polyline_dist(q, pts)


@settings(max_examples=150, deadline=None)
@given(_polylines(), st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_pruned_ray_check_is_the_loop_check(pts, entries):
    radii = [p.norm() for p in pts]
    assume(all(b > a for a, b in zip(radii, radii[1:])))
    m = LinearMap(Mat2(*entries))
    v = verify_invariant_ray(m, pts, 1e-9)
    assert (v.max_deviation, v.worst_index) == _loop_ray(m, pts)


@pytest.mark.parametrize("radius", [1e160, 4e-121, 100.0])
def test_pruned_ray_check_at_the_readme_scales(radius):
    # the halving map's images sit rounding steps off the ray, and the
    # quarter turn's a whole ray length
    pts = _x_axis(radius, 301)
    for m in (LinearMap(_diag(0.5, 0.5)), LinearMap(Mat2(0.0, -1.0, 1.0, 0.0))):
        v = verify_invariant_ray(m, pts, 1e-9)
        assert (v.max_deviation, v.worst_index) == _loop_ray(m, pts)


def test_ray_check_measures_few_segments(monkeypatch):
    # images off the ray (the damped cubic turns the x axis) and on it: each
    # image is measured against about one run of segments, not all 1,000
    calls = [0]
    segment_dist = dynamics._segment_dist

    def counting(*args):
        calls[0] += 1
        return segment_dist(*args)

    monkeypatch.setattr(dynamics, "_segment_dist", counting)
    for m in (DampedSzlenkMap(1.01, 0.005), LinearMap(_diag(0.5, 0.5))):
        calls[0] = 0
        verify_invariant_ray(m, _x_axis(100.0, 1001), 1e-9)
        assert calls[0] < 1001 * 100


def test_ray_image_overflow_fails_the_check():
    # the first image past the doubles ends the check at its sample index
    big = LinearMap(_diag(1e300, 1e300))
    v = verify_invariant_ray(big, [Point2(0.0, 0.0), Point2(1e10, 0.0), Point2(2e10, 0.0)], 1e-9)
    assert (v.passed, v.max_deviation, v.worst_index) == (False, math.inf, 1)
    assert (v.radius_ok, v.max_image_radius, v.max_sample_radius) == (False, math.inf, 2e10)


def test_ray_validation():
    m = LinearMap(_diag(0.5, 0.5))
    with pytest.raises(ParameterError):
        verify_invariant_ray(m, [Point2(0.0, 0.0)], 1e-9)
    with pytest.raises(ParameterError):
        verify_invariant_ray(m, [Point2(1.0, 0.0), Point2(2.0, 0.0)], 1e-9)
    with pytest.raises(ParameterError):
        verify_invariant_ray(m, [Point2(0.0, 0.0), Point2(2.0, 0.0), Point2(1.0, 0.0)], 1e-9)
    with pytest.raises(ParameterError):
        verify_invariant_ray(m, _x_axis(1.0, 3), -1.0)


# ------------------------------------------------------------------- basins


def test_basin_contraction_all_origin():
    g = basin_raster(CONTRACT, 10.0, 8, 8)
    assert g.counts() == (64, 0, 0, 0)
    assert set(g.codes) == {0}


def test_basin_cubic_window_frozen_counts():
    g = basin_raster(SZLENK, 30.0, 16, 16)
    assert g.counts() == (80, 0, 176, 0)
    assert sum(g.counts()) == 256


def test_basin_serial_and_parallel_agree():
    m = LinearMap(_diag(0.5, 0.5))
    serial = basin_raster(m, 10.0, 80, 80, workers=1)
    parallel = basin_raster(m, 10.0, 80, 80, workers=4)
    assert serial.codes == parallel.codes
    assert serial.counts() == (6400, 0, 0, 0)


def test_basin_serial_and_pooled_composite_agree(bundle, monkeypatch):
    # more cells than the serial limit, so two workers really fork and each
    # rebuilds the composite's step closure from the pickled map
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    omega = OmegaConfig(max_iter=500)
    serial = basin_raster(bundle.composite, 15.0, 72, 72, omega, workers=1)
    pooled = basin_raster(bundle.composite, 15.0, 72, 72, omega, workers=2)
    assert serial.codes == pooled.codes
    assert len(set(serial.codes)) > 1


def test_basin_grid_validation():
    with pytest.raises(ParameterError):
        BasinGrid(half_width=0.0, width=2, height=2, codes=b"\x00" * 4)
    with pytest.raises(ParameterError):
        BasinGrid(half_width=1.0, width=2, height=2, codes=b"\x00" * 3)
    with pytest.raises(ParameterError):
        BasinGrid(half_width=1.0, width=0, height=2, codes=b"")
    with pytest.raises(ParameterError):
        basin_raster(CONTRACT, 10.0, 1, 8)
    with pytest.raises(ParameterError):
        basin_raster(CONTRACT, -1.0, 8, 8)
    with pytest.raises(ParameterError):
        basin_raster(CONTRACT, 10.0, 8, 8, workers=0)
    # the cell cap, which the CLI's grid parser enforces before it is reached
    with pytest.raises(ParameterError, match=r"^raster has 16785409 cells, more than the "
                                             r"16777216 \(4096x4096\) cap$"):
        basin_raster(SZLENK, 1.0, 4097, 4097)


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 16)
    assert resolve_workers(3) == 3
    assert resolve_workers() >= 1
    with pytest.raises(ParameterError):
        resolve_workers(0)
    # the request alone sizes the pool: the environment is not read
    for raw in ("junk", "1"):
        monkeypatch.setenv("DMY_THREADS", raw)
        assert resolve_workers(2) == 2


def test_resolve_workers_clamps_to_cpu_count(monkeypatch):
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 4)
    assert resolve_workers(64) == 4
    assert resolve_workers() == 4
    assert resolve_workers(3) == 3


def test_cpu_count_is_the_affinity_set(monkeypatch):
    # pinned to one CPU of two: one worker, whatever was asked
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_workers() == 1 and resolve_workers(8) == 1
    # without an affinity call the CPU count decides, and unknown counts as one
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_workers(8) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers(64) == 1


# ------------------------------------------------------ antipodal basin cells


_CODE = {OmegaTag.CONVERGES_TO_ORIGIN: 0, OmegaTag.PERIODIC: 1,
         OmegaTag.ESCAPING: 2, OmegaTag.UNDECIDED: 3}


def _classify_every_cell(m, L, width, height, omega=None):
    """The raster by definition: every cell center classified on its own."""
    out = bytearray()
    for r in range(height):
        y = L - (2 * r + 1) * L / height
        for i in range(width):
            x = -L + (2 * i + 1) * L / width
            out.append(_CODE[classify_omega(m, Point2(x, y), omega).tag])
    return bytes(out)


def test_classify_at_minus_p_mirrors_classify_at_p(bundle):
    rotation = LinearMap(Mat2(0.0, -1.0, 1.0, 0.0))
    cases = [(bundle.composite, (9.0, 1.5)), (bundle.composite, (-14.0, 13.0)),
             (SZLENK, (10.0, 0.0)), (SZLENK, (3.0, -4.0)), (SZLENK, (25.0, 25.0)),
             (DampedSzlenkMap(1.01, 0.005), (7.5, 2.0)), (CONTRACT, (7.0, -3.0)),
             (rotation, (1.0, 2.0)), (rotation, (0.0, 3.0)), (SZLENK, (0.0, 0.0)),
             (LinearMap(Mat2(1.5, 1.0, -0.0, 0.5)), (1.0, -1.0)), (SZLENK, (1e200, -1e200))]
    omega = OmegaConfig(max_iter=3000)
    tags = set()
    for m, (x, y) in cases:
        assert m.odd
        v = classify_omega(m, Point2(x, y), omega)
        w = classify_omega(m, Point2(-x, -y), omega)
        tags.add(v.tag)
        assert (w.tag, w.iterations, w.period) == (v.tag, v.iterations, v.period)
        assert struct.pack("<d", w.final_norm) == struct.pack("<d", v.final_norm)
        if v.representative is None:
            assert w.representative is None
        else:
            assert (w.representative.x, w.representative.y) == (-v.representative.x,
                                                                -v.representative.y)
    assert tags == {OmegaTag.CONVERGES_TO_ORIGIN, OmegaTag.PERIODIC, OmegaTag.ESCAPING}


@pytest.mark.parametrize("shape", [(16, 16), (17, 15), (9, 2), (2, 9)])
@pytest.mark.parametrize("L", [30.0, 29.7, 30.0 * 1.0037])
def test_basin_raster_equals_classifying_every_cell(shape, L):
    width, height = shape
    omega = OmegaConfig(max_iter=300)
    assert basin_raster(SZLENK, L, width, height, omega).codes == _classify_every_cell(
        SZLENK, L, width, height, omega)


def test_basin_raster_of_composite_equals_classifying_every_cell(bundle):
    omega = OmegaConfig(max_iter=500)
    for L, width, height in ((15.0, 16, 16), (15.0 * 0.9953, 16, 16), (15.0, 13, 11)):
        codes = basin_raster(bundle.composite, L, width, height, omega).codes
        assert codes == _classify_every_cell(bundle.composite, L, width, height, omega)
        assert len(set(codes)) > 1


def test_basin_raster_center_at_exact_zero():
    # 510 / 17 == 30.0, so the middle column and the middle row sit at 0.0
    assert -30.0 + 17 * 30.0 / 17 == 0.0 and 30.0 - 15 * 30.0 / 15 == 0.0
    for m in (SZLENK, LinearMap(Mat2(0.0, -1.2, 0.9, 0.0)), LinearMap(Mat2(1.5, 0.0, 0.0, 0.5))):
        omega = OmegaConfig(max_iter=500)
        assert basin_raster(m, 30.0, 17, 15, omega).codes == _classify_every_cell(
            m, 30.0, 17, 15, omega)


def test_basin_raster_of_maps_that_are_not_odd():
    # both rasters are lopsided, so copying a mirror cell's code would show
    shift = TranslationMap()
    omega = OmegaConfig(max_iter=5, escape_radius=12.0)
    assert not shift.odd
    codes = basin_raster(shift, 10.0, 10, 10, omega).codes
    assert codes == _classify_every_cell(shift, 10.0, 10, 10, omega)
    assert codes != codes[::-1]
    # a scripted 2-cycle through the cell center (2, 0); every other cell escapes
    script = ScriptMap(2.0, 1.0, 2.0)
    codes = basin_raster(script, 3.0, 3, 3).codes
    assert codes == _classify_every_cell(script, 3.0, 3, 3)
    assert codes == bytes([2, 2, 2, 2, 2, 1, 2, 2, 2])


def test_basin_raster_pooled_equals_classifying_every_cell(monkeypatch):
    # more cells than the serial limit, an odd height for a self-paired
    # middle row, and a window whose centers mirror only in part
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    saddle = LinearMap(Mat2(1.5, 0.0, 0.0, 0.5))
    omega = OmegaConfig(max_iter=200)
    for m, L in ((saddle, 10.0), (saddle, 9.93), (TranslationMap(), 10.0)):
        cfg = OmegaConfig(max_iter=5, escape_radius=12.0) if not m.odd else omega
        want = _classify_every_cell(m, L, 65, 67, cfg)
        assert len(set(want)) > 1
        for workers in (1, 2):
            assert basin_raster(m, L, 65, 67, cfg, workers=workers).codes == want


def test_basin_raster_classifies_each_antipodal_pair_once(monkeypatch):
    calls = []

    def counting(m, p, cfg=None):
        calls.append((p.x, p.y))
        return classify_omega(m, p, cfg)

    monkeypatch.setattr(dynamics, "classify_omega", counting)
    g = basin_raster(SZLENK, 30.0, 16, 16)
    assert len(calls) == 128 and len(set(calls)) == 128
    assert g.counts() == (80, 0, 176, 0)
    calls.clear()
    basin_raster(TranslationMap(), 30.0, 16, 16, OmegaConfig(max_iter=3))
    assert len(calls) == 256
    # jittered windows: a cell goes unclassified only when its center's exact
    # negation was classified, and some mirror rows keep cells to classify
    for L, width, height in ((29.7, 17, 15), (30.0 * 1.0037, 16, 16), (9.93, 12, 16)):
        calls.clear()
        basin_raster(SZLENK, L, width, height, OmegaConfig(max_iter=200))
        done = set(calls)
        centers = [(-L + (2 * i + 1) * L / width, L - (2 * r + 1) * L / height)
                   for r in range(height) for i in range(width)]
        skipped = [(x, y) for x, y in centers if (x, y) not in done]
        assert skipped and all((-x, -y) in done for x, y in skipped)
        assert width * (height // 2) < len(calls) < width * height


# --------------------------------------------------- near-mirror basin cells


def _same_verdict(v, w):
    """Field by field, with the final norm's bits and the representative's floats."""
    rv, rw = v.representative, w.representative
    return ((v.tag, v.iterations, v.period) == (w.tag, w.iterations, w.period)
            and struct.pack("<d", v.final_norm) == struct.pack("<d", w.final_norm)
            and (rv is None) == (rw is None)
            and (rv is None or (rv.x, rv.y) == (rw.x, rw.y)))


def _spy_budgets(monkeypatch):
    """Record the budget of every classify_omega call the dynamics module makes."""
    budgets = []

    def spy(m, p, cfg=None):
        budgets.append((cfg or OmegaConfig()).max_iter)
        return classify_omega(m, p, cfg)

    monkeypatch.setattr(dynamics, "classify_omega", spy)
    return budgets


@pytest.mark.parametrize("window", [8, 16, 64])
def test_near_mirror_verdict_is_classify_omega(bundle, window, monkeypatch):
    # jittered windows, so a mirror-index cell's center is -p only to
    # within rounding; both parities of width and height
    cases = [(bundle.composite, 15.0 * 0.9972, 9, 8, 500),
             (bundle.composite, 15.0 * 1.0031, 8, 7, 3000),
             (SZLENK, 30.0 * 1.0078, 8, 7, 3000),
             (DampedSzlenkMap(1.01, 0.005), 30.0 * 0.9931, 9, 8, 3000),
             (DampedSzlenkMap(1.012, 0.05), 12.0 * 1.0043, 8, 7, 500)]
    shared = set()
    for m, L, width, height, budget in cases:
        cfg = OmegaConfig(max_iter=budget, window=window)
        xs = [dynamics._center(-L, L, i, width) for i in range(width)]
        ys = [dynamics._center(L, -L, r, height) for r in range(height)]
        for r in range(height):
            for i in range(width):
                p = Point2(xs[i], ys[r])
                q = Point2(xs[width - 1 - i], ys[height - 1 - r])
                want = classify_omega(m, p, cfg)
                budgets = _spy_budgets(monkeypatch)
                got = dynamics._near_mirror(m, p, q, classify_omega(m, q, cfg), cfg)
                monkeypatch.undo()
                assert _same_verdict(got, want), (m.describe(), L, p, q)
                assert len(budgets) == 1
                if budgets[0] < budget:
                    shared.add(got.tag)
    # the orbits met for cells of every outcome
    assert shared == set(OmegaTag)


def test_near_mirror_verdict_decided_within_the_prefix(monkeypatch):
    # a projection onto the x axis: the orbits of p and q meet at step 1,
    # and with a one-step window q cycles at step 2, within the prefix budget
    # of 1 + 1
    proj = LinearMap(Mat2(1.0, 0.0, 0.0, 0.0))
    p, q = Point2(-2.0, 0.5), Point2(2.0, -0.25)
    cfg = OmegaConfig(window=1)
    vq = classify_omega(proj, q, cfg)
    assert (vq.tag, vq.iterations, vq.period) == (OmegaTag.PERIODIC, 2, 1)
    budgets = _spy_budgets(monkeypatch)
    got = dynamics._near_mirror(proj, p, q, vq, cfg)
    assert budgets == [2]
    assert _same_verdict(got, classify_omega(proj, p, cfg))
    assert (got.representative.x, got.representative.y) == (-2.0, 0.0)
    # a halving projection: q falls into the origin ball, while p starts
    # past the escape radius, so the prefix run's verdict is not q's
    half = LinearMap(Mat2(0.5, 0.0, 0.0, 0.0))
    p, q = Point2(-1.0, 20.0), Point2(1.0, 0.0)
    cfg = OmegaConfig(escape_radius=10.0, window=8)
    vq = classify_omega(half, q, cfg)
    assert vq.tag is OmegaTag.CONVERGES_TO_ORIGIN
    budgets.clear()
    got = dynamics._near_mirror(half, p, q, vq, cfg)
    assert budgets == [9]
    assert _same_verdict(got, classify_omega(half, p, cfg))
    assert (got.tag, got.iterations) == (OmegaTag.ESCAPING, 0)


class _CountingContract(PlanarMap):
    """CONTRACT's kernels with a count of ``xy`` calls, and its odd promise."""

    odd = True

    def __init__(self):
        self.calls = 0

    def xy(self, x, y):
        self.calls += 1
        return CONTRACT.xy(x, y)

    def jac(self, x, y):
        return CONTRACT.jac(x, y)

    def describe(self):
        return "counting contract"


def test_near_mirror_steps_no_further_than_its_last_check(monkeypatch):
    # under diag(0.5, 0.3) an orbit on the x axis never meets the negated
    # orbit on the y axis; the meeting is checked at steps 0..N, N the mirror's
    # iterations less the window, so each orbit is stepped N times, not N + 1
    m = _CountingContract()
    cfg = OmegaConfig(window=8)
    p, q = Point2(1.0, 0.0), Point2(0.0, 1.0)
    vq = classify_omega(m, q, cfg)
    n = vq.iterations - cfg.window
    assert n > 0
    want = classify_omega(m, p, cfg)
    monkeypatch.setattr(dynamics, "classify_omega", lambda *args: want)
    m.calls = 0
    assert dynamics._near_mirror(m, p, q, vq, cfg) is want
    assert m.calls == 2 * n


@pytest.mark.parametrize("L, parent_iterations", [(14.958257401071155, 142_704),
                                                  (30.23361586000888, 286_258)],
                         ids=["composite", "szlenk"])
def test_basin_raster_at_the_bench_seed_1_windows(bundle, L, parent_iterations, monkeypatch):
    # the bench's seed-1 windows at the default budgets: the raster is the
    # cell-by-cell one, and the classify_omega runs it makes step at most
    # 2/3 as often as classifying every cell not copied whole
    m = bundle.composite if L < 20.0 else SZLENK
    want = _classify_every_cell(m, L, 16, 16)
    iterations = []

    def counting(m, p, cfg=None):
        v = classify_omega(m, p, cfg)
        iterations.append(v.iterations)
        return v

    monkeypatch.setattr(dynamics, "classify_omega", counting)
    assert basin_raster(m, L, 16, 16, workers=1).codes == want
    assert sum(iterations) <= parent_iterations * 2 // 3


def test_basin_serial_and_pooled_agree_at_a_jittered_window(monkeypatch):
    # more cells than the serial limit, an odd width and height, and centers
    # that are exact negations for few cells
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    omega = OmegaConfig(max_iter=500)
    serial = basin_raster(SZLENK, 30.17, 65, 67, omega, workers=1)
    pooled = basin_raster(SZLENK, 30.17, 65, 67, omega, workers=2)
    assert 65 * 67 > dynamics._SERIAL_CELL_LIMIT
    assert serial.codes == pooled.codes
    assert len(set(serial.codes)) > 1


class UnpromisedSzlenk(PlanarMap):
    """The cubic map's kernels without the odd promise: ``odd`` stays False."""

    def xy(self, x, y):
        return SZLENK.xy(x, y)

    def jac(self, x, y):
        return SZLENK.jac(x, y)

    def describe(self):
        return "unpromised szlenk"


def test_maps_that_are_not_odd_never_share_a_verdict(monkeypatch):
    m = UnpromisedSzlenk()
    assert not m.odd
    omega = OmegaConfig(max_iter=3000)
    want = _classify_every_cell(m, 30.17, 16, 15, omega)
    mirrored = []
    monkeypatch.setattr(dynamics, "_near_mirror", lambda *args: mirrored.append(args))
    budgets = _spy_budgets(monkeypatch)
    assert basin_raster(m, 30.17, 16, 15, omega).codes == want
    assert mirrored == [] and budgets == [3000] * (16 * 15)
    # the same kernels with the promise give the same raster
    monkeypatch.undo()
    assert basin_raster(SZLENK, 30.17, 16, 15, omega).codes == want


_MAX_DOUBLE = 1.7976931348623157e308


def _near_max(ulps):
    """The double ``ulps`` steps below the largest one."""
    v = _MAX_DOUBLE
    for _ in range(ulps):
        v = math.nextafter(v, 0.0)
    return v


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((-1.0, 1.0)), st.integers(0, 8), st.integers(2, 4096), st.data())
def test_cell_centers_near_the_double_range_are_the_scaled_formula(sign, ulps, n, data):
    # oracle: the plain formula, or where it overflows the same formula with
    # start and step scaled down by a power of two and the result scaled back up
    start, step = -sign * _near_max(ulps), sign * _near_max(ulps)
    i = data.draw(st.integers(0, n - 1))
    want = start + (2 * i + 1) * step / n
    if not math.isfinite(want):
        s = 2.0 ** (2 * n).bit_length()
        want = (start / s + (2 * i + 1) * (step / s) / n) * s
    assert struct.pack("<d", dynamics._center(start, step, i, n)) == struct.pack("<d", want)


def test_cell_centers_near_the_double_range():
    # (2i + 1) * L overflows; the centers are redone at a power-of-two scale
    assert [dynamics._center(-1e308, 1e308, i, 4) for i in range(4)] == [
        -7.5e307, -2.5e307, 2.5e307, 7.5e307]
    assert [dynamics._center(1e308, -1e308, r, 4) for r in range(4)] == [
        7.5e307, 2.5e307, -2.5e307, -7.5e307]
    big = 1.7976931348623157e308
    xs = [dynamics._center(-big, big, i, 4096) for i in range(4096)]
    assert all(map(math.isfinite, xs)) and xs == sorted(xs) and -big < xs[0] and xs[-1] < big
    # ordinary windows keep the plain formula's bits
    for L, n in ((30.0, 17), (29.7, 16), (1e300, 7)):
        assert [dynamics._center(-L, L, i, n) for i in range(n)] == [
            -L + (2 * i + 1) * L / n for i in range(n)]
    assert basin_raster(CONTRACT, 1e308, 4, 4).counts() == (0, 0, 16, 0)
