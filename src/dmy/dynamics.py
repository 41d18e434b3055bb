"""Orbit-level analysis.

Four questions about a planar map, answered by finite computation:

- where does an orbit go (``classify_omega``: origin, a cycle, infinity, or
  undecided within budget; the tail's norms are a sorted float list searched
  only in the band a revisit can lie in, and not at all when that band
  misses the tail's norm range.  On a monotone run, where each norm lies
  band-above or band-below the previous one, a step is decided by one
  comparison with the previous norm and the sorted list is not kept; it is
  rebuilt from the tail when the run breaks, so verdicts and rasters do not
  depend on it);
- where exactly is a period-n orbit (``find_periodic``: Newton's method on
  f^n(x) - x with the chain-rule Jacobian along the orbit);
- how strongly does the map pull a large annulus inward
  (``dissipativity_bound``: sampled norm bound M on a ball, then the
  threshold radius 2(MR - alpha R)/(1 - alpha) and contraction factor
  (alpha+1)/2, both verified by sampling);
- is a sampled ray invariant (``verify_invariant_ray``: polyline distance of
  image points to the sampled curve, relative to the ray's sampled length).

``basin_raster`` runs the classifier over a pixel grid and is the one
parallel entry point.  Each task is a row and its mirror row: every map in
``dmy.planar`` is odd (``PlanarMap.odd``), so a cell whose center is exactly
minus a classified cell's center takes that cell's verdict, and a cell whose
orbit meets the negated orbit of its mirror cell takes that cell's verdict
from the meeting on (``_near_mirror``).  Either way most antipodal pairs of
cells cost one classification, whether or not the window's centers are
exactly antisymmetric.  A raster of more than 4096 cells with more than one
worker sends its tasks to a process pool, and only then are
``multiprocessing`` and ``concurrent.futures`` imported; smaller rasters and
one worker run the tasks in process.  The rows are reassembled in row order,
so the raster is a deterministic function of its inputs no matter the worker
count (the ``workers`` argument, never more than one per CPU the process may
run on: its affinity set where the platform reports one, else
``os.cpu_count()``).
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import chain

from .errors import ConvergenceError, NumericOverflowError, ParameterError, SingularSystemError
from .geometry import Mat2, Point2, record, replace
from .planar import ESCAPE_RADIUS, PlanarMap, _chain_product, _finite_jac
from .spectral import (_cabs, _growth, _jacobian_sups, _log_radii, _norm, _ring_points,
                       _sweep_sup, eig2)


class OmegaTag(Enum):
    CONVERGES_TO_ORIGIN = "converges-to-origin"
    PERIODIC = "periodic"
    ESCAPING = "escaping"
    UNDECIDED = "undecided"


# the cycle index holds one entry per iterate in the window
_MAX_WINDOW = 4096


@record
class OmegaConfig:
    """Budgets for orbit classification.

    An orbit converges when it stays inside the origin ball for ``window``
    consecutive iterates, cycles when it revisits one of the last ``window``
    iterates within relative tolerance, and escapes when its norm passes
    ``escape_radius`` (non-finite counts as escaped).  The window holds at
    most 4096 iterates.
    """

    max_iter: int = 10_000
    origin_tol: float = 1e-9
    escape_radius: float = ESCAPE_RADIUS
    window: int = 64
    cycle_rel_tol: float = 1e-7

    def __post_init__(self):
        if self.max_iter < 1:
            raise ParameterError(f"iteration budget must be >= 1, got {self.max_iter!r}")
        if not 1 <= self.window <= _MAX_WINDOW:
            raise ParameterError(
                f"cycle window must lie in [1, {_MAX_WINDOW}] (the window cap), got {self.window!r}")
        for name in ("origin_tol", "escape_radius", "cycle_rel_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ParameterError(f"{name} must be positive and finite, got {v!r}")


@record
class OmegaVerdict:
    """Outcome of one classification run.

    ``iterations`` is the number of map applications performed when the tag
    was decided (the first escaping index for ESCAPING, the full budget for
    UNDECIDED).  ``period`` and ``representative`` are set only for PERIODIC;
    the period is the smallest lag at which the tail revisited itself.
    """

    tag: OmegaTag
    iterations: int
    final_norm: float
    period: int | None = None
    representative: Point2 | None = None


def classify_omega(m: PlanarMap, p: Point2, cfg: OmegaConfig | None = None) -> OmegaVerdict:
    cfg = cfg or OmegaConfig()
    step = m.xy
    hypot = math.hypot
    max_iter, window = cfg.max_iter, cfg.window
    origin_tol, escape_radius, tol = cfg.origin_tol, cfg.escape_radius, cfg.cycle_rel_tol
    x, y = p.x, p.y
    nn = hypot(x, y)
    if not (nn <= escape_radius):
        return OmegaVerdict(OmegaTag.ESCAPING, 0, nn)
    # The rings rn/rx/ry hold the norm and point of index j at slot
    # j % window for the last `window` iterates.  A revisit within tol needs
    # | |p|-|q| | <= |p-q| <= tol*max(|p|, |q|), so only the norm band
    # [nn*(1-2tol), nn/(1-2tol)] can hold one: the factor 2 absorbs rounding,
    # and from tol >= 0.25 the band is open above.
    rn, rx, ry = [nn] * window, [x] * window, [y] * window
    lo_f = 1.0 - 2.0 * tol
    hi_f = 1.0 / lo_f if tol < 0.25 else math.inf
    origin_run = 1 if nn <= origin_tol else 0
    # A step rises (d = 1) when its band lies wholly above the previous norm
    # `prev` and falls (d = -1) when it lies wholly below.  After window - 1
    # steps of one direction (or one direction since index 0) the window is
    # strictly monotone, so the band of a further step that way misses every
    # norm in it: on such a monotone run one comparison with `prev` decides a
    # step (no band is both below and above `prev`, and from tol >= 0.25 no
    # run falls) and writes only the rings.  Off runs, `sn` holds the window's
    # norms sorted and `si` the index of each (equal norms in index order).
    # The step that breaks a run rebuilds them from the rings in index order,
    # reversed for a falling run: the list the index would have kept, since
    # a strict run has no equal norms.  Verdicts do not depend on the mode.
    sn, si = [nn], [0]
    # `streak` counts the latest steps of direction `streak_d`; `run_dir` is
    # the direction of the run in progress, None off runs
    prev, streak, streak_d, run_dir = nn, 0, 0, None
    for i in range(1, max_iter + 1):
        # a raw step never raises: one that leaves the doubles returns a
        # non-finite point, whose norm is inf or NaN
        x, y = step(x, y)
        nn = hypot(x, y)
        if not (nn <= escape_radius):  # also catches nan
            return OmegaVerdict(OmegaTag.ESCAPING, i, nn if math.isfinite(nn) else math.inf)
        if nn <= origin_tol:
            origin_run += 1
            if origin_run >= window:
                return OmegaVerdict(OmegaTag.CONVERGES_TO_ORIGIN, i, nn)
        elif origin_run:
            origin_run = 0
        slot = i % window
        if run_dir is not None and (nn * lo_f > prev if run_dir > 0 else nn * hi_f < prev):
            prev = nn
            rn[slot], rx[slot], ry[slot] = nn, x, y
            continue
        lo, hi = nn * lo_f, nn * hi_f
        d = 1 if lo > prev else -1 if hi < prev else 0
        prev = nn
        if run_dir is not None:
            si = list(range(max(0, i - window), i))[::run_dir]
            sn = [rn[j % window] for j in si]
            run_dir = None
        # no search near the origin, nor when the band misses the tail's norm range
        if not origin_run and lo <= sn[-1] and hi >= sn[0]:
            # the newest match (largest index) is the smallest lag = minimal period
            best = -1
            k = bisect_left(sn, lo)
            end = len(sn)
            while k < end:
                bn = sn[k]
                if bn > hi:
                    break
                j = si[k]
                k += 1
                scale = nn if nn >= bn else bn
                if abs(nn - bn) > tol * scale:
                    continue
                s = j % window
                if j > best and hypot(x - rx[s], y - ry[s]) <= tol * scale:
                    best = j
            if best >= 0:
                return OmegaVerdict(OmegaTag.PERIODIC, i, nn, i - best, Point2(x, y))
        streak = streak + 1 if d == streak_d else 1
        streak_d = d
        if d and (streak >= window - 1 or streak == i):
            # the window is now strictly monotone: the index is not kept
            run_dir = d
        else:
            # insert before evicting, so the index is never empty; the oldest
            # entry comes first among equal norms
            if nn >= sn[-1]:
                sn.append(nn)
                si.append(i)
            else:
                k = bisect_right(sn, nn)
                sn.insert(k, nn)
                si.insert(k, i)
            if i >= window:
                old = rn[slot]
                k = 0 if sn[0] == old else bisect_left(sn, old)
                del sn[k], si[k]
        rn[slot], rx[slot], ry[slot] = nn, x, y
    return OmegaVerdict(OmegaTag.UNDECIDED, max_iter, nn)


@record
class NewtonConfig:
    tol: float = 1e-12
    max_steps: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ParameterError(f"tolerance must be positive and finite, got {self.tol!r}")
        if self.max_steps < 1:
            raise ParameterError(f"step budget must be >= 1, got {self.max_steps!r}")


_UNIT_CIRCLE_TOL = 1e-6


@record
class PeriodicOrbit:
    """A numerically closed period-n orbit.

    ``points`` are consecutive images p0, f(p0), ..., f^{n-1}(p0), so the
    cycle property holds by construction up to the closure residual
    |f^n(p0) - p0|.  Multipliers are the eigenvalues of the chain-rule
    product of Jacobians along the orbit; the orbit is hyperbolic when both
    moduli are outside [1 - 1e-6, 1 + 1e-6].
    """

    period: int
    points: tuple[Point2, ...]
    residual: float
    multipliers: tuple[complex, complex]

    @property
    def hyperbolic(self) -> bool:
        return all(abs(_cabs(z) - 1.0) > _UNIT_CIRCLE_TOL for z in self.multipliers)


def orbit_multipliers(m: PlanarMap, points) -> tuple[complex, complex]:
    """Eigenvalues of the ordered Jacobian product along an orbit."""
    pts = tuple(points)
    if not pts:
        raise ParameterError("orbit must have at least one point")
    return eig2(Mat2(*_chain_jacobian(m, pts)))


def _chain_jacobian(m: PlanarMap, pts):
    """D(f^n) along the orbit as floats, from the identity; NumericOverflowError off the doubles."""
    j = _chain_product((1.0, 0.0, 0.0, 1.0), (m._jac(p.x, p.y) for p in pts))
    if not _finite_jac(*j):
        raise NumericOverflowError(f"{m.describe()} Jacobian product along the {len(pts)}-point "
                                   f"orbit from ({pts[0].x!r}, {pts[0].y!r}) overflowed")
    return j


def _newton_delta(m: PlanarMap, pts, gx: float, gy: float):
    """Newton step on D(f^n) - I with the analytic chain-rule Jacobian;
    SingularSystemError when |det| < 1e-14."""
    j11, a12, a21, j22 = _chain_jacobian(m, pts)
    a11, a22 = j11 - 1.0, j22 - 1.0
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-14:
        raise SingularSystemError(f"newton system for {m.describe()} is singular "
                                  f"(|det| = {abs(det)!r})")
    return ((-gx * a22 + gy * a12) / det,
            (-gy * a11 + gx * a21) / det)


def find_periodic(m: PlanarMap, n: int, seed: Point2,
                  cfg: NewtonConfig | None = None) -> PeriodicOrbit:
    """Newton search for a period-n orbit from the given seed.

    Raises SingularSystemError when the Newton matrix D(f^n) - I is singular
    (|det| < 1e-14), ConvergenceError (carrying the last iterate) when the
    step budget runs out or an iterate leaves the doubles, and
    NumericOverflowError when the chain-rule Jacobian overflows on finite iterates.
    """
    cfg = cfg or NewtonConfig()
    if n < 1:
        raise ParameterError(f"period must be >= 1, got {n!r}")
    x = seed
    res = math.inf
    for attempt in range(cfg.max_steps + 1):
        pts = [x]
        try:
            for _ in range(n):
                pts.append(m.eval(pts[-1]))
        except NumericOverflowError as exc:
            raise ConvergenceError(f"orbit left the doubles during the newton search: {exc}",
                                   last_iterate=x, residual=res) from exc
        end = pts.pop()
        gx, gy = end.x - x.x, end.y - x.y
        res = math.hypot(gx, gy)
        if res < cfg.tol:
            return PeriodicOrbit(period=n, points=tuple(pts), residual=res,
                                 multipliers=orbit_multipliers(m, pts))
        if attempt == cfg.max_steps:
            break
        dx, dy = _newton_delta(m, pts, gx, gy)
        try:
            x = Point2(x.x + dx, x.y + dy)
        except ParameterError as exc:
            raise ConvergenceError(f"newton step diverged: {exc}",
                                   last_iterate=x, residual=res) from exc
    raise ConvergenceError(
        f"newton did not close a period-{n} orbit of {m.describe()} in "
        f"{cfg.max_steps} steps (last residual {res!r})",
        last_iterate=x, residual=res)


_BALL_SPAN = 1e48     # the ball sweep covers [radius / span, radius]
_OUTER_SPAN = 100.0   # the outer sweeps end at span * threshold


@record
class DissipativitySampling:
    ball_radii: int = 64
    angles: int = 16
    outer_radii: int = 48

    def __post_init__(self):
        if self.ball_radii < 1 or self.outer_radii < 2 or self.angles < 1:
            raise ParameterError("sampling resolution too small")


@record
class DissipativityBound:
    """Sampled certificate that a map is eventually norm-contracting.

    From the sampled Jacobian norm bound on the ball (``norm_sup``, floored
    at 1 as ``norm_sup_used``), the threshold radius is

        2 * (norm_sup_used * R - alpha * R) / (1 - alpha)

    and the contraction factor is (alpha + 1) / 2.  ``hypothesis_ok`` records
    the sampled check |Df(p) p| < alpha |p| outside the ball; ``contraction_ok``
    records |f(p)| <= factor * |p| on [threshold, 100 * threshold].  An
    overflowing sample counts as an infinite norm or ratio, and when the
    threshold sweep would end beyond the doubles both checks fail unsampled.
    """

    ball_radius: float
    alpha: float
    norm_sup: float
    norm_sup_used: float
    threshold_radius: float
    contraction_factor: float
    hypothesis_ok: bool
    hypothesis_max_ratio: float
    hypothesis_worst_at: Point2 | None
    contraction_ok: bool
    contraction_max_ratio: float
    contraction_worst_at: Point2 | None
    samples: int

    @property
    def passed(self) -> bool:
        return self.hypothesis_ok and self.contraction_ok


def dissipativity_bound(m: PlanarMap, ball_radius: float, alpha: float,
                        cfg: DissipativitySampling | None = None) -> DissipativityBound:
    cfg = cfg or DissipativitySampling()
    if not (math.isfinite(ball_radius) and ball_radius > 0.0):
        raise ParameterError(f"ball radius must be positive and finite, got {ball_radius!r}")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    if ball_radius / _BALL_SPAN == 0.0:
        raise ParameterError(f"ball radius {ball_radius!r} is too small: the ball sweep "
                             f"starts at radius / {_BALL_SPAN:g}, which underflows to 0")

    ball = _log_radii(ball_radius / _BALL_SPAN, ball_radius, cfg.ball_radii)
    [(norm_sup, _, n_ball)] = _jacobian_sups(chain([(0.0, 0.0)], _ring_points(ball, cfg.angles)),
                                             m.jac, (_norm,))
    norm_sup_used = max(norm_sup, 1.0)  # threshold formula needs a bound > alpha
    threshold = 2.0 * (norm_sup_used * ball_radius - alpha * ball_radius) / (1.0 - alpha)
    factor = (alpha + 1.0) / 2.0

    def hyp_growth(x, y):
        # |Df(p) p| from the floats: the product may overflow where Df(p) does not
        j11, j12, j21, j22 = m._jac(x, y)
        return math.hypot(j11 * x + j12 * y, j21 * x + j22 * y) / math.hypot(x, y)

    end = _OUTER_SPAN * threshold
    if math.isfinite(end):
        outer = _log_radii(ball_radius, end, cfg.outer_radii)
        hyp_ratio, hyp_at, n_hyp = _sweep_sup(_ring_points(outer, cfg.angles), hyp_growth, 0.0)
        far = _log_radii(threshold, end, cfg.outer_radii)
        con_ratio, con_at, n_con = _sweep_sup(_ring_points(far, cfg.angles), _growth(m), 0.0)
    else:
        hyp_ratio = con_ratio = math.inf
        hyp_at = con_at = None
        n_hyp = n_con = 0
    return DissipativityBound(
        ball_radius=ball_radius, alpha=alpha,
        norm_sup=norm_sup, norm_sup_used=norm_sup_used,
        threshold_radius=threshold, contraction_factor=factor,
        hypothesis_ok=hyp_ratio < alpha, hypothesis_max_ratio=hyp_ratio,
        hypothesis_worst_at=hyp_at,
        contraction_ok=con_ratio <= factor, contraction_max_ratio=con_ratio,
        contraction_worst_at=con_at,
        samples=n_ball + n_hyp + n_con)


@record
class RayVerdict:
    """Outcome of an invariant-ray check.

    ``max_deviation`` is the largest distance from an image point to the
    polyline through the ray samples; the check passes only where it is at
    most ``tol * max_sample_radius``.  ``radius_ok`` records whether every
    image stayed within the sampled radius range.
    """

    passed: bool
    max_deviation: float
    worst_index: int
    radius_ok: bool
    max_image_radius: float
    max_sample_radius: float


def _segment_dist(qx, qy, ax, ay, bx, by):
    """Distance from the finite point q to the segment [a, b]."""
    vx, vy = bx - ax, by - ay
    wx, wy = qx - ax, qy - ay
    vv = vx * vx + vy * vy
    wv = wx * vx + wy * vy
    if not (math.isfinite(vv) and math.isfinite(wv)):
        # the distance is homogeneous: redo it with every coordinate scaled by
        # 2**-520, exact for normal floats, to below 2**504, where no square or
        # product overflows, and scale back up
        s = 2.0 ** -520
        return _segment_dist(qx * s, qy * s, ax * s, ay * s, bx * s, by * s) / s
    if vv < 2.0 ** -800 and 0.0 < max(map(abs, (qx, qy, ax, ay, bx, by))) < 2.0 ** -400:
        # every coordinate is tiny and the squares lose their bits below the
        # normal range: redo it scaled up by 2**600, exact, and scale back down
        s = 2.0 ** 600
        return _segment_dist(qx * s, qy * s, ax * s, ay * s, bx * s, by * s) / s
    if vv <= 0.0:
        return math.hypot(wx, wy)
    t = wv / vv
    if t <= 0.0:
        return math.hypot(wx, wy)
    if t >= 1.0:
        return math.hypot(qx - bx, qy - by)
    return math.hypot(wx - t * vx, wy - t * vy)


# _polyline_dist skips a run of segments only where a lower bound on their
# distance, less this fraction of the largest coordinates involved and less
# _PRUNE_FLOOR, reaches the best distance found: far more than every rounding
# error of _segment_dist and of the bound, so a skipped segment's computed
# distance is never the smaller
_PRUNE_SLACK = 2.0 ** -36
_PRUNE_FLOOR = 2.0 ** -500


def _segment_runs(pts) -> list[tuple]:
    """The polyline's segments in runs of about the square root of their
    count, each as (first, end, xlo, xhi, ylo, yhi, slack): the segment index
    range, the bounding box of its points and the box's share of the slack."""
    nseg = len(pts) - 1
    size = math.isqrt(nseg)
    runs = []
    for first in range(0, nseg, size):
        end = min(first + size, nseg)
        xs = [p.x for p in pts[first:end + 1]]
        ys = [p.y for p in pts[first:end + 1]]
        xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
        big = max(-xlo, xhi, -ylo, yhi)
        runs.append((first, end, xlo, xhi, ylo, yhi, _PRUNE_SLACK * big + _PRUNE_FLOOR))
    return runs


def _polyline_dist(q: Point2, pts, runs) -> float:
    """The least _segment_dist from q to a segment of the polyline, bit for
    bit, without measuring every segment.  No point of a run is nearer to q
    than the run's box, so runs are measured nearest box first, until the
    next box, less its slack, is no nearer than the best distance.  A box
    distance that overflows bounds nothing."""
    qx, qy = q.x, q.y
    q_slack = _PRUNE_SLACK * max(abs(qx), abs(qy))
    bounds = sorted(
        (math.hypot(max(xlo - qx, qx - xhi, 0.0), max(ylo - qy, qy - yhi, 0.0)) - q_slack - slack,
         first, end)
        for first, end, xlo, xhi, ylo, yhi, slack in runs)
    best = math.inf
    for bound, first, end in bounds:
        if best <= bound < math.inf:
            break
        for a, b in zip(pts[first:end], pts[first + 1:end + 1]):
            best = min(best, _segment_dist(qx, qy, a.x, a.y, b.x, b.y))
    return best


def verify_invariant_ray(m: PlanarMap, samples, tol: float) -> RayVerdict:
    """Check that the map sends a sampled ray into itself.

    The ray is given as points from the origin outward with strictly
    increasing radii.  Each sample's image must lie within ``tol`` times the
    largest sample radius of the polyline through the samples, and image
    radii must not exceed the sampled range (the polyline only represents
    the ray that far).  The tolerance is relative because invariance is
    scale-free: scaling a ray scales its rounding deviations with it.
    """
    pts = tuple(samples)
    if len(pts) < 2:
        raise ParameterError("ray needs at least two samples")
    if pts[0].norm() != 0.0:
        raise ParameterError(f"ray must start at the origin, got {pts[0]!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterError(f"tolerance must be >= 0 and finite, got {tol!r}")
    radii = [p.norm() for p in pts]
    for a, b in zip(radii, radii[1:]):
        if not b > a:
            raise ParameterError(
                f"ray sample radii must increase strictly, got {a!r} then {b!r}")
    max_r = radii[-1]
    runs = _segment_runs(pts)
    worst = -1.0
    worst_idx = 0
    img_max = 0.0
    radius_ok = True
    for i, p in enumerate(pts):
        try:
            q = m.eval(p)
        except NumericOverflowError:
            return RayVerdict(passed=False, max_deviation=math.inf, worst_index=i,
                              radius_ok=False, max_image_radius=math.inf,
                              max_sample_radius=max_r)
        qn = q.norm()
        img_max = max(img_max, qn)
        if qn > max_r * (1.0 + 1e-12):
            radius_ok = False
        d = _polyline_dist(q, pts, runs)
        if d > worst:
            worst = d
            worst_idx = i
    return RayVerdict(passed=radius_ok and worst <= tol * max_r,
                      max_deviation=worst, worst_index=worst_idx,
                      radius_ok=radius_ok, max_image_radius=img_max,
                      max_sample_radius=max_r)


# OmegaTag's order is BasinGrid's code order: 0 origin, 1 periodic, 2 escaping, 3 undecided
_TAG_CODE = {tag: code for code, tag in enumerate(OmegaTag)}

# below this many cells the fork+pickle overhead outweighs the row work
_SERIAL_CELL_LIMIT = 4096
# the task list and the code buffer grow with the cell count; the CLI caps
# every count that sizes a list at the same value
_MAX_CELLS = 4096 * 4096


@record
class BasinGrid:
    """Row-major cell classification over [-L, L]^2, top row first.

    Codes: 0 origin-basin, 1 periodic, 2 escaping, 3 undecided.
    """

    half_width: float
    width: int
    height: int
    codes: bytes

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ParameterError(f"half-width must be positive and finite, got {self.half_width!r}")
        if self.width < 1 or self.height < 1:
            raise ParameterError(f"resolution must be >= 1x1, got {self.width}x{self.height}")
        if len(self.codes) != self.width * self.height:
            raise ParameterError(
                f"code buffer has {len(self.codes)} cells for a "
                f"{self.width}x{self.height} grid")

    def counts(self) -> tuple[int, int, int, int]:
        return (self.codes.count(0), self.codes.count(1),
                self.codes.count(2), self.codes.count(3))


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else ``os.cpu_count()``, and one when that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def resolve_workers(requested: int | None = None) -> int:
    """Worker count for parallel sweeps: explicit request or one per CPU,
    never more than the CPUs the process may run on."""
    cpus = _cpu_count()
    chosen = requested if requested is not None else cpus
    if chosen < 1:
        raise ParameterError(f"worker count must be >= 1, got {requested!r}")
    return min(chosen, cpus)


def _center(start: float, step: float, i: int, n: int) -> float:
    """start + (2i + 1) * step / n, the center of cell i of n, with start and
    step +-L for a finite L.  A window near the double range overflows
    (2i + 1) * L although every center is finite: that center is redone with
    L scaled down by a power of two, exact for normal floats, and scaled back up."""
    c = start + (2 * i + 1) * step / n
    if math.isfinite(c):
        return c
    s = 2.0 ** (2 * n).bit_length()
    return _center(start / s, step / s, i, n) * s


def _negated(v: OmegaVerdict) -> OmegaVerdict:
    """For an odd map, the verdict at -p given the verdict v at p."""
    rep = v.representative
    if rep is None:
        return v
    return OmegaVerdict(v.tag, v.iterations, v.final_norm, v.period, Point2(-rep.x, -rep.y))


def _near_mirror(m: PlanarMap, p: Point2, q: Point2, vq: OmegaVerdict,
                 cfg: OmegaConfig) -> OmegaVerdict:
    """classify_omega(m, p, cfg) for an odd map, given q's verdict vq.

    The orbits of p and q are stepped together up to step
    ``vq.iterations - window``.  At the first step s where p's iterate is
    minus q's (float ==, the odd promise), every later iterate is too, so
    from step s + window on p's window, origin run, escape test and revisit
    search are q's negated: a run on p with budget s + window either decides,
    or p's verdict is vq with the representative negated.  Orbits that never
    meet are classified in full."""
    step = m.xy
    px, py, qx, qy = p.x, p.y, q.x, q.y
    for s in range(vq.iterations - cfg.window + 1):
        if s:  # no step follows the last check
            px, py = step(px, py)
            qx, qy = step(qx, qy)
        if px == -qx and py == -qy:
            v = classify_omega(m, p, replace(cfg, max_iter=s + cfg.window))
            return _negated(vq) if v.tag is OmegaTag.UNDECIDED else v
    return classify_omega(m, p, cfg)


def _basin_rows(task):
    """Codes of the rows at the task's heights, in order.

    When the map is odd, a cell whose mirror-index cell (column W-1-i of the
    mirror row) is done takes its verdict from that cell: at once where the
    two centers are exact negations, as the orbit from -p is the orbit from
    p negated, norm for norm; otherwise once the two orbits meet
    (``_near_mirror``).  Every verdict is the one ``classify_omega`` gives
    the cell alone, so a window whose centers are not antisymmetric gets
    every code right."""
    m, xs, heights, omega = task
    cfg = omega or OmegaConfig()
    odd = m.odd
    w = len(xs)
    rows = [[None] * w for _ in heights]
    for k, y in enumerate(heights):
        row, mirror, my = rows[k], rows[-1 - k], heights[-1 - k]
        for i, x in enumerate(xs):
            vq = mirror[w - 1 - i] if odd else None
            mx = xs[w - 1 - i]
            if vq is None:
                row[i] = classify_omega(m, Point2(x, y), cfg)
            elif x == -mx and y == -my:  # 0.0 and -0.0 are equal, as the odd promise allows
                row[i] = _negated(vq)
            else:
                row[i] = _near_mirror(m, Point2(x, y), Point2(mx, my), vq, cfg)
    return [bytes(_TAG_CODE[v.tag] for v in row) for row in rows]


def basin_raster(m: PlanarMap, half_width: float, width: int, height: int,
                 omega: OmegaConfig | None = None, workers: int | None = None) -> BasinGrid:
    """Classify every cell center of a width x height grid over [-L, L]^2.

    Cell (i, r) has center (-L + (2i+1) L / width, L - (2r+1) L / height).
    Row r and its mirror row height-1-r form one task.  For an odd map
    (``m.odd``) a cell whose center is exactly minus an already classified
    center copies that cell's verdict instead of being classified again, and
    a cell whose orbit meets the negated orbit of its mirror cell (column
    width-1-i of row height-1-r) takes that cell's verdict from the meeting
    on.  Every code is the one classifying the cell alone gives, and most
    cells of the mirror row are classified only up to the meeting plus one
    window, whether or not the window's centers are exactly antisymmetric.

    ``workers`` None means one per CPU, and any count is clamped to the
    CPUs the process may run on; the pool forks only for more than 4096
    cells and more than one worker.  At most 4096 x 4096 cells.
    Deterministic regardless of worker count: row pairs are computed
    independently and joined in row order, and cell centers depend only on
    the grid shape.
    """
    if not (math.isfinite(half_width) and half_width > 0.0):
        raise ParameterError(f"half-width must be positive and finite, got {half_width!r}")
    if width < 2 or height < 2:
        raise ParameterError(f"raster needs at least 2x2 cells, got {width}x{height}")
    if width * height > _MAX_CELLS:
        raise ParameterError(
            f"raster has {width * height} cells, more than the {_MAX_CELLS} (4096x4096) cap")
    workers = resolve_workers(workers)
    xs = [_center(-half_width, half_width, i, width) for i in range(width)]
    ys = [_center(half_width, -half_width, r, height) for r in range(height)]
    # row r and its mirror row, or the middle row of an odd height alone
    tasks = [(m, xs, [ys[r], ys[-1 - r]] if 2 * r + 1 < height else [ys[r]], omega)
             for r in range((height + 1) // 2)]
    if workers == 1 or width * height <= _SERIAL_CELL_LIMIT:
        done = [_basin_rows(t) for t in tasks]
    else:
        # imported here so that serial rasters and every other command never
        # load the pool's modules
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks)), mp_context=ctx) as pool:
            done = list(pool.map(_basin_rows, tasks))
    # the first rows run down to the middle, the mirror rows on from it
    rows = [codes[0] for codes in done] + [codes[1] for codes in reversed(done) if len(codes) == 2]
    return BasinGrid(half_width=half_width, width=width, height=height,
                     codes=b"".join(rows))
