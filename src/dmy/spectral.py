"""Closed-form 2x2 spectral queries and Jacobian-spectrum sampling.

Eigenvalues come from the characteristic polynomial l^2 - tr*l + det.  The
discriminant decides real versus conjugate-complex; a pair counts as real
when tr^2 - 4*det >= -1e-12 * max(tr^2, 4*|det|), a floor relative to the
terms that formed it, so an exactly-nilpotent Jacobian survives rounding as
the real double root it is.  A discriminant of -inf (4*det overflowed) meets
that floor, -inf too, but is read as complex, so where tr^2 or 4*det overflows
the largest modulus is never finite.  The real branch uses the cancellation-free
form (larger root first, companion via det / root).

The operator norm is the exact 2x2 singular-value identity

    2 * sigma_max = hypot(a11 - a22, a12 + a21) + hypot(a11 + a22, a12 - a21),

which returns exact values on diagonal and shear matrices.

Region sweeps are deterministic.  Grid strategies enumerate row-major from
the lower edge, x fastest.  The first and last samples on each axis are the
region's bounds themselves, and interior ones use the lerp form
((n-1-i)*lo + i*hi)/(n-1), so a symmetric zero lands exactly on the axes
too.  The random strategy derives every sample from one explicit seed
recorded in the report.  Where a lerp or draw overflows for finite bounds
near the double range, it is redone with the bounds scaled down by a power
of two and scaled back.  A sample whose Jacobian or eigenvalue modulus
overflows is counted and flagged, never raised, and any flagged sample makes
every verdict fail: an unbounded spectrum cannot certify a spectrum bound.

Sups of a Jacobian's spectral radius or norm (``_jacobian_sups``) take the
exact ``_radius`` or ``_norm`` only at a sample whose pre-test, with no square
root, does not rule out raising the running sup; sup, witness and count stay
those of ``_sweep_sup`` bit for bit.  ``sample_spectrum`` pre-tests against its
running max modulus the same way, with ``_eig``'s complex branch added to
Jury's test: a sample that passes has a complex pair strictly below the max,
so it adds no real record, moves no first witness and is no overflow, and
``_eig`` is not run.  That branch test restates ``_eig``'s only inside Jury's
bounds, where tr^2 and 4 det are finite.

Both kinds of Jacobian sweep read a map's unchecked ``jac`` kernel, which no
pre-test passes with a non-finite entry.  Where it fails, a sup prices a
Jacobian that fails ``planar._finite_jac`` +inf; ``sample_spectrum`` counts
an overflow on ``_eig``'s modulus alone, which is not finite for such a Jacobian.

``sample_spectrum`` evaluates each antipodal pair of a symmetric grid once.
When the map is odd (``PlanarMap.odd``: its Jacobian is even, overflow
included) and each axis's coordinate list is its own reversed negation,
grid sample N-1-i is sample i mirrored, so only the first ceil(N/2) samples
are evaluated, the center included when N is odd, and the rest are derived.
The test is on the computed lists, not on the bounds: a one-point axis has
no mirror point however symmetric its bounds.  A derived sample equals (==)
the sample it mirrors and comes later in sweep order, so the first maximum
modulus, the first real extremum and every check's first witness are
samples that were evaluated; derived real records read their coordinates
off the grid lists, so an axis coordinate keeps its +0.0.
"""

from __future__ import annotations

import math
import random
from itertools import islice

from .errors import NumericOverflowError, ParameterError
from .geometry import Mat2, Point2, record
from .planar import PlanarMap, _finite_jac

REAL_DISC_TOL = 1e-12


def _eig(a11: float, a12: float, a21: float, a22: float):
    """Eigenvalues of [[a11, a12], [a21, a22]] on floats: ``(True, lo, hi)``
    for a real pair lo <= hi, ``(False, re, im)`` for the pair re +- i*im."""
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = tr * tr - 4.0 * det
    # a slightly negative disc is rounding noise only relative to the terms that formed
    # it (an absolute floor misreads tiny entries); disc = -inf is 4 det overflowing
    if -math.inf < disc >= -REAL_DISC_TOL * max(tr * tr, 4.0 * abs(det)):
        s = math.sqrt(disc) if disc > 0.0 else 0.0
        big = (tr + s) / 2.0 if tr >= 0.0 else (tr - s) / 2.0
        if big == 0.0:  # tr == s == 0 forces det == 0: double root at zero
            return True, 0.0, 0.0
        other = det / big
        return (True, other, big) if other <= big else (True, big, other)
    return False, tr / 2.0, math.sqrt(-disc) / 2.0


def _modulus(is_real: bool, u: float, v: float) -> float:
    """Largest eigenvalue modulus of an ``_eig`` result (complex ``abs``, not
    ``math.hypot``, which can differ in the last bit)."""
    return max(abs(u), abs(v)) if is_real else abs(complex(u, v))


def _radius(a11: float, a12: float, a21: float, a22: float) -> float:
    return _modulus(*_eig(a11, a12, a21, a22))


def _norm(a11: float, a12: float, a21: float, a22: float) -> float:
    h1 = math.hypot(a11 - a22, a12 + a21)
    h2 = math.hypot(a11 + a22, a12 - a21)
    return (h1 + h2) / 2.0


def eig2(m: Mat2) -> tuple[complex, complex]:
    """Both eigenvalues of m: a real pair ascending with zero imaginary parts, a
    complex pair as exact conjugates, positive imaginary part first.  Where tr^2 or
    4 det overflows, ``_eig``'s result is not finite, so the pair is redone at the
    scale 2**-e, e the largest entry's exponent (exact for normal floats), and scaled
    back by products, which give inf where ``math.ldexp`` or ``2.0 ** 1024`` raise."""
    entries = (m.a11, m.a12, m.a21, m.a22)
    is_real, u, v = _eig(*entries)
    if not (math.isfinite(u) and math.isfinite(v)):
        e = math.frexp(max(map(abs, entries)))[1]
        is_real, u, v = _eig(*(math.ldexp(a, -e) for a in entries))
        u, v = u * 2.0 ** (e - 2) * 4.0, v * 2.0 ** (e - 2) * 4.0
    if is_real:
        return complex(u, 0.0), complex(v, 0.0)
    return complex(u, v), complex(u, -v)


def spectral_radius(m: Mat2) -> float:
    return _radius(m.a11, m.a12, m.a21, m.a22)


def operator_norm(m: Mat2) -> float:
    return _norm(m.a11, m.a12, m.a21, m.a22)


@record
class Rect:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        for v in (self.xmin, self.xmax, self.ymin, self.ymax):
            if not math.isfinite(v):
                raise ParameterError(f"region bounds must be finite, got {v!r}")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ParameterError(
                f"region must be nonempty, got x [{self.xmin!r}, {self.xmax!r}] "
                f"y [{self.ymin!r}, {self.ymax!r}]")


@record
class GridStrategy:
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ParameterError(f"grid needs at least one point per axis, got {self.nx}x{self.ny}")

    def describe(self) -> str:
        return f"grid {self.nx}x{self.ny}"


@record
class RandomStrategy:
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 0:
            raise ParameterError(f"sample count must be >= 0, got {self.count}")

    def describe(self) -> str:
        return f"random n={self.count} seed={self.seed}"


def _lerp(lo: float, hi: float, i: int, n: int) -> float:
    if i == 0:
        return lo
    if i == n - 1:
        return hi
    v = ((n - 1 - i) * lo + i * hi) / (n - 1)
    if math.isfinite(v):
        return v
    # finite bounds near the double range: redo with them scaled down by a power
    # of two, exact for normal floats, to where no sum overflows; scale back up
    s = 2.0 ** ((n - 1).bit_length() + 1)
    return _lerp(lo / s, hi / s, i, n) * s


def _redraw(v: float, lo: float, hi: float, u: float) -> float:
    """The draw v = lo + (hi - lo) * u, redone with halved bounds where it
    overflows (``rng.uniform`` bit for bit where it does not)."""
    return v if math.isfinite(v) else (0.5 * lo + (0.5 * hi - 0.5 * lo) * u) * 2.0


def _log_radii(lo: float, hi: float, n: int, offset: float = 0.0) -> list[float]:
    """n radii from lo to hi, evenly spaced in log-radius (just hi when n == 1).
    Offset 0.5 takes the n midpoints of the one-point-longer log grid instead."""
    if n == 1:
        return [hi]
    llo, lhi = math.log(lo), math.log(hi)
    return [math.exp(_lerp(llo, lhi, i + offset, n + 1 if offset else n)) for i in range(n)]


def _ring_points(radii, angles: int, phase: float = 0.0):
    """(x, y) on one circle per radius, at evenly spaced angles from
    ``phase`` steps (0.0 starts on the positive x axis)."""
    circle = [(math.cos(t), math.sin(t))
              for t in (2.0 * math.pi * (j + phase) / angles for j in range(angles))]
    for r in radii:
        for c, s in circle:
            yield r * c, r * s


def _sweep_sup(points, value, sup: float = -math.inf, at=None):
    """Largest value(x, y) over the (x, y) points, the first point attaining it
    as a Point2 (``at`` if no value beats ``sup``), and the number of points
    visited.  A value that raises NumericOverflowError or is NaN counts as
    +inf: an overflowing sample has no finite bound."""
    count = 0
    for p in points:
        count += 1
        try:
            v = value(*p)
        except NumericOverflowError:
            v = math.inf
        if v != v:  # NaN
            v = math.inf
        if v > sup:
            sup, at = v, p
    return sup, None if at is None else Point2(*at), count


PRETEST_MARGIN = 1.0 - 2.0 ** -20


def _never(*entries) -> bool:
    return False


def _pretest(measure, sup: float):
    """A test on Jacobian entries that is True only where their ``measure``
    (``_radius`` or ``_norm``) is below sup, or, for ``_eig``, only where
    ``_eig`` gives a complex pair of modulus below sup; any other measure gets
    ``_never``, so every sample is measured.  It takes no square root.
    With c = sup * PRETEST_MARGIN, the radius test is Jury's
    |det| < c^2 and |tr| < c + det/c.  The ``_eig`` test adds ``_eig``'s
    complex branch as tr^2 - 4 det < -REAL_DISC_TOL * 4 det, which is that
    branch exactly only where Jury's bounds hold: there tr^2, 4 det and the
    discriminant are finite, and a negative discriminant makes 4 det the
    larger term of max(tr^2, 4 |det|).  Outside them it is not (at
    (-1, 0, 0, -4.49e307) 4 det overflows and the discriminant is NaN), so it
    never stands without them.  The norm test asks that both squared singular
    values, the roots of s^2 - F s + det^2 (F the sum of squared entries), lie
    below c^2: F <= 2 c^2 and F c^2 < c^4 + det^2.  The margin: near a double root or
    an isotropic matrix, rounding can pass a measure over c by a relative
    ~sqrt(eps), about 2e-8, and ``_eig`` errs by as much there (``_norm`` by a
    few ulps); 2**-20, about 9.5e-7, is over ten times both.  Outside
    2**-240 <= c <= 2**240 the squares could leave the doubles: nothing passes.
    No test passes an entry that is inf or NaN: each entry enters det, and F,
    through a product of its own, so det or F is inf or NaN and fails the
    strict bounds.  A sweep may therefore pre-test raw ``jac`` entries and
    check finiteness only where the test fails."""
    c = sup * PRETEST_MARGIN
    if not 2.0 ** -240 <= c <= 2.0 ** 240:
        return _never
    c2 = c * c
    if measure is _radius:  # tr and det in _eig's own expressions
        return lambda a11, a12, a21, a22: (-c2 < (det := a11 * a22 - a12 * a21) < c2
                                           and abs(a11 + a22) < c + det / c)
    if measure is _eig:
        return lambda a11, a12, a21, a22: (
            -c2 < (det := a11 * a22 - a12 * a21) < c2 and abs(tr := a11 + a22) < c + det / c
            and tr * tr - 4.0 * det < -REAL_DISC_TOL * (4.0 * det))
    if measure is _norm:
        two_c2, c4 = 2.0 * c2, c2 * c2
        return lambda a11, a12, a21, a22: (
            (f := a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22) <= two_c2
            and f * c2 < c4 + (det := a11 * a22 - a12 * a21) * det)
    return _never


def _jacobian_sups(points, jac, measures, sup: float = -math.inf):
    """For each measure, what ``_sweep_sup(points, lambda x, y:
    measure(*m._jac(x, y)), sup)`` returns, bit for bit, from one pass, where
    ``jac`` is the unchecked kernel ``m.jac``; a sample that passes the
    measure's pre-test is not measured.  Finiteness is checked only at a
    sample that fails its pre-test: a non-finite entry fails every pre-test,
    so a sample that passes has the finite entries ``_jac`` would return.  The
    check stays where the measure is taken, since a measure need not price a
    non-finite entry as +inf (a12 * a21 - a11 * a22 is -inf at (0, 1, -inf, 0))."""
    best = [[sup, None, _pretest(m, sup), m] for m in measures]  # sup, witness, test, measure
    count = 0
    for count, p in enumerate(points, 1):
        try:
            j = jac(*p)
        except NumericOverflowError:
            j = None
        for b in best:
            if j is None:
                v = math.inf
            elif b[2](*j):
                continue
            elif not _finite_jac(*j) or (v := b[3](*j)) != v:  # non-finite entry or NaN
                v = math.inf
            if v > b[0]:
                b[0], b[1], b[2] = v, p, _pretest(b[3], v)
    return [(s, None if at is None else Point2(*at), count) for s, at, _, _ in best]


def _growth(m: PlanarMap):
    """The sweep value (x, y) -> |m(x, y)| / |(x, y)|."""
    return lambda x, y: math.hypot(*m._image(x, y)) / math.hypot(x, y)


def _grid_axes(region: Rect, strategy: GridStrategy):
    """The grid's x and y coordinate lists; a non-finite one raises ParameterError."""
    xs = [_lerp(region.xmin, region.xmax, ix, strategy.nx) for ix in range(strategy.nx)]
    ys = [_lerp(region.ymin, region.ymax, iy, strategy.ny) for iy in range(strategy.ny)]
    if not all(map(math.isfinite, xs + ys)):
        for y in ys:
            for x in xs:
                Point2(x, y)  # raises at the first non-finite sample
    return xs, ys


def _half_grid(xs: list[float], ys: list[float]):
    """The first ceil(N/2) of the N row-major grid points, the center included
    when N is odd.  On mirrored axes point N-1-i is the negation of point i."""
    return islice(((x, y) for y in ys for x in xs), (len(xs) * len(ys) + 1) // 2)


def _random_points(region: Rect, strategy: RandomStrategy):
    draw = random.Random(strategy.seed).random
    xlo, xhi, ylo, yhi = region.xmin, region.xmax, region.ymin, region.ymax
    xw, yw = xhi - xlo, yhi - ylo
    isfinite = math.isfinite
    for _ in range(strategy.count):
        u = draw()
        v = draw()
        x, y = xlo + xw * u, ylo + yw * v
        if not (isfinite(x) and isfinite(y)):
            x, y = _redraw(x, xlo, xhi, u), _redraw(y, ylo, yhi, v)
            Point2(x, y)  # raises where even the halved draw leaves the doubles
        yield x, y


def _sample_points(region: Rect, strategy):
    """Sample (x, y) in sweep order; a sample past the doubles raises ParameterError
    (a grid's before any is taken, a draw's when it is drawn)."""
    if isinstance(strategy, GridStrategy):
        xs, ys = _grid_axes(region, strategy)
        return ((x, y) for y in ys for x in xs)
    if isinstance(strategy, RandomStrategy):
        return _random_points(region, strategy)
    raise ParameterError(f"unknown sampling strategy: {strategy!r}")


@record
class RealSpectrumSample:
    """One sample whose eigenvalue pair was real (lo <= hi)."""

    lo: float
    hi: float
    x: float
    y: float
    index: int


@record
class Verdict:
    name: str
    passed: bool
    detail: str
    witness_value: float | None = None
    witness_at: Point2 | None = None


@record
class SpectrumReport:
    """The ``spectrum`` report's keys in order, then ``real_samples``: the
    per-sample records that the checks read and the report omits."""

    map: str
    strategy: str
    samples: int
    overflows: int
    max_modulus: float | None
    max_modulus_at: Point2 | None
    real_count: int
    min_real: float | None
    min_real_at: Point2 | None
    max_real: float | None
    max_real_at: Point2 | None
    real_samples: tuple[RealSpectrumSample, ...]


def sample_spectrum(m: PlanarMap, region: Rect, strategy) -> SpectrumReport:
    mirror = isinstance(strategy, GridStrategy) and m.odd
    if mirror:
        xs, ys = _grid_axes(region, strategy)
        # each axis list its own reversed negation: symmetric bounds are not
        # enough, since a one-point axis has no mirror point
        mirror = xs == [-v for v in reversed(xs)] and ys == [-v for v in reversed(ys)]
    points = _half_grid(xs, ys) if mirror else _sample_points(region, strategy)
    count = 0
    overflow = 0
    last_overflow = None
    max_mod = None
    max_mod_at = None
    reals = []
    jac = m.jac
    skip = _never  # True where a complex pair lies below the running max
    for idx, (x, y) in enumerate(points):
        count += 1
        try:
            j = jac(x, y)
        except NumericOverflowError:
            mod = math.inf
        else:
            if skip(*j):
                continue
            is_real, lo, hi = _eig(*j)
            mod = _modulus(is_real, lo, hi)
        if not math.isfinite(mod):  # a non-finite entry, or tr^2 - 4 det overflowed
            overflow += 1
            last_overflow = idx
            continue
        if max_mod is None or mod > max_mod:
            max_mod = mod
            max_mod_at = Point2(x, y)
            skip = _pretest(_eig, mod)
        if is_real:
            reals.append(RealSpectrumSample(lo, hi, x, y, idx))
    if mirror:
        # sample n-1-i is sample i mirrored, with an equal Jacobian, so it
        # repeats sample i's record; the center, taken last, mirrors itself
        n, nx = len(xs) * len(ys), len(xs)
        count = n
        overflow = 2 * overflow - (n % 2 == 1 and last_overflow == n // 2)
        reals += [RealSpectrumSample(s.lo, s.hi, xs[j % nx], ys[j // nx], j)
                  for s in reversed(reals) if (j := n - 1 - s.index) != s.index]
    min_real = max_real = min_real_at = max_real_at = None
    if reals:
        # min and max keep the first extremum in sample order
        first_lo = min(reals, key=lambda s: s.lo)
        first_hi = max(reals, key=lambda s: s.hi)
        min_real, min_real_at = first_lo.lo, Point2(first_lo.x, first_lo.y)
        max_real, max_real_at = first_hi.hi, Point2(first_hi.x, first_hi.y)
    return SpectrumReport(
        map=m.describe(), strategy=strategy.describe(),
        samples=count, overflows=overflow,
        max_modulus=max_mod, max_modulus_at=max_mod_at,
        real_count=len(reals),
        min_real=min_real, min_real_at=min_real_at,
        max_real=max_real, max_real_at=max_real_at,
        real_samples=tuple(reals))


def _uncertifiable(name: str, report: SpectrumReport) -> Verdict | None:
    """The failing verdict of a sweep that overflowed or took no samples, else None."""
    if report.overflows:
        detail = f"{report.overflows} of {report.samples} samples overflowed"
    elif report.samples == 0:
        detail = "no samples"
    else:
        return None
    return Verdict(name=name, passed=False,
                   detail=f"{detail}; the sweep cannot certify a spectrum bound")


def check_ball(report: SpectrumReport, radius: float) -> Verdict:
    """All sampled eigenvalue moduli strictly below radius."""
    if not radius > 0.0:
        raise ParameterError(f"ball radius must be positive, got {radius!r}")
    name = f"ball:{radius!r}"
    if failed := _uncertifiable(name, report):
        return failed
    passed = report.max_modulus < radius
    return Verdict(name=name, passed=passed,
                   detail=f"max sampled |lambda| = {report.max_modulus!r} vs bound {radius!r}",
                   witness_value=report.max_modulus, witness_at=report.max_modulus_at)


def check_interval_free(report: SpectrumReport, lo: float, hi: float) -> Verdict:
    """No sampled real eigenvalue falls in the half-open interval [lo, hi)."""
    if not lo < hi:
        raise ParameterError(f"interval must satisfy lo < hi, got [{lo!r}, {hi!r})")
    name = f"interval-free:[{lo!r},{hi!r})"
    if failed := _uncertifiable(name, report):
        return failed
    for s in report.real_samples:  # index order: first witness wins
        for v in (s.lo, s.hi):
            if lo <= v < hi:
                return Verdict(name=name, passed=False,
                               detail=f"real eigenvalue {v!r} in [{lo!r}, {hi!r}) "
                                      f"at sample {s.index}",
                               witness_value=v, witness_at=Point2(s.x, s.y))
    return Verdict(name=name, passed=True,
                   detail=f"none of {report.real_count} real pairs meet [{lo!r}, {hi!r})")


def check_real_free(report: SpectrumReport) -> Verdict:
    """No sampled eigenvalue pair was real."""
    name = "real-free"
    if failed := _uncertifiable(name, report):
        return failed
    if report.real_count:
        s = report.real_samples[0]
        return Verdict(name=name, passed=False,
                       detail=f"{report.real_count} samples had real spectrum; "
                              f"first at sample {s.index}",
                       witness_value=s.lo, witness_at=Point2(s.x, s.y))
    return Verdict(name=name, passed=True,
                   detail=f"all {report.samples} samples had complex pairs")


def sample_norm_sup(m: PlanarMap, region: Rect, strategy) -> float:
    """Max operator norm of the Jacobian over the sample set.

    Returns inf when any sample overflows: an overflowing Jacobian has no
    finite norm bound, and callers use this value as an upper estimate.
    """
    return _jacobian_sups(_sample_points(region, strategy), m.jac, (_norm,), 0.0)[0][0]
