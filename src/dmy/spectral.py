"""Closed-form 2x2 spectral queries and Jacobian-spectrum sampling.

Eigenvalues come from the characteristic polynomial l^2 - tr*l + det.  The
discriminant decides real versus conjugate-complex; a pair counts as real
when tr^2 - 4*det >= -1e-12 * max(1, tr^2), so an exactly-nilpotent Jacobian
survives rounding as the real double root it is.  The real branch uses the
cancellation-free form (larger root first, companion via det / root).

The operator norm is the exact 2x2 singular-value identity

    2 * sigma_max = hypot(a11 - a22, a12 + a21) + hypot(a11 + a22, a12 - a21),

which returns exact values on diagonal and shear matrices.

Region sweeps are deterministic.  Grid strategies enumerate row-major from
the lower edge, x fastest, using the lerp form ((n-1-i)*lo + i*hi)/(n-1) so
the endpoints and a symmetric zero land exactly on the axes.  The random
strategy derives every sample from one explicit seed recorded in the report.
A sample whose Jacobian or eigenvalue modulus overflows is counted and
flagged, never raised, and any flagged sample makes every verdict fail: an
unbounded spectrum cannot certify a spectrum bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import NumericOverflowError, ParameterError
from .geometry import Mat2, Point2
from .planar import PlanarMap

REAL_DISC_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class EigenPair:
    """Both eigenvalues of a 2x2 matrix.

    Real pairs are ordered ascending with zero imaginary parts; complex pairs
    are exact conjugates with the positive imaginary part first.
    """

    l1: complex
    l2: complex

    @property
    def is_real(self) -> bool:
        return self.l1.imag == 0.0

    @property
    def max_modulus(self) -> float:
        return max(abs(self.l1), abs(self.l2))


def eig2(m: Mat2) -> EigenPair:
    tr = m.trace
    det = m.det
    disc = tr * tr - 4.0 * det
    # a slightly negative disc is rounding noise only relative to the terms
    # that formed it; an absolute floor would misread tiny-entry matrices
    if disc >= -REAL_DISC_TOL * max(tr * tr, 4.0 * abs(det)):
        s = math.sqrt(disc) if disc > 0.0 else 0.0
        big = (tr + s) / 2.0 if tr >= 0.0 else (tr - s) / 2.0
        if big == 0.0:  # tr == s == 0 forces det == 0: double root at zero
            return EigenPair(complex(0.0, 0.0), complex(0.0, 0.0))
        other = det / big
        lo, hi = (other, big) if other <= big else (big, other)
        return EigenPair(complex(lo, 0.0), complex(hi, 0.0))
    re = tr / 2.0
    im = math.sqrt(-disc) / 2.0
    return EigenPair(complex(re, im), complex(re, -im))


def spectral_radius(m: Mat2) -> float:
    return eig2(m).max_modulus


def operator_norm(m: Mat2) -> float:
    h1 = math.hypot(m.a11 - m.a22, m.a12 + m.a21)
    h2 = math.hypot(m.a11 + m.a22, m.a12 - m.a21)
    return (h1 + h2) / 2.0


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class GridStrategy:
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ParameterError(f"grid needs at least one point per axis, got {self.nx}x{self.ny}")

    def describe(self) -> str:
        return f"grid {self.nx}x{self.ny}"


@dataclass(frozen=True, slots=True)
class RandomStrategy:
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 0:
            raise ParameterError(f"sample count must be >= 0, got {self.count}")

    def describe(self) -> str:
        return f"random n={self.count} seed={self.seed}"


def _lerp(lo: float, hi: float, i: int, n: int) -> float:
    if n <= 1:
        return lo
    return ((n - 1 - i) * lo + i * hi) / (n - 1)


def _log_radii(lo: float, hi: float, n: int) -> list[float]:
    """n radii from lo to hi, evenly spaced in log-radius (just hi when n == 1)."""
    if n == 1:
        return [hi]
    llo, lhi = math.log(lo), math.log(hi)
    return [math.exp(_lerp(llo, lhi, i, n)) for i in range(n)]


def _ring_points(radii, angles: int):
    """Points on one circle per radius, at evenly spaced angles from 0."""
    for r in radii:
        for j in range(angles):
            t = 2.0 * math.pi * j / angles
            yield Point2(r * math.cos(t), r * math.sin(t))


def _sweep_sup(points, value, sup: float = -math.inf, at=None):
    """Largest value(p) over the points, the first point attaining it (``at``
    if no value beats ``sup``), and the number of points visited."""
    count = 0
    for p in points:
        count += 1
        v = value(p)
        if v > sup:
            sup, at = v, p
    return sup, at, count


def _inf_on_overflow(value):
    """The sweep value ``value``, infinite where it overflows or is NaN."""
    def guarded(p):
        try:
            v = value(p)
        except NumericOverflowError:
            return math.inf
        return math.inf if math.isnan(v) else v
    return guarded


def _growth(f):
    """The sweep value p -> |f(p)| / |p|, infinite where f overflows."""
    return _inf_on_overflow(lambda p: f(p).norm() / p.norm())


def _sample_points(region: Rect, strategy):
    if isinstance(strategy, GridStrategy):
        for iy in range(strategy.ny):
            y = _lerp(region.ymin, region.ymax, iy, strategy.ny)
            for ix in range(strategy.nx):
                yield _lerp(region.xmin, region.xmax, ix, strategy.nx), y
    elif isinstance(strategy, RandomStrategy):
        rng = random.Random(strategy.seed)
        for _ in range(strategy.count):
            yield rng.uniform(region.xmin, region.xmax), rng.uniform(region.ymin, region.ymax)
    else:
        raise ParameterError(f"unknown sampling strategy: {strategy!r}")


@dataclass(frozen=True, slots=True)
class RealSpectrumSample:
    """One sample whose eigenvalue pair was real (lo <= hi)."""

    lo: float
    hi: float
    x: float
    y: float
    index: int


@dataclass(frozen=True, slots=True)
class Verdict:
    name: str
    passed: bool
    detail: str
    witness_value: float | None = None
    witness_at: Point2 | None = None


@dataclass(frozen=True, slots=True)
class SpectrumReport:
    map_desc: str
    strategy: str
    sample_count: int
    overflow_count: int
    max_modulus: float | None
    max_modulus_at: Point2 | None
    real_count: int
    min_real: float | None
    min_real_at: Point2 | None
    max_real: float | None
    max_real_at: Point2 | None
    real_samples: tuple[RealSpectrumSample, ...]


def sample_spectrum(m: PlanarMap, region: Rect, strategy) -> SpectrumReport:
    count = 0
    overflow = 0
    max_mod = None
    max_mod_at = None
    real_count = 0
    min_real = max_real = None
    min_real_at = max_real_at = None
    reals = []
    for idx, (x, y) in enumerate(_sample_points(region, strategy)):
        count += 1
        p = Point2(x, y)
        try:
            jac = m.jacobian(p)
        except NumericOverflowError:
            overflow += 1
            continue
        pair = eig2(jac)
        mod = pair.max_modulus
        if not math.isfinite(mod):
            # finite entries can still overflow tr^2 - 4 det
            overflow += 1
            continue
        if max_mod is None or mod > max_mod:
            max_mod = mod
            max_mod_at = p
        if pair.is_real:
            real_count += 1
            lo, hi = pair.l1.real, pair.l2.real
            reals.append(RealSpectrumSample(lo, hi, x, y, idx))
            if min_real is None or lo < min_real:
                min_real = lo
                min_real_at = p
            if max_real is None or hi > max_real:
                max_real = hi
                max_real_at = p
    return SpectrumReport(
        map_desc=m.describe(), strategy=strategy.describe(),
        sample_count=count, overflow_count=overflow,
        max_modulus=max_mod, max_modulus_at=max_mod_at,
        real_count=real_count,
        min_real=min_real, min_real_at=min_real_at,
        max_real=max_real, max_real_at=max_real_at,
        real_samples=tuple(reals))


def _overflow_verdict(name: str, report: SpectrumReport) -> Verdict:
    return Verdict(name=name, passed=False,
                   detail=f"{report.overflow_count} of {report.sample_count} samples overflowed; "
                          "the sweep cannot certify a spectrum bound")


def check_ball(report: SpectrumReport, radius: float) -> Verdict:
    """All sampled eigenvalue moduli strictly below radius."""
    if not radius > 0.0:
        raise ParameterError(f"ball radius must be positive, got {radius!r}")
    name = f"ball:{radius!r}"
    if report.overflow_count:
        return _overflow_verdict(name, report)
    if report.max_modulus is None:
        return Verdict(name=name, passed=False,
                       detail="no samples; the sweep cannot certify a spectrum bound")
    passed = report.max_modulus < radius
    return Verdict(name=name, passed=passed,
                   detail=f"max sampled |lambda| = {report.max_modulus!r} vs bound {radius!r}",
                   witness_value=report.max_modulus, witness_at=report.max_modulus_at)


def check_interval_free(report: SpectrumReport, lo: float, hi: float) -> Verdict:
    """No sampled real eigenvalue falls in the half-open interval [lo, hi)."""
    if not lo < hi:
        raise ParameterError(f"interval must satisfy lo < hi, got [{lo!r}, {hi!r})")
    name = f"interval-free:[{lo!r},{hi!r})"
    if report.overflow_count:
        return _overflow_verdict(name, report)
    if report.sample_count == 0:
        return Verdict(name=name, passed=False,
                       detail="no samples; the sweep cannot certify a spectrum bound")
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
    if report.overflow_count:
        return _overflow_verdict(name, report)
    if report.sample_count == 0:
        return Verdict(name=name, passed=False,
                       detail="no samples; the sweep cannot certify a spectrum bound")
    if report.real_count:
        s = report.real_samples[0]
        return Verdict(name=name, passed=False,
                       detail=f"{report.real_count} samples had real spectrum; "
                              f"first at sample {s.index}",
                       witness_value=s.lo, witness_at=Point2(s.x, s.y))
    return Verdict(name=name, passed=True,
                   detail=f"all {report.sample_count} samples had complex pairs")


def sample_norm_sup(m: PlanarMap, region: Rect, strategy) -> float:
    """Max operator norm of the Jacobian over the sample set.

    Returns inf when any sample overflows: an overflowing Jacobian has no
    finite norm bound, and callers use this value as an upper estimate.
    """
    points = (Point2(x, y) for x, y in _sample_points(region, strategy))
    return _sweep_sup(points, _inf_on_overflow(lambda p: operator_norm(m.jacobian(p))), 0.0)[0]
