"""The planar map family and its Jacobians.

Five variants share one interface: linear maps, the Szlenk cubic map

    F(x, y) = (-k y^3 / (1 + x^2 + y^2),  k x^3 / (1 + x^2 + y^2)),

its damped version F - a*Id, radial squashing by a profile phi, and the
composition ``CompositeMap(outer, inner)`` of two maps (longer chains nest).
Each variant supplies two float kernels: ``xy(x, y)``, the image, and
``jac(x, y)``, the row-major Jacobian entries as a 4-tuple.  The kernels are
total: they return floats, non-finite where the value leaves the doubles, and
never raise.  Every leaf kernel maps a non-finite input to an image with a
non-finite component, so a composite's image is non-finite wherever an
intermediate one is.  ``PlanarMap`` derives the rest from the kernels:
``eval`` and ``jacobian`` run the kernel once and check the result for
finiteness, the one place where an overflow becomes NumericOverflowError, and
hot loops call the unchecked ``xy`` and ``jac`` themselves, so every path
shares one arithmetic.  The Jacobian sup sweeps of ``dmy.spectral`` apply
``_jac``'s finiteness test, ``_finite_jac``, only at a sample their pre-test
keeps: a non-finite entry fails every pre-test, so a sample that passes one
has the finite entries ``_jac`` would have returned.  ``_mul`` is the one
ordered 2x2 product on floats: the composite's chain rule and Newton's
(``_chain_product``, a fold) use it.
Map objects are immutable and the kernels are pure functions of their
arguments, so instances can be shared freely across threads or processes.

The cubic kernels are module functions of the map, bound as ``SzlenkMap.xy``
and ``jac``; the damped variant calls them and then subtracts a*(x, y) term by
term, so its image and Jacobian are exactly the undamped ones shifted.

Every variant is odd, f(-p) = -f(p), and its ``xy`` kernel keeps that
exactly: products, quotients by the even denominator 1 + x^2 + y^2, sums
(round-to-nearest rounds a + b and (-a) + (-b) alike) and ``hypot`` are
symmetric in sign, so ``xy(-x, -y) == (-fx, -fy)``.  Only the sign of a
zero can differ (an exact cancellation gives +0.0 either way), and no
kernel reads the sign of a zero, so an orbit from -p is, norm for norm, the
negated orbit from p.  The Jacobian of an odd map is even, and the ``jac``
kernel keeps that too: ``jac(-x, -y) == jac(x, y)`` entry for entry, as
float equality (zero signs are free), by the same symmetry of each
operation; the composite's chain rule multiplies factors taken at images
that are exact negations.  So at -p exactly when at p, ``jac`` returns a
non-finite entry and ``_jac`` raises NumericOverflowError.  The class
constant ``odd`` states this promise;
``basin_raster`` relies on it to classify each antipodal pair of cells once,
and ``sample_spectrum`` to evaluate each antipodal pair of grid samples
once.  It is False on ``PlanarMap``, True on the four leaf variants and,
on a composite, True when both ``outer`` and ``inner`` are odd.  A subclass
that overrides ``xy`` or ``jac`` must set ``odd`` again, because it is
inherited with the kernels it describes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from .errors import NumericOverflowError, ParameterError
from .geometry import Mat2, Point2, record
from .phi import PhiProfile, _phi_parts

K_MAX = 2.0 / math.sqrt(3.0)  # Szlenk parameter lives in the open interval (1, K_MAX)
# iterate's and OmegaConfig's default, so also classify_omega's and the CLI's
# orbit --escape-radius and basin --escape-radius
ESCAPE_RADIUS = 1e9


def _szlenk_xy(m, x, y):
    k = m.k
    d = 1.0 + x * x + y * y
    return -(k * y * y * y) / d, (k * x * x * x) / d


def _szlenk_jac(m, x, y):
    # partials of (-k y^3/d, k x^3/d) with d = 1 + x^2 + y^2:
    #   d/dx(-k y^3/d) =  2 k x y^3 / d^2
    #   d/dy(-k y^3/d) = -k y^2 (3 + 3 x^2 + y^2) / d^2
    #   d/dx( k x^3/d) =  k x^2 (3 + x^2 + 3 y^2) / d^2
    #   d/dy( k x^3/d) = -2 k x^3 y / d^2
    k = m.k
    d = 1.0 + x * x + y * y
    d2 = d * d
    return (
        2.0 * k * x * y * y * y / d2,
        -k * y * y * (3.0 + 3.0 * x * x + y * y) / d2,
        k * x * x * (3.0 + x * x + 3.0 * y * y) / d2,
        -2.0 * k * x * x * x * y / d2,
    )


def _finite_jac(j11, j12, j21, j22) -> bool:
    """True when no Jacobian entry is inf or NaN: the check ``PlanarMap._jac``
    makes, and the one the sweeps make on a raw ``jac`` result that their
    pre-test did not rule out."""
    return (math.isfinite(j11) and math.isfinite(j12)
            and math.isfinite(j21) and math.isfinite(j22))


def _mul(a, b):
    """a b for row-major 4-tuples, by ``Mat2.__matmul__``'s formulas (+ and * only)."""
    (a11, a12, a21, a22), (b11, b12, b21, b22) = a, b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def _chain_product(start, factors):
    """F_n ... F_1 start, each factor put on the left by ``_mul``.  Starting
    from the identity instead of F_1 can flip the sign of a zero entry."""
    for f in factors:
        start = _mul(f, start)
    return start


class PlanarMap(ABC):
    """A differentiable self-map of the plane, given by two float kernels.

    The kernels return their result unchecked and never raise: a non-finite
    component means the evaluation left the doubles, and callers of the raw
    kernels must treat it as an escape.  A non-finite input gives a non-finite
    image.  ``eval`` and ``jacobian`` are the checked forms.
    ``odd`` is True only when ``xy(-x, -y) == (-fx, -fy)`` and
    ``jac(-x, -y) == jac(x, y)`` everywhere (float equality, so zero signs
    are free), ``_image`` and ``_jac`` raise NumericOverflowError at -p
    exactly when they do at p, and the sign of a zero input changes at most
    the signs of zeros in the image and the Jacobian.
    """

    odd = False

    @abstractmethod
    def xy(self, x: float, y: float) -> tuple[float, float]:
        """Image of (x, y), unchecked."""

    @abstractmethod
    def jac(self, x: float, y: float) -> tuple[float, float, float, float]:
        """Analytic Jacobian entries (a11, a12, a21, a22) at (x, y), unchecked."""

    @abstractmethod
    def describe(self) -> str:
        """Short human-readable tag used in reports and error messages."""

    def eval(self, p: Point2) -> Point2:
        """Image of p; raises NumericOverflowError if a component leaves the doubles."""
        x, y = self._image(p.x, p.y)
        return Point2(x, y)

    def jacobian(self, p: Point2) -> Mat2:
        """Analytic Jacobian at p; raises NumericOverflowError on a non-finite entry."""
        return Mat2(*self._jac(p.x, p.y))

    def _image(self, x: float, y: float) -> tuple[float, float]:
        """``xy(x, y)``, raising NumericOverflowError on a non-finite component."""
        fx, fy = self.xy(x, y)
        if not (math.isfinite(fx) and math.isfinite(fy)):
            raise NumericOverflowError(
                f"{self.describe()} overflowed evaluating ({x!r}, {y!r})")
        return fx, fy

    def _jac(self, x: float, y: float) -> tuple[float, float, float, float]:
        """``jac(x, y)``, raising NumericOverflowError on a non-finite entry."""
        j = self.jac(x, y)
        if not _finite_jac(*j):
            raise NumericOverflowError(
                f"{self.describe()} Jacobian overflowed at ({x!r}, {y!r})")
        return j


# Every variant binds ``eval`` and ``jacobian`` in its own class body, so
# they can be wrapped or patched one variant at a time.

@record
class LinearMap(PlanarMap):
    matrix: Mat2

    def xy(self, x, y):
        m = self.matrix
        return m.a11 * x + m.a12 * y, m.a21 * x + m.a22 * y

    def jac(self, x, y):
        m = self.matrix
        return m.a11, m.a12, m.a21, m.a22

    odd = True
    eval = PlanarMap.eval
    jacobian = PlanarMap.jacobian

    def describe(self):
        m = self.matrix
        return f"linear[[{m.a11!r},{m.a12!r}],[{m.a21!r},{m.a22!r}]]"


def _check_k(k: float) -> None:
    if not (1.0 < k < K_MAX):
        raise ParameterError(
            f"szlenk parameter must satisfy 1 < k < 2/sqrt(3) ~= {K_MAX:.10f}, got {k!r}")


@record
class SzlenkMap(PlanarMap):
    k: float

    def __post_init__(self):
        _check_k(self.k)

    xy = _szlenk_xy
    jac = _szlenk_jac
    odd = True
    eval = PlanarMap.eval
    jacobian = PlanarMap.jacobian

    def describe(self):
        return f"szlenk(k={self.k!r})"


@record
class DampedSzlenkMap(PlanarMap):
    """Szlenk map minus a times the identity."""

    k: float
    a: float

    def __post_init__(self):
        _check_k(self.k)
        if not (0.0 < self.a < 1.0):
            raise ParameterError(f"damping must satisfy 0 < a < 1, got {self.a!r}")

    def xy(self, x, y):
        a = self.a
        fx, fy = _szlenk_xy(self, x, y)
        return fx - a * x, fy - a * y

    def jac(self, x, y):
        a = self.a
        j11, j12, j21, j22 = _szlenk_jac(self, x, y)
        return j11 - a, j12, j21, j22 - a

    odd = True
    eval = PlanarMap.eval
    jacobian = PlanarMap.jacobian

    def describe(self):
        return f"ga(k={self.k!r}, a={self.a!r})"


@record
class RadialMap(PlanarMap):
    """Scale p by phi(|p|): identity on the flat disc, times the floor far out."""

    profile: PhiProfile

    def xy(self, x, y):
        prof = self.profile
        r = math.hypot(x, y)
        if r <= prof.R:
            return x, y  # phi == 1.0 on the flat disc, and 1.0 * x is x
        f = _phi_parts(prof, r, False)
        return f * x, f * y

    def jac(self, x, y):
        r = math.hypot(x, y)
        f, ls = _phi_parts(self.profile, r)
        fp = ls / r if ls else 0.0  # phi'(r); a tiny slope far out can underflow
        if fp == 0.0:
            # flat zones, the origin included: exactly f times the identity
            return f, 0.0, 0.0, f
        s = fp / r
        sxy = s * x * y
        return f + s * x * x, sxy, sxy, f + s * y * y

    odd = True
    eval = PlanarMap.eval
    jacobian = PlanarMap.jacobian

    def describe(self):
        pr = self.profile
        return f"radial(R={pr.R!r}, C={pr.C!r}, eps={pr.eps!r})"


@record
class CompositeMap(PlanarMap):
    """``outer`` after ``inner``; longer chains nest."""

    outer: PlanarMap
    inner: PlanarMap

    def __post_init__(self):
        for m in (self.outer, self.inner):
            if not isinstance(m, PlanarMap):
                raise ParameterError(f"composite member is not a planar map: {m!r}")

    def xy(self, x, y):
        # unpacked: a starred call outer.xy(*inner.xy(x, y)) costs about 10% more
        x, y = self.inner.xy(x, y)
        return self.outer.xy(x, y)

    def jac(self, x, y):
        # chain rule started from the inner factor, not the identity, which can
        # flip a zero's sign; the intermediate point is unchecked, as in xy:
        # _jac checks the product, as _image checks the final image
        inner = self.inner
        first = inner.jac(x, y)
        x, y = inner.xy(x, y)
        return _mul(self.outer.jac(x, y), first)

    @property
    def odd(self):
        return self.outer.odd and self.inner.odd

    eval = PlanarMap.eval
    jacobian = PlanarMap.jacobian

    def describe(self):
        return f"compose({self.outer.describe()} o {self.inner.describe()})"


def compose(outer: PlanarMap, inner: PlanarMap) -> CompositeMap:
    """outer after inner."""
    return CompositeMap(outer, inner)


def step_function(m: PlanarMap):
    """The unchecked image kernel ``m.xy``; callers must treat non-finite
    output as an escape."""
    return m.xy


def fd_jacobian(m: PlanarMap, p: Point2, h: float) -> Mat2:
    """Central-difference Jacobian, the ground-truth oracle for the analytic ones."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ParameterError(f"step must be positive and finite, got {h!r}")
    fxp = m.eval(Point2(p.x + h, p.y))
    fxm = m.eval(Point2(p.x - h, p.y))
    fyp = m.eval(Point2(p.x, p.y + h))
    fym = m.eval(Point2(p.x, p.y - h))
    inv = 1.0 / (2.0 * h)
    return Mat2((fxp.x - fxm.x) * inv, (fyp.x - fym.x) * inv,
                (fxp.y - fxm.y) * inv, (fyp.y - fym.y) * inv)


@record
class Orbit:
    """A finite orbit segment.  ``escaped`` marks early termination, either
    because the norm passed the escape radius (the offending point is kept as
    the last entry) or because the evaluation overflowed (orbit truncated)."""

    points: tuple[Point2, ...]
    escaped: bool


def iterate(m: PlanarMap, p: Point2, n: int, escape_radius: float = ESCAPE_RADIUS) -> Orbit:
    if n < 0:
        raise ParameterError(f"iteration count must be >= 0, got {n!r}")
    if not escape_radius > 0.0:
        raise ParameterError(f"escape radius must be positive, got {escape_radius!r}")
    pts = [p]
    cur = p
    for _ in range(n):
        try:
            cur = m.eval(cur)
        except NumericOverflowError:
            return Orbit(tuple(pts), True)
        pts.append(cur)
        if cur.norm() > escape_radius:
            return Orbit(tuple(pts), True)
    return Orbit(tuple(pts), False)
