import math
import pickle
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from dmy import (CompositeMap, DampedSzlenkMap, K_MAX, LinearMap, Mat2,
                 NumericOverflowError, ParameterError, PlanarMap, Point2, RadialMap,
                 SzlenkMap, build_phi, compose, fd_jacobian, iterate,
                 step_function)
from dmy.phi import phi_eval
from dmy.planar import _chain_product

_ID = Mat2(1.0, 0.0, 0.0, 1.0)


def _max_abs(m):
    return max(abs(m.a11), abs(m.a12), abs(m.a21), abs(m.a22))


def test_k_max_value():
    assert K_MAX == 2.0 / math.sqrt(3.0)


@pytest.mark.parametrize("k", [1.0, 0.5, 2.0 / math.sqrt(3.0), 1.2, -1.0])
def test_szlenk_rejects_bad_parameter(k):
    with pytest.raises(ParameterError):
        SzlenkMap(k)


def test_szlenk_frozen_values():
    f = SzlenkMap(1.01)
    assert f.eval(Point2(0.0, 0.0)) == Point2(0.0, 0.0)
    q = f.eval(Point2(1.0, 1.0))
    assert q.x == -1.01 / 3.0 and q.y == 1.01 / 3.0
    # the axis point at radius 1/sqrt(k-1) cycles exactly in doubles
    orb = iterate(f, Point2(10.0, 0.0), 4)
    assert [tuple(p) for p in orb.points] == [
        (10.0, 0.0), (-0.0, 10.0), (-10.0, -0.0), (0.0, -10.0), (10.0, 0.0)]
    assert orb.final.dist(Point2(10.0, 0.0)) == 0.0


def test_szlenk_axis_jacobians_are_nilpotent():
    f = SzlenkMap(1.01)
    t = 7.0
    c = 1.01 * t * t * (3.0 + t * t) / (1.0 + t * t) ** 2
    jx = f.jacobian(Point2(t, 0.0))
    assert (jx.a11, jx.a12, jx.a22) == (0.0, 0.0, 0.0)
    assert jx.a21 == pytest.approx(c, rel=1e-15)
    jy = f.jacobian(Point2(0.0, t))
    assert (jy.a11, jy.a21, jy.a22) == (0.0, 0.0, 0.0)
    assert jy.a12 == pytest.approx(-c, rel=1e-15)
    assert jx.det == 0.0 and jx.trace == 0.0


def test_szlenk_origin_jacobian_is_zero():
    assert SzlenkMap(1.01).jacobian(Point2(0.0, 0.0)) == Mat2(0.0, 0.0, 0.0, 0.0)


def test_damped_is_exact_shift_of_szlenk():
    # bit for bit, zero signs included: the damped kernels shift the one cubic
    # arithmetic and have none of their own
    f = SzlenkMap(1.05)
    g = DampedSzlenkMap(1.05, 0.01)
    for x, y in ((3.0, -4.0), (10.0, 0.0), (-0.3, 0.7), (0.0, 2.5), (-0.0, -2.5),
                 (-7.0, -0.0), (7.0, 0.0), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
                 (-0.0, -0.0), (1e-200, -1e150)):
        fx, fy = f.xy(x, y)
        assert _raw(g.xy(x, y)) == _raw((fx - 0.01 * x, fy - 0.01 * y))
        j11, j12, j21, j22 = f.jac(x, y)
        assert _raw(g.jac(x, y)) == _raw((j11 - 0.01, j12, j21, j22 - 0.01))


def test_damped_parameter_validation():
    with pytest.raises(ParameterError):
        DampedSzlenkMap(1.01, 1.0)
    with pytest.raises(ParameterError):
        DampedSzlenkMap(1.01, -0.1)
    with pytest.raises(ParameterError):
        DampedSzlenkMap(1.5, 0.1)


def test_linear_map():
    m = LinearMap(Mat2(2.0, 0.0, 0.0, 0.5))
    assert m.eval(Point2(1.0, 2.0)) == Point2(2.0, 1.0)
    assert m.jacobian(Point2(9.0, 9.0)) == Mat2(2.0, 0.0, 0.0, 0.5)


def test_radial_map_is_identity_on_flat_disc():
    prof = build_phi(20.0, 2.0, 0.05)
    h = RadialMap(prof)
    for p in (Point2(0.0, 0.0), Point2(3.0, 4.0), Point2(-20.0, 0.0)):
        assert h.eval(p) == p
        assert h.jacobian(p) == _ID


def test_radial_map_scales_by_floor_in_tail():
    prof = build_phi(20.0, 2.0, 0.05)
    h = RadialMap(prof)
    p = Point2(1e55, -1e55)
    q = h.eval(p)
    assert q == Point2(0.25 * p.x, 0.25 * p.y)
    assert h.jacobian(p) == Mat2(0.25, 0.0, 0.0, 0.25)


def test_radial_map_preserves_direction():
    prof = build_phi(20.0, 2.0, 0.05)
    h = RadialMap(prof)
    p = Point2(3e3, 4e3)
    q = h.eval(p)
    # q = phi(|p|) p up to one rounding per component, so the cross product
    # with p is tiny relative to the norms rather than exactly zero
    assert abs(q.x * p.y - q.y * p.x) <= 1e-12 * q.norm() * p.norm()
    assert 0.25 * p.norm() <= q.norm() <= p.norm()


def test_compose_is_binary():
    f = SzlenkMap(1.01)
    g = DampedSzlenkMap(1.01, 0.005)
    h = RadialMap(build_phi(20.0, 2.0, 0.05))
    assert list(CompositeMap._fields) == ["outer", "inner"]
    c1 = compose(h, g)
    assert c1 == CompositeMap(h, g)
    assert c1.outer is h and c1.inner is g
    # longer chains nest as they were composed
    c2 = compose(c1, f)
    assert c2.outer is c1 and c2.inner is f
    c3 = compose(f, c1)
    assert c3.outer is f and c3.inner is c1
    assert c1.describe() == f"compose({h.describe()} o {g.describe()})"
    assert c3.describe() == f"compose({f.describe()} o {c1.describe()})"
    for outer, inner in ((h, "g"), ("h", g), (None, g)):
        with pytest.raises(ParameterError, match="not a planar map"):
            CompositeMap(outer, inner)


def test_composite_applies_right_to_left():
    double = LinearMap(Mat2(2.0, 0.0, 0.0, 2.0))
    shift_like = LinearMap(Mat2(1.0, 1.0, 0.0, 1.0))
    c = compose(double, shift_like)
    p = Point2(1.0, 1.0)
    assert c.eval(p) == double.eval(shift_like.eval(p))


def test_composite_chain_rule_matches_finite_differences():
    g = DampedSzlenkMap(1.01, 0.005)
    h = RadialMap(build_phi(20.0, 2.0, 0.05))
    c = compose(h, g)
    for p in (Point2(25.0, 13.0), Point2(-40.0, 2.0), Point2(0.5, 0.25)):
        a = c.jacobian(p)
        fd = fd_jacobian(c, p, 1e-6)
        assert _max_abs(a - fd) <= max(1e-6 * _max_abs(a), 1e-9)


def test_describe_strings():
    assert SzlenkMap(1.01).describe() == "szlenk(k=1.01)"
    assert DampedSzlenkMap(1.01, 0.005).describe() == "ga(k=1.01, a=0.005)"
    assert "linear" in LinearMap(_ID).describe()
    assert RadialMap(build_phi(20.0, 2.0, 0.05)).describe() == \
        "radial(R=20.0, C=2.0, eps=0.05)"


def test_maps_are_picklable():
    radial = RadialMap(build_phi(20.0, 2.0, 0.05))
    damped = DampedSzlenkMap(1.01, 0.005)
    turn = LinearMap(Mat2(0.6, -0.8, 0.8, 0.6))
    # basin_raster's pool sends maps to its workers by pickle, nested ones included
    for c in (compose(radial, damped), compose(turn, compose(radial, damped)),
              CompositeMap(CompositeMap(turn, radial), CompositeMap(damped, turn))):
        c2 = pickle.loads(pickle.dumps(c))
        assert c2 == c and c2.odd
        for p in (Point2(17.0, -9.0), Point2(-250.0, 3.5)):
            assert c2.eval(p) == c.eval(p)
            assert c2.jacobian(p) == c.jacobian(p)


def test_step_function_matches_eval(bundle):
    r_tail = bundle.profile.r_tail
    for m in (SzlenkMap(1.01), DampedSzlenkMap(1.01, 0.005),
              LinearMap(Mat2(0.5, 1.0, 0.0, 0.5)),
              compose(RadialMap(build_phi(20.0, 2.0, 0.05)), SzlenkMap(1.01)),
              bundle.composite):
        step = step_function(m)
        for p in (Point2(1.0, 2.0), Point2(-7.0, 0.1), Point2(30.0, -30.0),
                  Point2(2.0 * r_tail, -r_tail)):
            assert step(p.x, p.y) == tuple(m.eval(p))


def _bits(f, x, y):
    """f(x, y) as raw bytes per component, or the type of the escape it raises."""
    try:
        return tuple(struct.pack("<d", v) for v in f(x, y))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def test_radial_kernel_flat_disc_is_bit_equal_to_scaling_by_phi():
    prof = build_phi(20.0, 2.0, 0.05)
    h = RadialMap(prof)
    inside, outside = math.nextafter(20.0, 0.0), math.nextafter(20.0, math.inf)
    points = [(20.0, 0.0), (-0.0, -20.0), (12.0, 16.0), (-12.0, 16.0),
              (inside, 0.0), (0.0, -inside), (outside, 0.0), (-outside, -0.0),
              (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
              (1e-320, -3.0), (40.0, 1.0), (1e55, -1e55)]
    assert math.hypot(12.0, 16.0) == 20.0
    for x, y in points:
        r = math.hypot(x, y)
        assert _bits(h.xy, x, y) == _bits(lambda x, y: (phi_eval(prof, r) * x,
                                                        phi_eval(prof, r) * y), x, y)


def test_radial_kernel_nan_radius_still_raises():
    h = RadialMap(build_phi(20.0, 2.0, 0.05))
    for x, y in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ParameterError):
            h.xy(x, y)


def test_eval_overflow_raises():
    m = LinearMap(Mat2(1e200, 0.0, 0.0, 1e200))
    with pytest.raises(NumericOverflowError):
        m.eval(Point2(1e200, 1e200))


def test_szlenk_jacobian_overflow_raises():
    with pytest.raises(NumericOverflowError):
        SzlenkMap(1.01).jacobian(Point2(1e200, 1e200))


def test_iterate_escape():
    m = LinearMap(Mat2(2.0, 0.0, 0.0, 2.0))
    orb = iterate(m, Point2(1.0, 0.0), 100, escape_radius=1e6)
    assert orb.escaped
    assert orb.final.norm() > 1e6
    assert len(orb.points) < 102


def test_iterate_szlenk_20_is_slow_to_escape():
    # the axis growth factor is only k per step, so 200 steps stay bounded
    f = SzlenkMap(1.01)
    orb = iterate(f, Point2(20.0, 0.0), 200)
    assert not orb.escaped
    assert 100.0 < orb.final.norm() < 200.0
    orb2 = iterate(f, Point2(20.0, 0.0), 2000)
    assert orb2.escaped
    assert len(orb2.points) == 1798  # escape detected at iterate 1797


def test_iterate_validates_args():
    with pytest.raises(ParameterError):
        iterate(SzlenkMap(1.01), Point2(1.0, 0.0), -1)
    with pytest.raises(ParameterError):
        iterate(SzlenkMap(1.01), Point2(1.0, 0.0), 5, escape_radius=0.0)


def test_fd_jacobian_validates_step():
    with pytest.raises(ParameterError):
        fd_jacobian(SzlenkMap(1.01), Point2(1.0, 1.0), 0.0)


coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(coord, coord)
def test_analytic_jacobians_match_finite_differences(x, y):
    p = Point2(x, y)
    for m in (SzlenkMap(1.01), DampedSzlenkMap(1.01, 0.005),
              SzlenkMap(1.12), DampedSzlenkMap(1.05, 0.2)):
        a = m.jacobian(p)
        fd = fd_jacobian(m, p, 1e-6)
        assert _max_abs(a - fd) <= max(1e-6 * _max_abs(a), 1e-9)


def test_jacobian_fd_sweep_all_variants(bundle):
    rng = random.Random(20240817)
    maps = [LinearMap(Mat2(0.3, -1.2, 0.7, 0.4)), SzlenkMap(1.01),
            DampedSzlenkMap(1.01, 0.005), bundle.radial, bundle.composite]
    for _ in range(200):
        p = Point2(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        for m in maps:
            a = m.jacobian(p)
            fd = fd_jacobian(m, p, 1e-6)
            assert _max_abs(a - fd) <= max(1e-6 * _max_abs(a), 1e-9), m.describe()


def _mat2_chain(start, factors):
    """The ordered product with Mat2.__matmul__, each factor on the left."""
    acc = Mat2(*start)
    for f in factors:
        acc = Mat2(*f) @ acc
    return acc.a11, acc.a12, acc.a21, acc.a22


def _raw(entries):
    return tuple(struct.pack("<d", v) for v in entries)


_SIGNED_ZERO_FACTORS = [(-0.0, 1.0, 0.0, -0.0), (0.0, -0.0, -0.0, 0.0), (-0.0, -0.0, -0.0, -0.0),
                        (1.0, -0.0, 0.0, -1.0), (-2.0, 0.0, -0.0, 3.0), (0.5, 0.25, -0.0, 0.0)]


def test_chain_product_is_bit_equal_to_mat2_chain_on_signed_zeros():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        factors = [rng.choice(_SIGNED_ZERO_FACTORS) for _ in range(n)]
        assert (_raw(_chain_product((1.0, 0.0, 0.0, 1.0), factors))
                == _raw(_mat2_chain((1.0, 0.0, 0.0, 1.0), factors)))
        assert _raw(_chain_product(factors[0], factors[1:])) == _raw(_mat2_chain(factors[0],
                                                                                 factors[1:]))
    # the start is part of the contract: the identity start turns F's -0.0 into +0.0
    f = (-0.0, 1.0, 0.0, -0.0)
    assert _raw(_chain_product((1.0, 0.0, 0.0, 1.0), [f])) != _raw(_chain_product(f, []))


def _mat2_jacobian(m, x, y):
    """Jacobian entries by Mat2 products, recursing into nested composites."""
    if not isinstance(m, CompositeMap):
        return m.jac(x, y)
    acc = (Mat2(*_mat2_jacobian(m.outer, *m.inner.xy(x, y)))
           @ Mat2(*_mat2_jacobian(m.inner, x, y)))
    return acc.a11, acc.a12, acc.a21, acc.a22


def _chain(*maps):
    """compose(m1, compose(m2, ... mn)): the right-nested chain, mn applied first."""
    c = maps[-1]
    for m in reversed(maps[:-1]):
        c = compose(m, c)
    return c


def _sequential(maps):
    """The kernels of maps[0] o ... o maps[-1] applied one map at a time, the
    Jacobian as the one ordered product from the innermost factor."""
    inner_first = maps[::-1]

    def xy(x, y):
        for m in inner_first:
            x, y = m.xy(x, y)
        return x, y

    def image(x, y):
        for m in inner_first:
            x, y = m._image(x, y)
        return x, y

    def factors(x, y):
        out = [inner_first[0].jac(x, y)]
        for m, nxt in zip(inner_first, inner_first[1:]):
            x, y = m._image(x, y)
            out.append(nxt.jac(x, y))
        return out

    def jac(x, y):
        fs = factors(x, y)
        return _chain_product(fs[0], fs[1:])

    return xy, image, jac, factors


def _outcome(f, x, y):
    """_bits, or the type and message of the escape f raises."""
    try:
        return tuple(struct.pack("<d", v) for v in f(x, y))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _composite_points(seed, max_exp):
    rng = random.Random(seed)
    points = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (10.0, -0.0), (-0.0, 30.0)]
    for _ in range(200):
        mag = 10.0 ** rng.uniform(-3.0, max_exp)
        t = rng.uniform(0.0, 2.0 * math.pi)
        points.append((mag * math.cos(t), mag * math.sin(t)))
    return points


_FLIP = LinearMap(Mat2(-0.0, 1.0, 0.0, -0.0))
_TURN = LinearMap(Mat2(0.6, -0.8, 0.8, 0.6))


def test_right_nested_chains_match_the_sequential_kernels():
    radial = RadialMap(build_phi(20.0, 2.0, 0.05))
    damped = DampedSzlenkMap(1.01, 0.005)
    chains = [(radial, damped), (_FLIP, damped), (radial, damped, _FLIP),
              (_FLIP, _TURN, _FLIP), (_TURN, radial, damped),
              (_FLIP, radial, damped, _FLIP),
              (_TURN, SzlenkMap(1.01), LinearMap(Mat2(1e200, 0.0, 0.0, 1e200)))]
    points = _composite_points(3, 300.0) + [(1e200, 1e200), (-1e160, 3.0)]
    overflowed = False
    for maps in chains:
        c = _chain(*maps)
        xy, image, jac, factors = _sequential(maps)
        for x, y in points:
            assert _outcome(c.xy, x, y) == _outcome(xy, x, y), (c.describe(), x, y)
            got = _outcome(c._image, x, y)
            assert got == _outcome(image, x, y), (c.describe(), x, y)
            overflowed |= got[0] is NumericOverflowError
            got = _outcome(c.jac, x, y)
            assert got == _outcome(jac, x, y), (c.describe(), x, y)
            if _outcome(c._jac, x, y)[0] is not NumericOverflowError:  # Mat2 needs finite entries
                assert got == _raw(_mat2_jacobian(c, x, y))
                fs = factors(x, y)
                assert got == _raw(_mat2_chain(fs[0], fs[1:]))
    # a checked image stops at the first map that leaves the doubles
    assert overflowed


def test_composite_jacobian_is_bit_equal_to_mat2_chain(bundle):
    radial = RadialMap(build_phi(20.0, 2.0, 0.05))
    damped = DampedSzlenkMap(1.01, 0.005)
    # left nesting rounds the product in its own order, which the Mat2
    # recursion follows too
    composites = [bundle.composite, CompositeMap(_FLIP, damped),
                  _chain(radial, damped, _FLIP), _chain(_FLIP, _TURN, _FLIP),
                  CompositeMap(CompositeMap(_TURN, radial), damped),
                  CompositeMap(CompositeMap(_FLIP, radial), CompositeMap(damped, _FLIP))]
    for c in composites:
        for x, y in _composite_points(5, 40.0):
            want = _raw(_mat2_jacobian(c, x, y))
            assert _raw(c.jac(x, y)) == want, (c.describe(), x, y)
            factors = [c.inner.jac(x, y), c.outer.jac(*c.inner.xy(x, y))]
            assert _raw(_chain_product(factors[0], factors[1:])) == want
            assert (_raw(_chain_product((1.0, 0.0, 0.0, 1.0), factors))
                    == _raw(_mat2_chain((1.0, 0.0, 0.0, 1.0), factors)))


# ------------------------------------------------------------------ oddness


class _ShiftMap(PlanarMap):
    """p + (1, 0): inherits odd = False from PlanarMap."""

    def xy(self, x, y):
        return x + 1.0, y

    def jac(self, x, y):
        return 1.0, 0.0, 0.0, 1.0

    def describe(self):
        return "shift"


_RADIAL = RadialMap(build_phi(20.0, 2.0, 0.05))
_PAPER_RADIAL = RadialMap(build_phi(19.99999999999999, 1.5907629949682967, 0.05))
_DAMPED = DampedSzlenkMap(1.01, 0.005)
_ODD_MAPS = [LinearMap(Mat2(0.5, 1.0, 0.0, 0.5)), LinearMap(Mat2(1.0, 1.0, -1.0, 1.0)),
             LinearMap(Mat2(-0.0, -1.2, 0.9, 0.0)), SzlenkMap(1.01), SzlenkMap(1.15),
             _DAMPED, DampedSzlenkMap(1.05, 0.2), _RADIAL, _PAPER_RADIAL,
             compose(_PAPER_RADIAL, _DAMPED),
             CompositeMap(CompositeMap(_RADIAL, _DAMPED), LinearMap(Mat2(0.6, -0.8, 0.8, 0.6))),
             compose(SzlenkMap(1.01), compose(_RADIAL, compose(_DAMPED, _TURN)))]


def _image_or_escape(m, x, y):
    try:
        return m.xy(x, y)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _same_float(a, b):
    # a zero may come back with either sign: an exact cancellation rounds to
    # +0.0 at p and at -p alike
    return a == b or (math.isnan(a) and math.isnan(b))


def test_odd_flags():
    assert PlanarMap.odd is False and _ShiftMap().odd is False
    assert all(m.odd for m in _ODD_MAPS)
    assert not CompositeMap(_RADIAL, _ShiftMap()).odd
    assert not CompositeMap(_ShiftMap(), _DAMPED).odd
    # nested composites are odd exactly when every map in them is
    assert not CompositeMap(CompositeMap(_RADIAL, _ShiftMap()), _DAMPED).odd
    assert not compose(_DAMPED, compose(_RADIAL, compose(_TURN, _ShiftMap()))).odd
    assert compose(_RADIAL, _DAMPED).odd
    assert compose(_TURN, compose(_RADIAL, _DAMPED)).odd
    assert CompositeMap(CompositeMap(_RADIAL, _DAMPED), CompositeMap(_TURN, _FLIP)).odd


@settings(max_examples=300, deadline=None)
@given(st.floats(), st.floats(), st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
def test_every_kernel_is_exactly_odd(x, y, entries):
    for m in _ODD_MAPS + [LinearMap(Mat2(*entries))]:
        f, g = _image_or_escape(m, x, y), _image_or_escape(m, -x, -y)
        if isinstance(f, type):
            assert g is f, m.describe()
            continue
        assert _same_float(g[0], -f[0]) and _same_float(g[1], -f[1]), (m.describe(), f, g)
        if f[0] and f[1] and not (math.isnan(f[0]) or math.isnan(f[1])):
            assert _bits(m.xy, -x, -y) == _bits(lambda x, y: (-f[0], -f[1]), x, y)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False))
def test_kernels_do_not_read_the_sign_of_a_zero(t):
    for m in _ODD_MAPS:
        for a, b in (((0.0, t), (-0.0, t)), ((t, 0.0), (t, -0.0))):
            f, g = _image_or_escape(m, *a), _image_or_escape(m, *b)
            if isinstance(f, type):
                assert g is f
            else:
                assert all(map(_same_float, f, g)), (m.describe(), a, f, g)


def _jac_or_escape(jac, x, y):
    try:
        return jac(x, y)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


# ordinary floats, the cubic Jacobian's d*d overflow near 1.3e77, and the
# composite's intermediate-image overflow: the damped image leaves the doubles
# near 5.6e102, so by 1e200 every composite Jacobian raises on it
_jac_coord = st.one_of(st.floats(), _signed(st.floats(1e76, 1e78)),
                       _signed(st.floats(1e102, 1e104)), _signed(st.floats(1e199, 1e201)))


@settings(max_examples=300, deadline=None)
@given(_jac_coord, _jac_coord, st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
def test_every_jacobian_is_exactly_even(x, y, entries):
    # jac(-x, -y) == jac(x, y) entry for entry (zero signs are free, a NaN
    # entry is NaN at both), and _jac raises at -p exactly when it does at p
    for m in _ODD_MAPS + [LinearMap(Mat2(*entries))]:
        for jac in (m.jac, m._jac):
            f, g = _jac_or_escape(jac, x, y), _jac_or_escape(jac, -x, -y)
            if isinstance(f, type):
                assert g is f, (m.describe(), x, y)
            else:
                assert all(map(_same_float, f, g)), (m.describe(), x, y, f, g)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False))
def test_jacobians_do_not_read_the_sign_of_a_zero(t):
    for m in _ODD_MAPS:
        for a, b in (((0.0, t), (-0.0, t)), ((t, 0.0), (t, -0.0))):
            f, g = _jac_or_escape(m._jac, *a), _jac_or_escape(m._jac, *b)
            if isinstance(f, type):
                assert g is f
            else:
                assert all(map(_same_float, f, g)), (m.describe(), a, f, g)


def test_jacobian_overflow_points_are_reached():
    # the drawn regions above do meet both overflows
    with pytest.raises(NumericOverflowError):
        SzlenkMap(1.01)._jac(1.3e77, 1.3e77)
    SzlenkMap(1.01)._jac(1e76, 1e76)  # finite just below it
    with pytest.raises(NumericOverflowError, match="overflowed evaluating"):
        compose(_PAPER_RADIAL, _DAMPED)._jac(-1e200, 1e200)
