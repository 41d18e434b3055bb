import itertools
import math
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dmy import (DampedSzlenkMap, GridStrategy, LinearMap, Mat2,
                 NumericOverflowError, ParameterError, PlanarMap, Point2, RandomStrategy, Rect,
                 SzlenkMap, check_ball, check_interval_free, check_real_free, eig2, operator_norm,
                 sample_norm_sup, sample_spectrum, spectral_radius)
from dmy import spectral
from dmy.spectral import (REAL_DISC_TOL, RealSpectrumSample, SpectrumReport, _eig, _lerps,
                          _log_radii, _modulus, _norm, _radius, _sample_points, _sweep_sup)


def _diag(d1, d2):
    return Mat2(d1, 0.0, 0.0, d2)


def test_eig_diagonal_real_pair_ascending():
    pair = eig2(_diag(0.5, 0.3))
    assert pair[0].imag == 0.0
    assert pair[0].real == pytest.approx(0.3, abs=1e-12)
    assert pair[1].real == pytest.approx(0.5, abs=1e-12)
    assert pair[0].real <= pair[1].real


def test_eig_rotation_complex_pair():
    pair = eig2(Mat2(0.0, -1.0, 1.0, 0.0))
    assert not pair[0].imag == 0.0
    assert pair[0] == 1j and pair[1] == -1j  # positive imaginary part first
    assert max(map(abs, pair)) == 1.0


def test_eig_nilpotent_is_double_zero():
    pair = eig2(Mat2(0.0, 0.0, 7.25, 0.0))
    assert pair[0].imag == 0.0
    assert pair[0] == 0.0 and pair[1] == 0.0
    assert max(map(abs, pair)) == 0.0


def test_eig_tiny_eigenvalue_avoids_cancellation():
    # the quadratic formula loses the small root entirely; the det/big form keeps it
    pair = eig2(_diag(1.0, 1e-18))
    assert pair[0].real == 1e-18
    assert pair[1].real == 1.0


def test_eig_near_degenerate_discriminant_treated_real():
    m = Mat2(1.0, 1e-9, 1e-9, 1.0)
    pair = eig2(m)
    assert pair[0].imag == 0.0


def test_spectral_radius_matches_pair():
    m = Mat2(0.3, -1.2, 0.7, 0.4)
    assert spectral_radius(m) == max(map(abs, eig2(m)))


entry = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(entry, entry, entry, entry)
@example(100.0, 99.99999999999999, -100.0, -100.0)  # a near double root at 0
def test_eig_matches_numpy(a, b, c, d):
    m = Mat2(a, b, c, d)
    ours = eig2(m)
    ref = np.linalg.eigvals(np.array([[a, b], [c, d]]))
    got = sorted((ours[0], ours[1]), key=lambda z: (z.real, z.imag))
    want = sorted((complex(ref[0]), complex(ref[1])), key=lambda z: (z.real, z.imag))
    scale = max(1.0, abs(a), abs(b), abs(c), abs(d))
    # near-zero discriminants are deliberately collapsed to real pairs, which
    # can drop an imaginary part as large as sqrt(tol * disc_scale) / 2
    disc_scale = max(m.trace ** 2, 4.0 * abs(m.det))
    # det = a*d - b*c rounds by up to 3u * max(|a*d|, |b*c|), u = 2**-53, and
    # near a double root an error delta in det moves a root by up to sqrt(delta)
    det_err = 3.0 * 2.0 ** -53 * max(abs(a * d), abs(b * c))
    tol = 1e-9 * scale + math.sqrt(1e-12 * disc_scale) + math.sqrt(det_err)
    for g, w in zip(got, want):
        assert abs(g - w) <= tol


@settings(max_examples=300, deadline=None)
@given(entry, entry, entry, entry)
def test_operator_norm_matches_numpy_svd(a, b, c, d):
    ours = operator_norm(Mat2(a, b, c, d))
    ref = np.linalg.svd(np.array([[a, b], [c, d]]), compute_uv=False)[0]
    assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_operator_norm_exact_on_scaled_identity():
    assert operator_norm(_diag(0.6, 0.6)) == 0.6
    assert operator_norm(_diag(2.0, 2.0)) == 2.0


def _norm_formula(a, b, c, d):
    return (math.hypot(a - d, b + c) + math.hypot(a + d, b - c)) / 2.0


@settings(max_examples=500, deadline=None)
@given(*[st.floats(allow_nan=False, allow_infinity=False)] * 4)
@example(1e308, 0.0, 0.0, 1.0)                         # the hypots sum to 2e308
@example(1e308, -1e308, 1e308, 1e308)                  # a hypot overflows alone
@example(1.5e308, 1.5e308, 1.5e308, 1.5e308)           # the norm 3e308 itself overflows
@example(-1.7976931348623157e308, 0.0, 0.0, 1.7976931348623157e308)
def test_norm_redoes_an_overflowing_sum_at_a_power_of_two_scale(a, b, c, d):
    # a norm the formula gives finite keeps its bits; where the sum of hypots
    # overflows, the norm is the formula at the entries scaled by 2**-e (e the
    # exponent of the largest |entry|), scaled back, inf only past the doubles
    want = _norm_formula(a, b, c, d)
    if not math.isfinite(want):
        e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
        want = _ldexp_or_inf(_norm_formula(*(math.ldexp(x, -e) for x in (a, b, c, d))), e)
    assert _bits(_norm(a, b, c, d)) == _bits(want) == _bits(operator_norm(Mat2(a, b, c, d)))


def test_operator_norm_near_the_double_range():
    assert operator_norm(Mat2(1e308, 0.0, 0.0, 1.0)) == 1e308
    assert operator_norm(Mat2(0.0, -1e308, 1e308, 0.0)) == 1e308
    assert operator_norm(Mat2(1.5e308, 1.5e308, 1.5e308, 1.5e308)) == math.inf
    # a non-finite entry is not redone
    assert math.isnan(_norm(math.nan, 0.0, 0.0, 1.0))
    assert _norm(math.inf, 0.0, 0.0, 1.0) == math.inf


def test_operator_norm_dominates_unit_vectors():
    m = Mat2(0.3, -1.2, 0.7, 0.4)
    bound = operator_norm(m)
    brute = max(m.apply(Point2(math.cos(t), math.sin(t))).norm()
                for t in np.linspace(0.0, 2.0 * math.pi, 720))
    assert brute <= bound + 1e-12
    assert brute >= 0.9999 * bound


def test_rect_validation():
    with pytest.raises(ParameterError):
        Rect(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(ParameterError):
        Rect(0.0, 1.0, 2.0, 1.0)
    with pytest.raises(ParameterError):
        Rect(0.0, float("inf"), 0.0, 1.0)


def test_strategy_validation_and_describe():
    assert GridStrategy(201, 101).describe() == "grid 201x101"
    assert RandomStrategy(50, 9).describe() == "random n=50 seed=9"
    with pytest.raises(ParameterError):
        GridStrategy(0, 10)
    with pytest.raises(ParameterError):
        RandomStrategy(-1, 0)


def test_grid_sweep_hits_axes_and_corners_exactly():
    m = LinearMap(_diag(0.5, 0.5))
    rep = sample_spectrum(m, Rect(-30.0, 30.0, -30.0, 30.0), GridStrategy(5, 5))
    assert rep.samples == 25
    # symmetric grids contain exact zeros and the exact endpoints
    assert rep.max_modulus_at is not None


def test_szlenk_sweep_real_exactly_on_axes():
    f = SzlenkMap(1.01)
    rep = sample_spectrum(f, Rect(-30.0, 30.0, -30.0, 30.0), GridStrategy(21, 21))
    assert rep.samples == 441
    assert rep.real_count == 41  # two 21-point axes sharing the origin
    assert rep.min_real == 0.0 and rep.max_real == 0.0
    for s in rep.real_samples:
        assert s.x * s.y == 0.0
        assert s.lo == 0.0 and s.hi == 0.0
    assert rep.overflows == 0
    assert rep.map == "szlenk(k=1.01)"
    assert rep.strategy == "grid 21x21"


def test_random_sweep_is_deterministic():
    f = SzlenkMap(1.01)
    region = Rect(-30.0, 30.0, -30.0, 30.0)
    r1 = sample_spectrum(f, region, RandomStrategy(100, 42))
    r2 = sample_spectrum(f, region, RandomStrategy(100, 42))
    assert r1.max_modulus == r2.max_modulus
    assert r1.max_modulus_at == r2.max_modulus_at
    r3 = sample_spectrum(f, region, RandomStrategy(100, 43))
    assert r3.max_modulus != r1.max_modulus


def test_empty_report_has_zero_counts():
    f = SzlenkMap(1.01)
    rep = sample_spectrum(f, Rect(-1.0, 1.0, -1.0, 1.0), RandomStrategy(0, 0))
    assert rep.samples == 0
    assert rep.overflows == 0
    assert rep.real_count == 0
    assert rep.max_modulus is None and rep.max_modulus_at is None
    # a sweep with no data cannot certify anything
    for v in (check_ball(rep, 1.0), check_real_free(rep), check_interval_free(rep, 0.0, 1.0)):
        assert not v.passed
        assert v.detail == "no samples; the sweep cannot certify a spectrum bound"


def test_check_ball_pass_and_fail():
    m = LinearMap(_diag(0.5, 0.5))
    rep = sample_spectrum(m, Rect(-1.0, 1.0, -1.0, 1.0), GridStrategy(3, 3))
    ok = check_ball(rep, 0.51)
    assert ok.passed and "0.51" in ok.name
    bad = check_ball(rep, 0.4)
    assert not bad.passed
    assert bad.witness_value == rep.max_modulus
    assert bad.witness_at == rep.max_modulus_at
    with pytest.raises(ParameterError):
        check_ball(rep, 0.0)


def test_check_ball_boundary_is_strict():
    m = LinearMap(_diag(0.5, 0.25))
    rep = sample_spectrum(m, Rect(-1.0, 1.0, -1.0, 1.0), GridStrategy(3, 3))
    assert not check_ball(rep, rep.max_modulus).passed


def test_check_interval_free():
    m = LinearMap(_diag(1.05, 2.0))
    rep = sample_spectrum(m, Rect(-1.0, 1.0, -1.0, 1.0), GridStrategy(3, 3))
    hit = check_interval_free(rep, 1.0, 1.1)
    assert not hit.passed
    assert hit.witness_value == pytest.approx(1.05, abs=1e-12)
    miss = check_interval_free(rep, 1.2, 1.9)
    assert miss.passed
    # half-open: an eigenvalue exactly at hi does not count
    edge = check_interval_free(rep, 0.9, 1.05 if rep.min_real == 1.05 else rep.min_real)
    assert edge.passed
    with pytest.raises(ParameterError):
        check_interval_free(rep, 2.0, 1.0)


def test_check_real_free():
    spiral = LinearMap(Mat2(0.5, -0.5, 0.5, 0.5))  # scaled rotation, never real
    rep = sample_spectrum(spiral, Rect(-1.0, 1.0, -1.0, 1.0), GridStrategy(3, 3))
    assert check_real_free(rep).passed
    diag = LinearMap(_diag(0.5, 0.25))
    rep2 = sample_spectrum(diag, Rect(-1.0, 1.0, -1.0, 1.0), GridStrategy(3, 3))
    v = check_real_free(rep2)
    assert not v.passed and v.witness_at is not None


def test_overflow_counted_and_fails_checks():
    f = SzlenkMap(1.01)
    region = Rect(1e180, 2e180, 1e180, 2e180)  # squaring these overflows
    rep = sample_spectrum(f, region, GridStrategy(3, 3))
    assert rep.overflows == 9
    assert rep.samples == 9
    for v in (check_ball(rep, 1.0), check_real_free(rep),
              check_interval_free(rep, 0.0, 1.0)):
        assert not v.passed
        assert v.detail == "9 of 9 samples overflowed; the sweep cannot certify a spectrum bound"
        assert v.witness_value is None and v.witness_at is None


def test_sample_norm_sup_exact_for_uniform_scaling():
    m = LinearMap(_diag(0.6, 0.6))
    sup = sample_norm_sup(m, Rect(-100.0, 100.0, -100.0, 100.0), GridStrategy(11, 11))
    assert sup == 0.6


def test_sample_norm_sup_overflow_is_infinite():
    f = SzlenkMap(1.01)
    sup = sample_norm_sup(f, Rect(1e180, 2e180, 1e180, 2e180), GridStrategy(3, 3))
    assert sup == math.inf


coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(coord, coord)
def test_damped_spectrum_is_shifted_szlenk_spectrum(x, y):
    # the Jacobian of the damped map is the cubic Jacobian minus a*I, so each
    # eigenvalue shifts by exactly -a up to the real/complex clamp: shifting
    # changes the trace, so a pair can collapse to real on one side only,
    # dropping an imaginary part of at most sqrt(tol * disc_scale) / 2
    p = Point2(x, y)
    a = 0.005
    jf = SzlenkMap(1.01).jacobian(p)
    jg = DampedSzlenkMap(1.01, a).jacobian(p)
    ef, eg = eig2(jf), eig2(jg)
    slack = 1e-12
    for j in (jf, jg):
        slack += math.sqrt(1e-12 * max(j.trace ** 2, 4.0 * abs(j.det))) / 2.0
    assert abs(eg[0] - (ef[0] - a)) <= slack
    assert abs(eg[1] - (ef[1] - a)) <= slack


def test_szlenk_spectrum_stays_in_theory_ball():
    # every eigenvalue modulus is below sqrt(3) k / 2 on any sample set
    f = SzlenkMap(1.05)
    rep = sample_spectrum(f, Rect(-80.0, 80.0, -80.0, 80.0), RandomStrategy(500, 3))
    assert rep.max_modulus < math.sqrt(3.0) * 1.05 / 2.0


# ------------------------------------------------------ float core vs eig2


def _eig2_reference(m: Mat2) -> tuple[complex, complex]:
    """eig2 as written on Mat2 properties, before the float core."""
    tr = m.trace
    det = m.det
    disc = tr * tr - 4.0 * det
    if -math.inf < disc >= -REAL_DISC_TOL * max(tr * tr, 4.0 * abs(det)):
        s = math.sqrt(disc) if disc > 0.0 else 0.0
        big = (tr + s) / 2.0 if tr >= 0.0 else (tr - s) / 2.0
        if big == 0.0:
            return complex(0.0, 0.0), complex(0.0, 0.0)
        other = det / big
        lo, hi = (other, big) if other <= big else (big, other)
        return complex(lo, 0.0), complex(hi, 0.0)
    re = tr / 2.0
    im = math.sqrt(-disc) / 2.0
    return complex(re, im), complex(re, -im)


def _bits(*vs):
    return struct.pack(f"<{len(vs)}d", *vs)


def _parts(pair):
    return [x for z in pair for x in (z.real, z.imag)]


def _ldexp_or_inf(x, e):
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _abs_or_inf(z):
    try:
        return abs(z)
    except OverflowError:  # |z| lies past the doubles
        return math.inf


def _assert_core_matches(entries):
    m = Mat2(*entries)
    ref = _eig2_reference(m)
    if not all(map(math.isfinite, _parts(ref))):
        # tr^2 or det overflowed: the core's pair is the pair of the entries
        # scaled by 2**-e, e the exponent of the largest |entry|, scaled back
        e = math.frexp(max(map(abs, entries)))[1]
        small = _eig2_reference(Mat2(*(math.ldexp(a, -e) for a in entries)))
        ref = tuple(complex(_ldexp_or_inf(z.real, e), _ldexp_or_inf(z.imag, e)) for z in small)
    is_real, u, v = _eig(*entries)
    assert is_real == (ref[0].imag == 0.0)
    if is_real:
        assert _bits(u, v) == _bits(ref[0].real, ref[1].real)
    else:
        assert _bits(u, v) == _bits(ref[0].real, ref[0].imag)
    assert (_bits(_radius(*entries)) == _bits(max(map(_abs_or_inf, ref)))
            == _bits(spectral_radius(m)))
    assert _bits(_norm(*entries)) == _bits(operator_norm(m))
    pair = eig2(m)
    assert _bits(*_parts(pair)) == _bits(*_parts(ref))
    assert _bits(max(map(_abs_or_inf, pair))) == _bits(_radius(*entries))
    return is_real


_C, _S = math.cos(1.0), math.sin(1.0)
CORE_CASES = [
    (0.5, 0.0, 0.0, 0.3), (-2.0, 0.0, 0.0, 3.0), (1.0, 0.0, 0.0, 1e-18),  # diagonal
    (0.0, -1.0, 1.0, 0.0), (_C, -_S, _S, _C), (0.5, -0.5, 0.5, 0.5),       # rotation
    # a scaled rotation where math.hypot(re, im) and abs(complex(re, im))
    # differ in the last bit, so the modulus must keep complex abs
    (0.488, -0.422, 0.422, 0.488),
    (0.0, 0.0, 7.25, 0.0), (0.0, 3.0, 0.0, 0.0), (2.0, -4.0, 1.0, -2.0),   # nilpotent
    (0.0, 0.0, 0.0, 0.0), (-0.0, 0.0, 0.0, -0.0),                          # zero
]


@pytest.mark.parametrize("entries", CORE_CASES)
def test_float_core_is_bit_equal_to_eigen_pair(entries):
    _assert_core_matches(entries)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
def test_float_core_at_relative_disc_tolerance(scale):
    # [[1, b], [-f b, 1]] has disc = -4 f b^2 against the threshold
    # -REAL_DISC_TOL * 4 det, so f just below 1 stays real and just above
    # turns complex; the scale moves both sides together
    b = math.sqrt(REAL_DISC_TOL)
    kinds = set()
    for f in (0.5, 1.0 - 1e-6, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-6, 2.0):
        for sign in (1.0, -1.0):
            entries = (scale, sign * scale * b, -sign * scale * f * b, scale)
            kinds.add(_assert_core_matches(entries))
    assert kinds == {True, False}


@pytest.mark.parametrize("entries", [
    (1e308, 0.0, 0.0, 1.0),          # tr^2 - 4 det is inf - inf
    (1e308, 0.0, 0.0, 1e308),        # the trace itself overflows
    (1e300, 1e300, -1e300, 1e300),
    (1e200, 0.0, 0.0, -1e200),
])
def test_float_core_when_discriminant_is_not_finite(entries):
    # the unscaled pair leaves the doubles, so the core takes its scaled redo
    assert not all(map(math.isfinite, _parts(_eig2_reference(Mat2(*entries)))))
    _assert_core_matches(entries)


def test_radius_is_finite_when_discriminant_is_inf_minus_inf():
    # tr^2 - 4 det is inf - inf, yet both eigenvalues, 1e308 and 1, are doubles
    assert _radius(1e308, 0.0, 0.0, 1.0) == 1e308


@pytest.mark.parametrize("entries", [(0.0, -2.0 ** 511, 2.0 ** 511, 0.0),
                                     (1.0, -1e154, 1e154, 1.0)])
def test_discriminant_of_minus_inf_is_no_real_pair(entries):
    # 4 det overflows with tr^2 finite: the discriminant -inf meets the floor
    # -1e-12 * inf, but the pair, redone at a power-of-two scale, is complex
    # with its finite modulus, and no sample overflows
    assert _eig(*entries) == (False, entries[0], entries[2])
    assert _radius(*entries) == abs(complex(entries[0], entries[2]))
    rep = sample_spectrum(LinearMap(Mat2(*entries)), Rect(-1.0, 1.0, -1.0, 1.0),
                          GridStrategy(3, 3))
    assert (rep.samples, rep.overflows, rep.max_modulus) == (9, 0, _radius(*entries))
    assert not check_ball(rep, 1.0).passed


def test_a_non_finite_entry_gives_a_non_finite_modulus():
    # sample_spectrum counts a sample as an overflow on _eig's modulus alone,
    # with no finiteness test of the entries: every Jacobian over these values
    # with an inf or NaN entry must give a modulus that is not finite
    values = (0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300, 2.0 ** 511,
              math.inf, -math.inf, math.nan)
    cases = [j for j in itertools.product(values, repeat=4)
             if not all(map(math.isfinite, j))]
    assert len(cases) == 14_175
    for j in cases:
        assert not math.isfinite(_modulus(*_eig(*j))), j


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
# a complex pair of finite parts whose modulus lies just past the doubles
@example(1.7973883342203502e+308, 1.7973883342203502e+308, -6.096529719442552e+304,
         1.79738833422035e+308)
@given(finite, finite, finite, finite)
def test_float_core_matches_eigen_pair_on_drawn_matrices(a, b, c, d):
    _assert_core_matches((a, b, c, d))


# entries of order 1, none so small that a product of two leaves the normal
# range, so scaling by 2**k below 2**1000 is exact through _eig
unit_entry = st.floats(min_value=-4.0, max_value=4.0).filter(
    lambda v: v == 0.0 or abs(v) >= 2.0 ** -64)


@settings(max_examples=300, deadline=None)
@given(unit_entry, unit_entry, unit_entry, unit_entry, st.integers(0, 1000))
@example(1.0, 0.0, 0.0, 1.0, 700)   # a double root whose tr^2 overflows
@example(1.0, 2.0, -3.0, 1.0, 997)  # a complex pair whose det overflows
@example(1.0, 0.0, 0.0, -1.0, 1000)
@example(0.0, -1.0, 1.0, 0.0, 511)  # 4 det overflows while tr^2 is 0
def test_eig2_commutes_with_power_of_two_scaling(a, b, c, d, k):
    # past k of about 510 tr^2 overflows, and _eig redoes the pair at a
    # power-of-two scale; no eigenvalue of A * 2**k leaves the doubles
    s = 2.0 ** k
    pair = eig2(Mat2(a * s, b * s, c * s, d * s))
    assert _bits(*_parts(pair)) == _bits(*(x * s for x in _parts(eig2(Mat2(a, b, c, d)))))


def _normal(x):
    return x == 0.0 or sys.float_info.min <= abs(x) < math.inf


@settings(max_examples=300, deadline=None)
@given(unit_entry, unit_entry, unit_entry, unit_entry,
       st.integers(-300, 1020), st.integers(-300, 1020))
@example(1.0, 0.0, 0.0, 1.0, 0, 700)         # a double root whose tr^2 overflows at one scale
@example(1.0, 2.0, -3.0, 1.0, 997, 1020)     # a complex pair whose det overflows at both
@example(4.0, 4.0, 4.0, 4.0, 1020, -300)     # the eigenvalue 2**1023, the largest reachable
@example(0.0, -1.0, 1.0, 0.0, 511, 3)        # 4 det overflows while tr^2 is 0
@example(1.0, 2.0 ** -64, -(2.0 ** -64), 1.0, -300, 1000)
def test_float_core_commutes_with_power_of_two_scaling(a, b, c, d, i, j):
    # |entries| <= 4, so no eigenvalue of 2**i A passes 2**(i + 3) <= 2**1023:
    # the core's modulus is finite at every scale, and where both pairs are
    # normal, the pair at 2**j is the pair at 2**i times 2**(j - i), bit for bit
    cores = [_eig(*(math.ldexp(x, k) for x in (a, b, c, d))) for k in (i, j)]
    for core in cores:
        assert math.isfinite(_modulus(*core)), core
    (real_i, u_i, v_i), (real_j, u_j, v_j) = cores
    if all(map(_normal, (u_i, v_i, u_j, v_j))):
        assert real_i == real_j
        assert _bits(math.ldexp(u_i, j - i), math.ldexp(v_i, j - i)) == _bits(u_j, v_j)


@pytest.mark.parametrize("m, strategy", [
    (SzlenkMap(1.01), GridStrategy(41, 41)),
    (DampedSzlenkMap(1.01, 0.005), RandomStrategy(2000, 5)),
])
def test_sample_spectrum_matches_point_loop(m, strategy):
    region = Rect(-30.0, 30.0, -30.0, 30.0)
    rep = sample_spectrum(m, region, strategy)
    if isinstance(strategy, GridStrategy):
        g = [((40 - i) * -30.0 + i * 30.0) / 40 for i in range(41)]
        pts = [Point2(x, y) for y in g for x in g]
    else:
        rng = random.Random(strategy.seed)
        pts = [Point2(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0))
               for _ in range(strategy.count)]
    best = None
    reals = []
    for idx, p in enumerate(pts):
        pair = eig2(m.jacobian(p))
        if best is None or max(map(abs, pair)) > best[0]:
            best = (max(map(abs, pair)), p)
        if pair[0].imag == 0.0:
            reals.append((pair[0].real, pair[1].real, p.x, p.y, idx))
    assert (rep.max_modulus, rep.max_modulus_at) == best
    assert [(s.lo, s.hi, s.x, s.y, s.index) for s in rep.real_samples] == reals
    assert rep.real_count == len(reals)
    if reals:  # the cubic's axes; the damped map has none in this box
        lo = min(reals, key=lambda r: r[0])
        hi = max(reals, key=lambda r: r[1])
        assert (rep.min_real, rep.min_real_at) == (lo[0], Point2(lo[2], lo[3]))
        assert (rep.max_real, rep.max_real_at) == (hi[1], Point2(hi[2], hi[3]))


def _point_loop(m, region, strategy):
    """The report fields of a sweep that evaluates every grid sample."""
    xs = _lerps(region.xmin, region.xmax, strategy.nx)
    ys = _lerps(region.ymin, region.ymax, strategy.ny)
    points = [(x, y) for y in ys for x in xs]
    overflow, best, reals = 0, None, []
    for idx, (x, y) in enumerate(points):
        try:
            pair = eig2(m.jacobian(Point2(x, y)))
        except NumericOverflowError:
            overflow += 1
            continue
        if not math.isfinite(max(map(abs, pair))):
            overflow += 1
            continue
        if best is None or max(map(abs, pair)) > best[0]:
            best = (max(map(abs, pair)), _bits(x, y))
        if pair[0].imag == 0.0:
            reals.append((pair[0].real, pair[1].real, _bits(x, y), idx))
    mirrored = xs == [-v for v in reversed(xs)] and ys == [-v for v in reversed(ys)]
    return [_bits(*p) for p in points], overflow, best, reals, mirrored


class _CountingMap:
    """Counts the Jacobians a sweep asks of the wrapped map's raw kernel ``jac``;
    the sweep checks finiteness itself, so asking for ``_jac`` is an error."""

    def __init__(self, inner, odd):
        self.inner, self.odd, self.calls = inner, odd, 0

    def jac(self, x, y):
        self.calls += 1
        return self.inner.jac(x, y)

    def _jac(self, x, y):
        raise AssertionError(f"the sweep asked for the checked Jacobian at ({x!r}, {y!r})")

    def describe(self):
        return self.inner.describe()


_ROTATION = LinearMap(Mat2(0.6, -0.8, 0.8, 0.6))
_MIRROR_CASES = [
    (SzlenkMap(1.01), "-30:30:-30:30", "1x5"),
    (DampedSzlenkMap(1.01, 0.005), "-30:30:-30:30", "1x5"),
    (DampedSzlenkMap(1.01, 0.005), "-1:1:-1.5:1.5", "1x5"),
    (DampedSzlenkMap(1.01, 0.005), "-30:30:-30:30", "5x1"),
    (SzlenkMap(1.01), "-30:30:-30:30", "2x2"),
    (SzlenkMap(1.01), "-30:30:-30:30", "200x201"),
    (DampedSzlenkMap(1.01, 0.005), "-30:30:-30:30", "41x41"),
    ("counterexample", "-30:30:-30:30", "41x31"),
    (_ROTATION, "-30:30:-30:30", "41x31"),
    (SzlenkMap(1.01), "-30:30:-10:20", "21x21"),        # symmetric in x only
    (DampedSzlenkMap(1.01, 0.005), "-30:30:-10:20", "21x20"),
    ("counterexample", "-1:2:-1:1", "31x31"),           # symmetric in y only
    (SzlenkMap(1.01), "0:1:-1:1", "1x5"),               # a one-point axis at 0 mirrors
    (SzlenkMap(1.01), "-1e308:1e308:-1:1", "3x3"),      # 6 of 9 samples overflow
]


@pytest.mark.parametrize("m, region, grid", _MIRROR_CASES,
                         ids=[f"{m if isinstance(m, str) else m.describe()}-{r}-{g}"
                              for m, r, g in _MIRROR_CASES])
def test_mirrored_grid_matches_point_loop(m, region, grid, bundle):
    if m == "counterexample":
        m = bundle.composite
    region = Rect(*map(float, region.split(":")))
    strategy = GridStrategy(*map(int, grid.split("x")))
    points, overflow, best, reals, mirrored = _point_loop(m, region, strategy)
    rep = sample_spectrum(m, region, strategy)
    assert (rep.samples, rep.overflows) == (len(points), overflow)
    got = None if rep.max_modulus is None else (rep.max_modulus, _bits(*rep.max_modulus_at))
    assert got == best
    # zero signs of a derived pair are free, its coordinates are not
    assert [(s.lo, s.hi, _bits(s.x, s.y), s.index) for s in rep.real_samples] == reals
    assert rep.real_count == len(reals)
    if reals:
        lo = min(reals, key=lambda r: r[0])
        hi = max(reals, key=lambda r: r[1])
        assert (rep.min_real, _bits(*rep.min_real_at)) == (lo[0], lo[2])
        assert (rep.max_real, _bits(*rep.max_real_at)) == (hi[1], hi[2])
    for check in (check_real_free(rep), check_interval_free(rep, -0.5, 0.5),
                  check_ball(rep, 0.5)):
        if mirrored and check.witness_at is not None:
            # every witness is a sample taken, none a derived one
            assert points.index(_bits(*check.witness_at)) < (len(points) + 1) // 2


@pytest.mark.parametrize("region, grid, odd, calls", [
    ("-30:30:-30:30", "201x201", True, 20201),
    ("-30:30:-30:30", "200x201", True, 20100),
    ("-30:30:-30:30", "2x2", True, 2),
    ("-30:30:-30:30", "201x201", False, 40401),
    ("-30:30:-30:30", "1x5", True, 5),
    ("-30:30:-10:20", "21x21", True, 441),
    ("0:1:-1:1", "1x5", True, 3),
])
def test_mirrored_grid_evaluates_each_antipodal_pair_once(region, grid, odd, calls):
    m = _CountingMap(SzlenkMap(1.01), odd)
    region = Rect(*map(float, region.split(":")))
    strategy = GridStrategy(*map(int, grid.split("x")))
    rep = sample_spectrum(m, region, strategy)
    assert m.calls == calls
    # a map that promises nothing is sampled whole, to the same report
    assert rep == sample_spectrum(SzlenkMap(1.01), region, strategy)


def _full_sweep(m, region, strategy):
    """``sample_spectrum`` as an oracle that measures every sample: ``_eig`` and
    ``_modulus`` at each one, no mirror and no pre-test."""
    count = overflow = 0
    max_mod = max_mod_at = None
    reals = []
    for idx, (x, y) in enumerate(_sample_points(region, strategy)):
        count += 1
        try:
            is_real, lo, hi = _eig(*m._jac(x, y))
            mod = _modulus(is_real, lo, hi)
        except NumericOverflowError:
            mod = math.inf
        if not math.isfinite(mod):
            overflow += 1
            continue
        if max_mod is None or mod > max_mod:
            max_mod, max_mod_at = mod, Point2(x, y)
        if is_real:
            reals.append(RealSpectrumSample(lo, hi, x, y, idx))
    min_real = max_real = min_real_at = max_real_at = None
    if reals:
        first_lo = min(reals, key=lambda s: s.lo)
        first_hi = max(reals, key=lambda s: s.hi)
        min_real, min_real_at = first_lo.lo, Point2(first_lo.x, first_lo.y)
        max_real, max_real_at = first_hi.hi, Point2(first_hi.x, first_hi.y)
    return SpectrumReport(
        map=m.describe(), strategy=strategy.describe(), samples=count, overflows=overflow,
        max_modulus=max_mod, max_modulus_at=max_mod_at, real_count=len(reals),
        min_real=min_real, min_real_at=min_real_at, max_real=max_real, max_real_at=max_real_at,
        real_samples=tuple(reals))


_ORACLE_MAPS = {
    "szlenk": SzlenkMap(1.01),
    "ga": DampedSzlenkMap(1.01, 0.005),
    "rotation": LinearMap(Mat2(0.0, -1.0, 1.0, 0.0)),   # every modulus ties at 1
    "nilpotent": LinearMap(Mat2(0.0, 1.0, 0.0, 0.0)),   # every modulus is 0
    "diagonal": LinearMap(_diag(0.5, -0.75)),            # every pair is real
}


@pytest.mark.parametrize("strategy", [GridStrategy(41, 41), GridStrategy(40, 40),
                                      GridStrategy(1, 5), RandomStrategy(500, 3)],
                         ids=["odd-grid", "even-grid", "strip-1x5", "random"])
@pytest.mark.parametrize("region", ["-30:30:-30:30", "-1e-3:1e-3:-1e-3:1e-3",
                                    "-1e308:1e308:-1:1", "-1e150:1e150:-1e150:1e150"])
@pytest.mark.parametrize("name", [*_ORACLE_MAPS, "counterexample"])
def test_sample_spectrum_equals_a_full_sweep(name, region, strategy, bundle):
    # the samples the pre-test skips cannot move the report
    m = bundle.composite if name == "counterexample" else _ORACLE_MAPS[name]
    region = Rect(*map(float, region.split(":")))
    assert sample_spectrum(m, region, strategy) == _full_sweep(m, region, strategy)


class _OneNonFiniteSample(PlanarMap):
    """A quarter turn whose raw Jacobian at ``bad`` is (0, 1, -inf, 0), which
    ``_eig`` reads as a double root at 0; only a finiteness check makes it an
    overflow."""

    def __init__(self, bad):
        self.bad = bad

    def xy(self, x, y):
        return -y, x

    def jac(self, x, y):
        return (0.0, 1.0, -math.inf, 0.0) if (x, y) == self.bad else (0.0, -1.0, 1.0, 0.0)

    def describe(self):
        return f"quarter-turn(non-finite at {self.bad!r})"


@pytest.mark.parametrize("bad", [(-1.0, -1.0), (1.0, 0.0)], ids=["first", "after-the-max"])
def test_sample_spectrum_counts_a_raw_non_finite_jacobian_as_an_overflow(bad):
    # the first sample meets no pre-test; later ones meet the max's, which
    # no non-finite entry passes
    m, region, strategy = _OneNonFiniteSample(bad), Rect(-1.0, 1.0, -1.0, 1.0), GridStrategy(3, 3)
    rep = sample_spectrum(m, region, strategy)
    assert (rep.samples, rep.overflows, rep.real_count) == (9, 1, 0)
    assert rep == _full_sweep(m, region, strategy)


@pytest.mark.parametrize("m, strategy, most", [
    (SzlenkMap(1.01), GridStrategy(201, 201), 400),
    (DampedSzlenkMap(1.01, 0.005), RandomStrategy(40401, 3), 100),
], ids=["szlenk-grid-201x201", "ga-random-40401"])
def test_sample_spectrum_takes_few_eigenvalues(monkeypatch, m, strategy, most):
    # the bench's two sweeps: a complex pair below the running max is not
    # measured, so _eig runs at only a few of their samples
    region = Rect(-30.0, 30.0, -30.0, 30.0)
    want = sample_spectrum(m, region, strategy)
    calls = []
    eig = spectral._eig
    monkeypatch.setattr(spectral, "_eig", lambda *j: calls.append(j) or eig(*j))
    assert sample_spectrum(m, region, strategy) == want
    assert 0 < len(calls) < most


def test_random_draws_past_the_doubles_keep_their_bits():
    # the draws of rng.uniform, with the halved-bounds form wherever hi - lo
    # overflows
    region = Rect(-1e308, 1e308, -1.0, 1.0)
    rng = random.Random(3)
    want = []
    for _ in range(200):
        u = rng.random()
        x = (0.5 * -1e308 + (0.5 * 1e308 - 0.5 * -1e308) * u) * 2.0
        want.append((x, rng.uniform(-1.0, 1.0)))
    assert list(_sample_points(region, RandomStrategy(200, 3))) == want


def test_composite_sweep_near_1e200_counts_every_sample_as_overflow(bundle):
    # the damped cubic's image overflows, so CompositeMap.jac raises on the
    # intermediate point before any Jacobian entry exists
    rep = sample_spectrum(bundle.composite, Rect(1e200, 2e200, 1e200, 2e200),
                          GridStrategy(3, 3))
    assert rep.samples == 9 and rep.overflows == 9
    assert rep.max_modulus is None and rep.real_count == 0


@pytest.mark.parametrize("region, strategy", [
    pytest.param(Rect(-1e308, 1e308, -1.0, 1.0), GridStrategy(3, 3), id="grid-x"),
    pytest.param(Rect(-1.0, 1.0, 1e308, 1.5e308), GridStrategy(4, 4), id="grid-y"),
    pytest.param(Rect(0.0, 1.0, -1e308, 1e308), RandomStrategy(5, 0), id="random-y"),
])
def test_sample_points_near_the_double_range_stay_finite(region, strategy):
    # finite bounds whose plain lerp or draw overflows: the samples are
    # redone at a smaller scale, stay in the region, and both sweeps run
    pts = list(_sample_points(region, strategy))
    assert len(pts) == (strategy.count if isinstance(strategy, RandomStrategy)
                        else strategy.nx * strategy.ny)
    for x, y in pts:
        assert region.xmin <= x <= region.xmax and region.ymin <= y <= region.ymax
    f = SzlenkMap(1.01)
    assert sample_spectrum(f, region, strategy).samples == len(pts)
    assert sample_norm_sup(f, region, strategy) == math.inf


def test_sample_points_span_the_double_range_exactly():
    pts = list(_sample_points(Rect(-1.7976931348623157e308, 1.7976931348623157e308, -1.0, 1.0),
                              GridStrategy(3, 2)))
    assert pts == [(-1.7976931348623157e308, -1.0), (0.0, -1.0), (1.7976931348623157e308, -1.0),
                   (-1.7976931348623157e308, 1.0), (0.0, 1.0), (1.7976931348623157e308, 1.0)]


_MAX_DOUBLE = 1.7976931348623157e308


def _near_max(ulps):
    """The double ``ulps`` steps below the largest one."""
    v = _MAX_DOUBLE
    for _ in range(ulps):
        v = math.nextafter(v, 0.0)
    return v


# a bound within a few ulps of +-1.7976931348623157e308
_near_max_bound = st.builds(lambda sign, ulps: sign * _near_max(ulps),
                            st.sampled_from((-1.0, 1.0)), st.integers(0, 8))


@settings(max_examples=400, deadline=None)
@given(_near_max_bound, _near_max_bound, st.integers(2, 4096), st.data())
def test_lerp_near_the_double_range_is_the_scaled_formula(lo, hi, n, data):
    # oracle: the plain formula, or where it overflows the same formula with
    # the bounds scaled down by a power of two and the result scaled back up
    i = data.draw(st.integers(0, n - 1))
    if i == 0:
        want = lo
    elif i == n - 1:
        want = hi
    else:
        want = ((n - 1 - i) * lo + i * hi) / (n - 1)
        if not math.isfinite(want):
            s = 2.0 ** ((n - 1).bit_length() + 1)
            want = ((n - 1 - i) * (lo / s) + i * (hi / s)) / (n - 1) * s
    assert struct.pack("<d", _lerps(lo, hi, n)[i]) == struct.pack("<d", want)


def _lerp(lo, hi, i, n):
    """The per-point form that ``_lerps`` replaced, kept as its oracle."""
    if i == 0:
        return lo
    if i == n - 1:
        return hi
    v = ((n - 1 - i) * lo + i * hi) / (n - 1)
    if math.isfinite(v):
        return v
    s = 2.0 ** ((n - 1).bit_length() + 1)
    return _lerp(lo / s, hi / s, i, n) * s


def _raw_list(vs):
    return [struct.pack("<d", v) for v in vs]


_ordinary_bound = st.floats(-1e6, 1e6, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_ordinary_bound, _ordinary_bound),
                 st.tuples(_near_max_bound, _near_max_bound)),
       st.integers(0, 600), st.sampled_from((0.0, 0.5)))
def test_lerps_is_the_per_point_lerp(bounds, n, offset):
    lo, hi = bounds
    want = [_lerp(lo, hi, i + offset, n + 1 if offset else n) for i in range(n)]
    assert _raw_list(_lerps(lo, hi, n, offset)) == _raw_list(want)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300), st.integers(1, 600),
       st.sampled_from((0.0, 0.5)))
@example(1.0, 4.3236123788165254e+36, 5, 0.0)
def test_log_radii_are_the_per_point_lerp_in_log_radius(lo, hi, n, offset):
    llo, lhi = math.log(lo), math.log(hi)
    want = [hi] if n == 1 else [math.exp(_lerp(llo, lhi, i + offset, n + 1 if offset else n))
                                for i in range(n)]
    assert _raw_list(_log_radii(lo, hi, n, offset)) == _raw_list(want)


def test_sample_points_keep_their_bits_on_ordinary_regions():
    # pinned bits: ordinary regions never take the overflow fallback
    grid = list(_sample_points(Rect(-1.1, 2.3, -0.7, 1e-3), GridStrategy(7, 4)))
    xs = [-1.1, -0.5333333333333333, 0.033333333333333215, 0.5999999999999999,
          1.1666666666666665, 1.7333333333333334, 2.3]
    ys = [-0.7, -0.4663333333333333, -0.23266666666666666, 0.001]
    assert grid == [(x, y) for y in ys for x in xs]
    drawn = list(_sample_points(Rect(-7.5, 2.25, -1e3, 1e-3), RandomStrategy(4, 3)))
    assert drawn == [(-5.1798448858540596, -455.7702304748228),
                     (-3.892937126156227, -396.0793574837669),
                     (-1.399227034946473, -934.4710752313276),
                     (-7.371612082339977, -162.5300804344579)]


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(_finite, _finite, st.integers(min_value=2, max_value=64))
def test_grid_samples_land_exactly_on_the_region_bounds(a, b, n):
    assume(a != b)
    lo, hi = sorted((a, b))
    pts = list(_sample_points(Rect(lo, hi, lo, hi), GridStrategy(n, n)))
    assert struct.pack("<4d", *pts[0], *pts[-1]) == struct.pack("<4d", lo, lo, hi, hi)


def test_sweep_sup_prices_an_overflowing_sample_as_inf():
    # a value that raises NumericOverflowError or is NaN counts as +inf, and
    # the first point attaining the sup is its witness
    def value(x, y):
        if x == 1.0:
            raise NumericOverflowError("overflow")
        return math.nan if x == 2.0 else x

    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    assert _sweep_sup(pts, value) == (math.inf, Point2(1.0, 0.0), 4)
    assert _sweep_sup(pts[2:], value) == (math.inf, Point2(2.0, 0.0), 2)
    assert _sweep_sup(pts[3:], value, 5.0, (9.0, 9.0)) == (5.0, Point2(9.0, 9.0), 1)
