"""The sup sweeps' pre-tests: sound (a sample they pass cannot raise the sup),
live (they do pass where there is room), and invisible in every sweep result."""

import functools
import math
import struct
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dmy import (K_MAX, CompositeMap, DampedSzlenkMap, DissipativitySampling, GridStrategy,
                 LinearMap, Mat2, NumericOverflowError, Point2, RandomStrategy, Rect, SzlenkMap,
                 build_counterexample, build_phi, compose, dissipativity_bound, sample_norm_sup)
from dmy import counterexample as ce
from dmy import dynamics, spectral
from dmy.geometry import replace
from dmy.spectral import (PRETEST_MARGIN, _eig, _jacobian_sups, _log_radii, _norm, _pretest,
                          _radius, _ring_points, _sample_points, _sweep_sup)


def _diag(d1, d2):
    return Mat2(d1, 0.0, 0.0, d2)


# ------------------------------------------------------------- soundness

_unit = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
_nonzero = _unit.filter(lambda v: abs(v) > 1e-3)
# a signed 2**-k, k in 20..70, or 0: the size of a perturbation off a
# double root, the real/complex boundary or an isotropic matrix
_tiny = st.one_of(st.just(0.0), st.builds(lambda s, k: s * 2.0 ** -k,
                                          st.sampled_from([1.0, -1.0]), st.integers(20, 70)))


def _near_double_root(lam, b, e1, e2):
    # eigenvalues about lam +- sqrt(b * e1), real or complex by the sign of b * e1
    return (lam, b, e1, lam + e2)


def _near_real_boundary(t, u, v, f):
    # tr t and det (t/2)^2 * (1 + f): a double root at f = 0, complex for f > 0
    h = t / 2.0
    return (h + u, v, (h * h * -f - u * u) / v, h - u)


def _double_root(lam, a, b):
    # lam times the identity plus a nilpotent part: an exact double root lam
    # whose det lam^2 - a^2 + a^2 carries the rounding of a^2
    return (lam + a, b, -a * a / b, lam - a)


def _singular(u1, u2, v1, v2):
    return (u1 * v1, u1 * v2, u2 * v1, u2 * v2)


def _near_isotropic(r, theta, sign, e1, e2):
    # r times a rotation (sign 1) or a reflection (sign -1), nudged off it
    c, s = math.cos(theta), math.sin(theta)
    return (r * c + e1, -sign * r * s, r * s, sign * r * c + e2)


_shapes = st.one_of(
    st.tuples(_unit, _unit, _unit, _unit),
    st.builds(_near_double_root, _unit, _unit, _tiny, _tiny),
    st.builds(_near_real_boundary, _unit, _unit, _nonzero, _tiny),
    st.builds(_double_root, st.one_of(st.just(0.0), _unit), _unit, _nonzero),
    st.builds(_singular, _unit, _unit, _unit, _unit),
    st.builds(_near_isotropic, _nonzero, st.floats(0.0, 6.3), st.sampled_from([1.0, -1.0]),
              _tiny, _tiny),
)
# entries scaled by 2**e: 2**+-500 puts squares and fourth powers past the
# doubles, 2**+-240 is the edge of the range where the pre-tests may pass
_scales = st.one_of(st.sampled_from([-500, -241, -240, -120, 0, 120, 240, 241, 500]),
                    st.integers(-500, 500)).map(lambda e: 2.0 ** e)
# the sup against the matrix's own measure v: v itself (the tightest case),
# v / PRETEST_MARGIN (the pre-test's bound lands on v) and both nudged by 2**-k
_offsets = st.one_of(st.just(1.0), st.just(1.0 / PRETEST_MARGIN),
                     st.builds(lambda base, s, k: base * (1.0 + s * 2.0 ** -k),
                               st.sampled_from([1.0, 1.0 / PRETEST_MARGIN]),
                               st.sampled_from([1.0, -1.0]), st.integers(1, 60)))


def _scaled(shape, scale):
    return tuple(v * scale for v in shape)


@settings(deadline=None)
@given(_shapes, _scales, _offsets)
def test_radius_pretest_soundness(shape, scale, offset):
    j = _scaled(shape, scale)
    v = _radius(*j)
    assume(math.isfinite(v) and v > 0.0)
    sup = v * offset
    if _pretest(_radius, sup)(*j):
        assert _radius(*j) < sup


@settings(deadline=None)
@given(_shapes, _scales, _offsets)
def test_norm_pretest_soundness(shape, scale, offset):
    j = _scaled(shape, scale)
    v = _norm(*j)
    assume(math.isfinite(v) and v > 0.0)
    sup = v * offset
    if _pretest(_norm, sup)(*j):
        assert _norm(*j) < sup


def _complex_below(j, sup):
    """What the spectrum pre-test must say: the radius pre-test passes and
    ``_eig`` gives a complex pair."""
    return _pretest(_radius, sup)(*j) and not _eig(*j)[0]


@settings(deadline=None)
@given(_shapes, _scales, _offsets)
def test_spectrum_pretest_soundness(shape, scale, offset):
    j = _scaled(shape, scale)
    v = _radius(*j)
    assume(math.isfinite(v) and v > 0.0)
    sup = v * offset
    assert _pretest(_eig, sup)(*j) == _complex_below(j, sup)


_any = st.floats()  # inf and NaN included


@settings(deadline=None)
@given(st.tuples(_any, _any, _any, _any), st.floats(min_value=0.0), _offsets)
def test_spectrum_pretest_soundness_on_any_floats(j, sup, offset):
    # past Jury's bounds the pre-test's branch test and _eig's may differ (at
    # (-1, 0, 0, -4.49e307) 4 det overflows), so the bounds must settle it
    for s in (sup, _radius(*j) * offset):
        assert _pretest(_eig, s)(*j) == _complex_below(j, s)


@settings(deadline=None)
@given(_shapes, _scales, st.sampled_from([0.0, -0.0, 1e-300, 2.0 ** 300, math.inf, -math.inf]))
def test_pretest_soundness_where_nothing_may_skip(shape, scale, sup):
    # a sup at or below 0, or one whose bound leaves 2**-240..2**240, skips nothing
    j = _scaled(shape, scale)
    for measure in (_radius, _norm, _eig):
        assert not _pretest(measure, sup)(*j)


def _with_non_finite(entries, i, v):
    return entries[:i] + (v,) + entries[i + 1:]


@settings(deadline=None)
@example((0.0, 1.0, -math.inf, 0.0), 1.0)  # det inf, discriminant -inf
@example((math.inf, 0.0, 0.0, 0.0), 1.0)
@example((0.0, -0.0, math.nan, -0.0), 1.0)  # the cubic's raw Jacobian at (1.3e77, 0)
@given(st.builds(_with_non_finite, st.tuples(_any, _any, _any, _any), st.integers(0, 3),
                 st.sampled_from([math.inf, -math.inf, math.nan])),
       st.floats(2.0 ** -240, 2.0 ** 240))
def test_pretest_soundness_on_non_finite_entries(entries, sup):
    # every entry enters det, and F, through a product of its own, so det or
    # F is inf or NaN and fails the strict bounds: a sweep may pre-test raw
    # Jacobian entries and check finiteness only where the test fails
    for measure in (_radius, _norm, _eig):
        assert not _pretest(measure, sup)(*entries)


@pytest.mark.parametrize("entries", [
    (math.nan, 0.0, 0.0, 0.0), (0.0, math.inf, 0.0, 0.0), (1e300, 1e300, -1e300, 1e300),
    (1e308, 0.0, 0.0, 1.0),  # tr^2 - 4 det is inf - inf: _radius is NaN
])
def test_pretest_soundness_on_entries_past_the_doubles(entries):
    # NaN fails every comparison and an overflowing det or square fails the
    # bound, so such a sample is always priced exactly
    for sup in (1.0, 2.0 ** 200):
        for measure in (_radius, _norm, _eig):
            assert not _pretest(measure, sup)(*entries)


@settings(deadline=None)
@given(_shapes, st.integers(-200, 200).map(lambda e: 2.0 ** e))
def test_pretests_pass_where_the_margin_leaves_room(shape, scale):
    # 2**-10 above the measure is far past the rounding either test can meet
    j = _scaled(shape, scale)
    for measure in (_radius, _norm):
        v = measure(*j)
        assume(2.0 ** -200 <= v <= 2.0 ** 200)
        assert _pretest(measure, v * (1.0 + 2.0 ** -10))(*j)


@pytest.mark.parametrize("theta", [0.3, 1.0, math.pi / 2, 2.5])
def test_spectrum_pretest_passes_a_complex_pair_below_the_sup(theta):
    # half a rotation has the complex pair 0.5 e^(+-i theta), far inside 1;
    # a real pair of the same modulus is always measured
    c, s = 0.5 * math.cos(theta), 0.5 * math.sin(theta)
    assert _pretest(_eig, 1.0)(c, -s, s, c)
    assert not _pretest(_eig, 1.0)(0.5, 0.0, 0.0, 0.5 * math.cos(2.0 * theta))


# far rings: the bound that lets the verifier's composite sweep skip a ring
# (the lemma in dmy.counterexample's docstring)

_SLACKED = 1.0 + ce._RING_SLACK  # the ring bound scales 3k/2 + a by this
_H = math.sqrt(0.5)
# log-uniform radii, and unit directions that include the exact diagonals
# x = +-y, where the norm lemma is tight far out
_log_uniform = st.floats(-60.0, 204.0).map(lambda e: 2.0 ** e)
_directions = st.one_of(st.floats(0.0, 2.0 * math.pi).map(lambda t: (math.cos(t), math.sin(t))),
                        st.sampled_from([(_H, _H), (-_H, _H), (-_H, -_H), (_H, -_H)]))


@settings(deadline=None)
@example(1.15, 1e-17, 2.0 ** 200, (_H, _H))  # the float norm rounds onto 3k/2 + a here
@given(st.floats(1.0, K_MAX, exclude_min=True, exclude_max=True),
       st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       _log_uniform.filter(lambda r: r <= 2.0 ** 200), _directions)
def test_damped_norm_bound_soundness(k, a, r, direction):
    # ||DG_a|| < 3k/2 + a in floats: outright where a is not lost in the
    # rounding of 3k/2 + a, and up to the ring bound's slack everywhere
    c, s = direction
    n = _norm(*DampedSzlenkMap(k, a).jac(r * c, r * s))
    assert n < (1.5 * k + a) * _SLACKED
    if a >= 2.0 ** -20:
        assert n < 1.5 * k + a


@functools.cache
def _built(k, a):
    return build_counterexample(k, a, 0.05)


# k and a of the certify bench's ops at seed 0: the paper's parameters first,
# and op 5's damping is halved
_BENCH_SEED_0 = [
    (1.01, 0.005), (1.0101933159983219, 0.030312654925442137),
    (1.005670713384143, 0.005201151719352782), (1.0139704286967588, 0.058313018175845895),
    (1.007598931308964, 0.019659407964769924), (1.0108361478612184, 0.08926466739278938),
    (1.0085429651158406, 0.029197084375117924), (1.013871510620919, 0.005100878858993531),
    (1.0048589314361955, 0.01754145126161239), (1.0041037031118545, 0.043520162601619894),
    (1.0144097858855734, 0.020822457513797236), (1.0118431061959356, 0.005399879065882249),
    (1.008844850570819, 0.05269450372902973), (1.0132712760825928, 0.03910309111482298),
    (1.0106051081467975, 0.015802853756590515), (1.0056943412047725, 0.07495872279366193),
    (1.0079504877006906, 0.0070856945429205),
]


@pytest.mark.parametrize("k, a", [_BENCH_SEED_0[0], _BENCH_SEED_0[5]])
@settings(deadline=None)
@given(r=_log_uniform, direction=_directions)
def test_ring_bound_soundness(k, a, r, direction):
    # the bound is finite on 1 <= r <= 2**200 and holds the norm, and so the
    # spectral radius, of every float Jacobian on the ring
    m = _built(k, a).composite
    bound = ce._ring_bound(m)(r)
    assert math.isfinite(bound) == (1.0 <= r <= 2.0 ** 200)
    c, s = direction
    j = m.jac(r * c, r * s)
    if math.isfinite(bound):
        assert _radius(*j) < bound and _norm(*j) < bound


# ------------------------------------------------------------ equivalence


def _bits(v):
    return struct.pack("<d", v)


def _assert_same(got, want):
    (sup, at, count), (wsup, wat, wcount) = got, want
    assert (_bits(sup), at, count) == (_bits(wsup), wat, wcount)
    if at is not None:
        assert struct.pack("<2d", *at) == struct.pack("<2d", *wat)


def _table_jac(table):
    """A raw jac reading each point's entries off a dict."""
    return lambda x, y: table[x, y]


def _checked(jac):
    """``jac`` raising NumericOverflowError on a non-finite entry, as ``PlanarMap._jac`` does."""
    def checked(x, y):
        j = jac(x, y)
        if not all(map(math.isfinite, j)):
            raise NumericOverflowError(f"non-finite entries at ({x!r}, {y!r})")
        return j
    return checked


_RING = list(chain([(0.0, 0.0)], _ring_points(_log_radii(1e-3, 1e3, 9), 8)))
_TABLE = {  # an overflowing discriminant, an overflow, and ties in both measures
    (0.0, 0.0): (0.5, 0.0, 0.0, 0.25),
    (1.0, 0.0): (0.0, -0.5, 0.5, 0.0),
    (2.0, 0.0): (0.5, 0.0, 0.0, -0.5),
    (3.0, 0.0): (1e308, 0.0, 0.0, 1.0),
    (4.0, 0.0): (0.25, 0.0, 0.0, 0.5),
    (5.0, 0.0): (math.nan, 0.0, 0.0, math.inf),
    (6.0, 0.0): (2.0, 0.0, 0.0, 2.0),
}
# raw non-finite entries, returned rather than raised, which the finiteness
# check prices +inf
_RAW_TABLE = {
    (0.0, 0.0): (0.5, 0.0, 0.0, 0.25),
    (1.0, 0.0): (0.0, 1.0, -math.inf, 0.0),
    (2.0, 0.0): (0.0, -0.0, math.nan, -0.0),
    (3.0, 0.0): (2.0, 0.0, 0.0, 2.0),
}
# the sweeps' input: each map's raw kernel, compared against its checked form
_JAC_SETS = {
    "overflow": (_RING, LinearMap(_diag(1e200, 1e200)).jac),
    "zero": (_RING, LinearMap(Mat2(0.0, 0.0, 0.0, 0.0)).jac),
    "ties": (_RING, LinearMap(Mat2(0.0, -0.75, 0.75, 0.0)).jac),
    "szlenk": (_RING, SzlenkMap(1.01).jac),
    "szlenk-overflow": (list(_sample_points(Rect(1e150, 2e180, 1e150, 2e180), GridStrategy(5, 5))),
                        SzlenkMap(1.01).jac),
    "raw-non-finite": (list(_RAW_TABLE), _table_jac(_RAW_TABLE)),
    "nan-and-ties": (list(_TABLE), _table_jac(_TABLE)),
    "nan-first": (list(_TABLE)[3:], _table_jac(_TABLE)),
    "ties-then-raise": (list(_TABLE)[:3] + [(5.0, 0.0), (6.0, 0.0)], _table_jac(_TABLE)),
    "empty": ([], _table_jac(_TABLE)),
}


@pytest.mark.parametrize("name", list(_JAC_SETS))
@pytest.mark.parametrize("sup", [-math.inf, 0.0, 0.5])
def test_jacobian_sups_equal_sweep_sup(name, sup):
    points, jac = _JAC_SETS[name]
    checked = _checked(jac)
    measures = (_radius, _norm)
    got = _jacobian_sups(iter(points), jac, measures, sup)
    for g, measure in zip(got, measures):
        _assert_same(g, _sweep_sup(points, lambda x, y: measure(*checked(x, y)), sup))
    for measure in measures:
        _assert_same(_jacobian_sups(points, jac, (measure,), sup)[0],
                     _sweep_sup(points, lambda x, y: measure(*checked(x, y)), sup))


def _neg_det(a11, a12, a21, a22):
    return a12 * a21 - a11 * a22


@pytest.mark.parametrize("sup", [-math.inf, 0.0, 2.0])
def test_jacobian_sups_soundness_for_a_measure_without_a_pretest(sup):
    # -det has no pre-test, so every sample is measured: the norm pre-test
    # against sup 2 would pass (1.9, 0, 0, -1.9), whose -det is 3.61
    table = {(0.0, 0.0): (2.0, 0.0, 0.0, -1.0), (1.0, 0.0): (1.9, 0.0, 0.0, -1.9)}
    jac = _table_jac(table)
    [got] = _jacobian_sups(list(table), jac, (_neg_det,), sup)
    _assert_same(got, _sweep_sup(list(table), lambda x, y: _neg_det(*jac(x, y)), sup))
    assert got[:2] == (1.9 * 1.9, Point2(1.0, 0.0))


def test_jacobian_sups_keep_the_first_witness_of_a_tie():
    points, jac = _JAC_SETS["ties"]
    [(sup, at, count)] = _jacobian_sups(points, jac, (_radius,))
    assert (sup, at, count) == (0.75, Point2(0.0, 0.0), len(points))
    points, jac = _JAC_SETS["nan-and-ties"]
    # three matrices of radius and norm 0.5: diagonal, rotation, reflection
    assert _jacobian_sups(points[:3], jac, (_radius, _norm)) == [(0.5, Point2(0.0, 0.0), 3)] * 2
    (r, r_at, _), (n, n_at, _) = _jacobian_sups(points, jac, (_radius, _norm))
    # at (1e308, 0, 0, 1) the radius is the eigenvalue 1e308, though tr^2 - 4 det
    # is inf - inf, and the norm is 1e308, though its sum of hypots overflows;
    # the non-finite Jacobian at (5, 0) is the first +inf of both
    assert (r, r_at) == (math.inf, Point2(5.0, 0.0))
    assert (n, n_at) == (math.inf, Point2(5.0, 0.0))
    assert _radius(*jac(3.0, 0.0)) == 1e308 and _norm(*jac(3.0, 0.0)) == 1e308


_MAPS = {
    "overflow": LinearMap(_diag(1e200, 1e200)),
    "zero": LinearMap(Mat2(0.0, 0.0, 0.0, 0.0)),
    "ties": LinearMap(Mat2(0.0, -0.75, 0.75, 0.0)),
    "szlenk": SzlenkMap(1.01),
}


def _sr_oracle(m, flat_radius, reach, offset=0.5):
    """``_sweep_sup`` of the exact radius over the composite sweep's every sample:
    the origin, then rings at ``offset`` of each log step and angle step."""
    cfg = ce.SweepConfig
    radii = _log_radii(flat_radius * 1e-6, reach, cfg.sr_radii, offset)
    points = chain([(0.0, 0.0)], _ring_points(radii, cfg.sr_angles, offset))
    return _sweep_sup(points, lambda x, y: _radius(*m._jac(x, y)))


@pytest.mark.parametrize("name", [*_MAPS, "bundle"])
@pytest.mark.parametrize("offset", [0.5])  # the sweep's midpoint rings and angles
def test_composite_sr_sweep_equals_sweep_sup(name, offset, bundle):
    m, reach = (bundle.composite, bundle.reach) if name == "bundle" else (_MAPS[name], 1e3)
    _assert_same(ce._composite_sr_sweep(m, bundle.flat_radius, reach),
                 _sr_oracle(m, bundle.flat_radius, reach, offset))


@pytest.mark.parametrize("m, region, strategy", [
    (LinearMap(_diag(1e200, 1e200)), Rect(-1.0, 1.0, -1.0, 1.0), GridStrategy(4, 4)),
    (LinearMap(Mat2(0.0, 0.0, 0.0, 0.0)), Rect(-1.0, 1.0, -1.0, 1.0), GridStrategy(4, 4)),
    (LinearMap(Mat2(0.0, -0.75, 0.75, 0.0)), Rect(-1.0, 1.0, -1.0, 1.0), RandomStrategy(50, 1)),
    (SzlenkMap(1.01), Rect(-30.0, 30.0, -30.0, 30.0), GridStrategy(31, 31)),
    (SzlenkMap(1.01), Rect(1e150, 2e180, 1e150, 2e180), GridStrategy(3, 3)),
    (DampedSzlenkMap(1.01, 0.005), Rect(-5.0, 5.0, -5.0, 5.0), RandomStrategy(500, 2)),
])
def test_sample_norm_sup_equals_sweep_sup(m, region, strategy):
    want = _sweep_sup(_sample_points(region, strategy), lambda x, y: _norm(*m._jac(x, y)), 0.0)
    assert _bits(sample_norm_sup(m, region, strategy)) == _bits(want[0])


@pytest.mark.parametrize("k, a", [(1.01, 0.005), (1.15, 0.3), (1.004, 0.02)])
def test_damped_sweep_equals_sweep_sup(k, a):
    damped = DampedSzlenkMap(k, a)
    cfg = ce.SweepConfig
    g, hw = cfg.norm_grid, cfg.norm_half_width
    xs, ys = spectral._grid_axes(Rect(-hw, hw, -hw, hw), GridStrategy(g, g))
    points = list(chain([(0.0, 0.0)], spectral._half_grid(xs, ys),
                        _ring_points(_log_radii(1e-2, cfg.norm_r_max, cfg.norm_radii),
                                     cfg.norm_angles)))
    want = tuple(_sweep_sup(points, lambda x, y: measure(*damped._jac(x, y)), 0.0)[0]
                 for measure in (_norm, _radius))
    assert tuple(map(_bits, ce._damped_sweep(damped))) == tuple(map(_bits, want))


@pytest.mark.parametrize("m, radius", [
    (LinearMap(_diag(1e200, 1e200)), 5.0),
    (LinearMap(Mat2(0.0, 0.0, 0.0, 0.0)), 5.0),
    (LinearMap(Mat2(0.0, -0.75, 0.75, 0.0)), 5.0),
    (SzlenkMap(1.01), 1e100),
    (SzlenkMap(1.01), 3.0),
])
def test_dissipativity_ball_sweep_equals_sweep_sup(m, radius):
    cfg = DissipativitySampling()
    ball = _log_radii(radius / dynamics._BALL_SPAN, radius, cfg.ball_radii)
    points = list(chain([(0.0, 0.0)], _ring_points(ball, cfg.angles)))
    want, _, n_ball = _sweep_sup(points, lambda x, y: _norm(*m._jac(x, y)))
    got = dissipativity_bound(m, radius, 0.5, cfg)
    assert _bits(got.norm_sup) == _bits(want)
    assert got.samples >= n_ball == len(points)


# ----------------------------------------------------------------- skips


def test_verifier_sweep_takes_few_exact_radii(monkeypatch, bundle):
    # the paper bundle's verifier sweep: most samples cannot raise the sup,
    # so _eig, under every exact radius, runs at only a few of them
    want = ce._composite_sr_sweep(bundle.composite, bundle.flat_radius, bundle.reach)
    calls = []
    eig = spectral._eig
    monkeypatch.setattr(spectral, "_eig", lambda *j: calls.append(j) or eig(*j))
    got = ce._composite_sr_sweep(bundle.composite, bundle.flat_radius, bundle.reach)
    assert got == want and got[2] == 12_801
    assert 0 < len(calls) < 2_000


def _composite_jac_calls(monkeypatch):
    """The points at which ``CompositeMap.jac`` is called from now on."""
    calls, jac = [], CompositeMap.jac
    monkeypatch.setattr(CompositeMap, "jac", lambda m, x, y: calls.append((x, y)) or jac(m, x, y))
    return calls


def test_verifier_sweep_skips_far_rings(monkeypatch, bundle):
    # at the paper's parameters the ring bound skips 133 of the 400 rings:
    # 8,545 of the 12,801 samples are evaluated
    want = _sr_oracle(bundle.composite, bundle.flat_radius, bundle.reach)
    calls = _composite_jac_calls(monkeypatch)
    got = ce._composite_sr_sweep(bundle.composite, bundle.flat_radius, bundle.reach)
    _assert_same(got, want)
    assert got[2] == 12_801 and len(calls) <= 9_000


@pytest.mark.parametrize("k, a", _BENCH_SEED_0)
def test_bench_bundle_sweeps_equal_sweep_sup(k, a):
    b = _built(k, a)
    _assert_same(ce._composite_sr_sweep(b.composite, b.flat_radius, b.reach),
                 _sr_oracle(b.composite, b.flat_radius, b.reach))


def _tampered(bundle, field, value):
    profile = replace(bundle.profile)
    object.__setattr__(profile, field, value)
    return replace(bundle, profile=profile).composite


@pytest.mark.parametrize("make", [
    # eps/8 = 0.375 passes the floor 0.314: the radial factor's norm is not phi
    lambda b: _tampered(b, "eps", 3.0),
    # a decay that ends at m_target 0.5, inside its unit ramp, makes phi jump
    # up where the ramp ends, though eps/8 stays under the floor: only a
    # profile that its own R, C and eps build has the proved shape
    lambda b: _tampered(b, "m_target", 0.5),
    # no damped cubic inside
    lambda b: compose(b.radial, LinearMap(Mat2(0.5, -0.25, 0.25, 0.5))),
])
def test_composite_sweep_skips_nothing_without_the_lemma(make, monkeypatch, bundle):
    m = make(bundle)
    assert ce._ring_bound(m)(1e6) == math.inf
    want = _sr_oracle(m, bundle.flat_radius, bundle.reach)
    calls = _composite_jac_calls(monkeypatch)
    _assert_same(ce._composite_sr_sweep(m, bundle.flat_radius, bundle.reach), want)
    assert len(calls) == 12_801


def test_overflowing_sweep_keeps_its_first_witness(bundle):
    # at eps 0.02 the sweep runs out to 7.1e121: past 2**200 no ring is
    # skipped, and the first sample whose Jacobian overflows stays the witness
    steep = replace(bundle, profile=build_phi(bundle.flat_radius, bundle.c_used, 0.02))
    span = ce.SweepConfig.sr_span * steep.profile.r_tail
    got = ce._composite_sr_sweep(steep.composite, steep.flat_radius, span)
    _assert_same(got, _sr_oracle(steep.composite, steep.flat_radius, span))
    assert got[0] == math.inf and got[2] == 1 + 400 * 32
