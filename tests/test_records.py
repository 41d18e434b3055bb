"""Semantics of ``dmy.geometry.record``, pinned for every record class: field
order, reprs, equality and hashing over all fields, refused assignment,
pickling without re-validation, ``__init__`` argument errors and ``replace``."""

import copy
import math
import pickle

import pytest

import dmy
from dmy import (BasinGrid, CheckRecord, CompositeMap, CounterexampleBundle, DampedSzlenkMap,
                 DissipativityBound, DissipativitySampling, GridStrategy, LinearMap, Mat2,
                 NewtonConfig, OmegaConfig, OmegaTag, OmegaVerdict, Orbit, ParameterError,
                 PeriodicOrbit, PhiProfile, Point2, RadialMap, RandomStrategy,
                 RayVerdict, RealSpectrumSample, Rect, SpectrumReport, SzlenkMap, Verdict,
                 VerificationReport, sample_spectrum)
from dmy.geometry import replace

_PROFILE = PhiProfile(20.0, 2.0, 0.05)
_BUNDLE = CounterexampleBundle(DampedSzlenkMap(1.01, 0.005), _PROFILE, 1.5,
                               (Point2(10.0, 0.0), Point2(0.0, 10.0)))
_CHECK = CheckRecord("origin-fixed", True, "image of the origin", {"image": Point2(-0.0, 0.0)})

# one instance of each record class, with the field names in the order
# dataclasses.fields gave them when the classes were dataclasses
EXAMPLES = [
    (Point2(1.0, -0.0), ["x", "y"]),
    (Mat2(1.0, 2.0, -0.0, 0.5), ["a11", "a12", "a21", "a22"]),
    (_PROFILE, ["R", "C", "eps", "floor", "m_target", "r_tail", "ramp"]),
    (CompositeMap(RadialMap(_PROFILE), SzlenkMap(1.01)), ["outer", "inner"]),
    (DampedSzlenkMap(1.01, 0.005), ["k", "a"]),
    (LinearMap(Mat2(0.5, 0.0, 0.0, 0.5)), ["matrix"]),
    (Orbit((Point2(0.0, 0.0), Point2(1.0, 0.0)), False), ["points", "escaped"]),
    (RadialMap(_PROFILE), ["profile"]),
    (SzlenkMap(1.01), ["k"]),
    (GridStrategy(3, 4), ["nx", "ny"]),
    (RandomStrategy(5, 7), ["count", "seed"]),
    (RealSpectrumSample(0.25, 0.5, 1.0, -2.0, 3), ["lo", "hi", "x", "y", "index"]),
    (Rect(-1.0, 1.0, -2.0, 2.0), ["xmin", "xmax", "ymin", "ymax"]),
    (sample_spectrum(SzlenkMap(1.01), Rect(-1.0, 1.0, -1.0, 1.0), GridStrategy(3, 3)),
     ["map", "strategy", "samples", "overflows", "max_modulus", "max_modulus_at", "real_count",
      "min_real", "min_real_at", "max_real", "max_real_at", "real_samples"]),
    (Verdict("ball", True, "inside", 0.5, Point2(1.0, 2.0)),
     ["name", "passed", "detail", "witness_value", "witness_at"]),
    (BasinGrid(1.0, 2, 1, b"\x00\x01"), ["half_width", "width", "height", "codes"]),
    (DissipativityBound(10.0, 0.5, 1.5, 1.5, 40.0, 0.75, True, 0.25, Point2(20.0, 0.0),
                        True, 0.5, None, 100),
     ["ball_radius", "alpha", "norm_sup", "norm_sup_used", "threshold_radius",
      "contraction_factor", "hypothesis_ok", "hypothesis_max_ratio", "hypothesis_worst_at",
      "contraction_ok", "contraction_max_ratio", "contraction_worst_at", "samples"]),
    (DissipativitySampling(), ["ball_radii", "angles", "outer_radii"]),
    (NewtonConfig(), ["tol", "max_steps"]),
    (OmegaConfig(), ["max_iter", "origin_tol", "escape_radius", "window", "cycle_rel_tol"]),
    (OmegaVerdict(OmegaTag.PERIODIC, 4, 10.5, 4, Point2(10.0, -0.0)),
     ["tag", "iterations", "final_norm", "period", "representative"]),
    (PeriodicOrbit(2, (Point2(1.0, 0.0), Point2(-1.0, 0.0)), 1e-17, (0.5 + 0j, 2.0 + 0j)),
     ["period", "points", "residual", "multipliers"]),
    (RayVerdict(True, 0.0, 0, True, 1.0, 2.0),
     ["passed", "max_deviation", "worst_index", "radius_ok", "max_image_radius",
      "max_sample_radius"]),
    (_CHECK, ["name", "passed", "detail", "data"]),
    (_BUNDLE, ["damped", "profile", "c_raw", "orbit", "radial", "composite"]),
    (VerificationReport(_BUNDLE, (_CHECK,)), ["bundle", "checks"]),
]
IDS = [type(obj).__name__ for obj, _ in EXAMPLES]


def _rebuilt(obj):
    """A new instance from obj's __init__ arguments: equal, never identical."""
    return type(obj)(**{name: getattr(obj, name) for name in type(obj)._args})


def test_every_record_class_has_an_example():
    records = {v for v in vars(dmy).values() if isinstance(v, type) and hasattr(v, "_fields")}
    assert records == {type(obj) for obj, _ in EXAMPLES}
    assert len(records) == 26


@pytest.mark.parametrize("obj, names", EXAMPLES, ids=IDS)
def test_field_order(obj, names):
    assert list(type(obj)._fields) == names
    assert type(obj).__slots__ == tuple(names)


@pytest.mark.parametrize("obj, names", EXAMPLES, ids=IDS)
def test_repr_lists_every_field_in_order(obj, names):
    body = ", ".join(f"{name}={getattr(obj, name)!r}" for name in names)
    assert repr(obj) == f"{type(obj).__qualname__}({body})"


def test_reprs_match_the_dataclass_reprs():
    assert repr(Point2(1.0, -0.0)) == "Point2(x=1.0, y=-0.0)"
    profile = ("PhiProfile(R=20.0, C=2.0, eps=0.05, floor=0.25, m_target=120.0, "
               "r_tail=7.090262365522333e+53, ramp=1.0)")
    assert repr(_PROFILE) == profile
    nested = CompositeMap(RadialMap(_PROFILE),
                          CompositeMap(SzlenkMap(1.01), LinearMap(Mat2(1.0, 2.0, -0.0, 0.5))))
    assert repr(nested) == (
        f"CompositeMap(outer=RadialMap(profile={profile}), inner=CompositeMap("
        "outer=SzlenkMap(k=1.01), inner=LinearMap(matrix=Mat2(a11=1.0, a12=2.0, a21=-0.0, "
        "a22=0.5))))")
    assert repr(OmegaVerdict(OmegaTag.PERIODIC, 4, 10.5, 4, Point2(10.0, -0.0))) == (
        "OmegaVerdict(tag=<OmegaTag.PERIODIC: 'periodic'>, iterations=4, final_norm=10.5, "
        "period=4, representative=Point2(x=10.0, y=-0.0))")
    assert repr(OmegaVerdict(OmegaTag.ESCAPING, 7, math.inf)) == (
        "OmegaVerdict(tag=<OmegaTag.ESCAPING: 'escaping'>, iterations=7, final_norm=inf, "
        "period=None, representative=None)")


@pytest.mark.parametrize("obj, names", EXAMPLES, ids=IDS)
def test_eq_and_hash_cover_every_field(obj, names):
    twin = _rebuilt(obj)
    assert twin == obj and twin is not obj
    assert not twin != obj
    values = tuple(getattr(obj, name) for name in names)
    try:
        hash(values)
    except TypeError:  # a dict field: unhashable, as the fields are
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin) == hash(values)


def test_derived_fields_take_part_in_eq_and_hash():
    tampered = copy.copy(_PROFILE)
    object.__setattr__(tampered, "ramp", 0.5)
    assert tampered != _PROFILE
    assert hash(tampered) == hash((20.0, 2.0, 0.05, 0.25, 120.0, 7.090262365522333e+53, 0.5))


def test_equal_fields_in_another_class_compare_unequal():
    assert GridStrategy(3, 4) != RandomStrategy(3, 4)
    assert not GridStrategy(3, 4) == RandomStrategy(3, 4)
    assert Point2(1.0, 2.0) != (1.0, 2.0)
    assert SzlenkMap(1.01) != SzlenkMap(1.02)


@pytest.mark.parametrize("obj, names", EXAMPLES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(obj, names):
    before = repr(obj)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert repr(obj) == before


@pytest.mark.parametrize("obj, names", EXAMPLES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(obj, names):
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(twin) is type(obj)
        assert twin == obj
        assert repr(twin) == repr(obj)


def test_unpickling_restores_fields_without_validation():
    # a profile whose slope budget is past 1/(8C): its __post_init__ would refuse it
    tampered = copy.copy(_PROFILE)
    object.__setattr__(tampered, "eps", 3.0)
    for twin in (pickle.loads(pickle.dumps(tampered)), copy.deepcopy(tampered)):
        assert twin.eps == 3.0
        assert twin.floor == _PROFILE.floor
        assert twin == tampered
    with pytest.raises(ParameterError):
        replace(tampered)


def test_init_argument_errors():
    with pytest.raises(TypeError, match="takes 2 arguments but 3"):
        Point2(1.0, 2.0, 3.0)
    with pytest.raises(TypeError, match="missing argument 'y'"):
        Point2(1.0)
    with pytest.raises(TypeError, match="unknown or repeated argument 'z'"):
        Point2(1.0, 2.0, z=3.0)
    with pytest.raises(TypeError, match="unknown or repeated argument 'x'"):
        Point2(1.0, 2.0, x=2.0)
    with pytest.raises(TypeError, match="missing argument 'y'"):
        Point2(1.0, x=2.0)
    # a derived field is no argument
    with pytest.raises(TypeError, match="takes 3 arguments but 4"):
        PhiProfile(20.0, 2.0, 0.05, 0.25)
    with pytest.raises(TypeError, match="unknown or repeated argument 'floor'"):
        PhiProfile(20.0, 2.0, 0.05, floor=0.25)


def test_keywords_and_defaults():
    assert Point2(y=2.0, x=1.0) == Point2(1.0, 2.0)
    cfg = OmegaConfig(window=8)
    assert (cfg.max_iter, cfg.window, cfg.cycle_rel_tol) == (10_000, 8, 1e-7)
    assert Verdict("ball", False, "out") == Verdict("ball", False, "out", None, None)
    assert OmegaConfig(10_000, 1e-9, 1e9, 64, 1e-7) == OmegaConfig()


def test_replace_builds_and_validates_anew():
    wider = replace(_PROFILE, eps=0.025)
    assert wider == PhiProfile(20.0, 2.0, 0.025)
    assert wider.m_target == 2 * _PROFILE.m_target
    assert replace(_PROFILE) == _PROFILE
    with pytest.raises(ParameterError):
        replace(Point2(1.0, 2.0), x=math.nan)
    with pytest.raises(TypeError, match="unknown or repeated argument 'z'"):
        replace(Point2(1.0, 2.0), z=0.0)
    with pytest.raises(ValueError, match="init=False"):
        replace(_PROFILE, floor=0.5)
    with pytest.raises(ValueError, match="init=False"):
        replace(_BUNDLE, composite=_BUNDLE.composite)
