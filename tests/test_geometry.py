import math
import pickle

import pytest
from hypothesis import given, strategies as st

from dmy import Mat2, ParameterError, Point2

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_point_basics():
    p = Point2(3.0, 4.0)
    assert p.norm() == 5.0
    assert p.dist(Point2(0.0, 0.0)) == 5.0
    assert tuple(p) == (3.0, 4.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_point_rejects_non_finite(bad):
    with pytest.raises(ParameterError):
        Point2(bad, 0.0)
    with pytest.raises(ParameterError):
        Point2(0.0, bad)


def test_point_is_frozen_and_picklable():
    p = Point2(1.0, 2.0)
    with pytest.raises(Exception):
        p.x = 3.0
    assert pickle.loads(pickle.dumps(p)) == p


@given(finite, finite, finite, finite)
def test_norm_triangle_inequality(x1, y1, x2, y2):
    p, q = Point2(x1, y1), Point2(x2, y2)
    assert Point2(x1 + x2, y1 + y2).norm() <= p.norm() + q.norm() + 1e-9


def test_mat_basics():
    m = Mat2(1.0, 2.0, 3.0, 4.0)
    assert m.trace == 5.0
    assert m.det == 1.0 * 4.0 - 2.0 * 3.0
    assert m.apply(Point2(1.0, 1.0)) == Point2(3.0, 7.0)


def test_mat_rejects_non_finite():
    with pytest.raises(ParameterError):
        Mat2(1.0, float("nan"), 0.0, 1.0)


def test_mat_scaled_and_sub():
    m = Mat2(1.0, 2.0, 3.0, 4.0)
    assert m - Mat2(1.0, 0.0, 0.0, 1.0) == Mat2(0.0, 2.0, 3.0, 3.0)


def test_matmul_is_matrix_product():
    a = Mat2(1.0, 2.0, 3.0, 4.0)
    b = Mat2(0.0, 1.0, -1.0, 0.0)
    assert a @ b == Mat2(-2.0, 1.0, -4.0, 3.0)


small = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@given(*[small] * 8, small, small)
def test_matmul_matches_apply_composition(a11, a12, a21, a22, b11, b12, b21, b22, x, y):
    a = Mat2(a11, a12, a21, a22)
    b = Mat2(b11, b12, b21, b22)
    p = Point2(x, y)
    lhs = (a @ b).apply(p)
    rhs = a.apply(b.apply(p))
    scale = max(abs(lhs.x), abs(lhs.y), abs(rhs.x), abs(rhs.y), 1.0)
    assert abs(lhs.x - rhs.x) <= 1e-9 * scale
    assert abs(lhs.y - rhs.y) <= 1e-9 * scale


@given(*[small] * 8)
def test_det_is_multiplicative(a11, a12, a21, a22, b11, b12, b21, b22):
    a = Mat2(a11, a12, a21, a22)
    b = Mat2(b11, b12, b21, b22)
    lhs = (a @ b).det
    rhs = a.det * b.det
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-5)
