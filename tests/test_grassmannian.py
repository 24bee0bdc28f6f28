"""Fixed-point data of coordinate-rotation circles on Grassmannians."""

import pytest

from gromov_width.circle_action import gromov_width, normalize_moment
from gromov_width.errors import InvalidRange
from gromov_width.grassmannian import GrassmannianSpec, grassmannian_action


def test_grassmannian_spec_range():
    with pytest.raises(InvalidRange):
        GrassmannianSpec(0, 4)
    with pytest.raises(InvalidRange):
        GrassmannianSpec(3, 4)  # k must not exceed m - k
    with pytest.raises(InvalidRange):
        GrassmannianSpec(1, 1)
    with pytest.raises(InvalidRange):
        GrassmannianSpec("1", 4)
    GrassmannianSpec(2, 4)
    GrassmannianSpec(1, 2)


def test_grassmannian_spec_rejects_booleans():
    # bool is an int subclass: True would otherwise build Gr(1, 3)
    for k, m in ((True, 3), (1, True), (False, 2)):
        with pytest.raises(InvalidRange) as err:
            GrassmannianSpec(k, m)
        assert str(err.value) == "k and m must be integers"


def test_projective_line():
    action = grassmannian_action(GrassmannianSpec(1, 2))
    data = [(c.label, c.complex_dim, c.weights, c.H) for c in action.components]
    assert data == [
        ("Gr(1,1)xGr(0,1)", 0, (-1,), 1),
        ("Gr(0,1)xGr(1,1)", 0, (1,), -1),
    ]
    assert action.n == 1
    assert gromov_width(action).width == 2


def test_gr24_components():
    action = grassmannian_action(GrassmannianSpec(2, 4))
    data = [(c.label, c.complex_dim, c.weights, c.H) for c in action.components]
    assert data == [
        ("Gr(2,2)xGr(0,2)", 0, (-1, -1, -1, -1), 4),
        ("Gr(1,2)xGr(1,2)", 2, (-1, 1), 0),
        ("Gr(0,2)xGr(2,2)", 0, (1, 1, 1, 1), -4),
    ]
    report = gromov_width(action)
    assert report.width == 4
    assert report.H_max == 4
    assert report.s == 0
    assert report.max_component == "Gr(2,2)xGr(0,2)"


def test_gr25_levels():
    action = grassmannian_action(GrassmannianSpec(2, 5))
    assert {c.label: c.H for c in action.components} == {
        "Gr(2,2)xGr(0,3)": 6,
        "Gr(1,2)xGr(1,3)": 1,
        "Gr(0,2)xGr(2,3)": -4,
    }
    assert gromov_width(action).width == 5


def test_h_matches_weight_sums_everywhere():
    # the closed-form moment level must equal -(weight sum) for every
    # component of every Grassmannian in the sweep
    for m in range(2, 17):
        for k in range(1, m // 2 + 1):
            action = grassmannian_action(GrassmannianSpec(k, m))
            renormalized = normalize_moment(action)
            assert renormalized == action, (k, m)
            q = m - k
            assert action.n == k * q
            assert len(action.components) == k + 1
            for c in action.components:
                assert len(c.weights) + c.complex_dim == action.n, (k, m, c.label)


def test_width_is_m_in_sweep():
    for m in range(2, 17):
        for k in range(1, m // 2 + 1):
            report = gromov_width(grassmannian_action(GrassmannianSpec(k, m)))
            assert report.width == m, (k, m)
            assert report.H_max == k * (m - k)
