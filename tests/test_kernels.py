"""Values of the kernels on hand-checked inputs, and the per-frame
kernels' rows of floats against numpy's arithmetic on the same rows."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ahtn.kernels import all_within, pearson, rank_average, scale_about


def test_all_within_ball_is_closed():
    a = [[0.0, 0.0, 0.0]] * 2
    on_boundary = [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert all_within(a, on_boundary, 0.1)
    outside = [[0.1, 0.0, 0.0], [0.0, 0.1000001, 0.0]]
    assert not all_within(a, outside, 0.1)
    with pytest.raises(ValueError):  # every point has its target
        all_within(a, on_boundary[:1], 0.1)


coordinate = st.floats(-1e3, 1e3) | st.sampled_from([0.0, 0.1, -0.1, 1e-5])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(coordinate, coordinate, coordinate), max_size=6),
       shift=st.tuples(coordinate, coordinate, coordinate),
       radius=st.floats(1e-3, 10.0) | st.sampled_from([0.1, 1.0]))
def test_all_within_is_numpys_row_sum_ball(rows, shift, radius):
    # the squared distance sums x, y and z in the order numpy's row sum
    # does, so the decision is the same on every input, boundaries too
    points = np.array(rows, dtype=np.float64).reshape(-1, 3)
    targets = points + np.array(shift) * 1e-3
    for p, q in ((points, targets), (points, points * 0.999), (targets, points)):
        d = p - q
        assert all_within(p.tolist(), q.tolist(), radius) == bool(
            ((d * d).sum(axis=1) <= radius * radius).all())


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(coordinate, coordinate, coordinate), max_size=6),
       center=st.tuples(coordinate, coordinate, coordinate),
       factor=st.floats(0.1, 10.0) | st.sampled_from([1.0, 0.5, 1.5]))
def test_scale_about_is_numpys_expression(rows, center, factor):
    # c + f * (p - c) per coordinate, the IEEE operations of the array form
    points = np.array(rows, dtype=np.float64).reshape(-1, 3)
    c = np.array(center)
    expected = (c + factor * (points - c)).tolist()
    assert [list(r) for r in scale_about(points.tolist(), list(center), factor)] == expected


def test_rank_average_values():
    v = np.array([3.0, 1.0, 3.0, 2.0])
    np.testing.assert_array_equal(rank_average(v), [3.5, 1.0, 3.5, 2.0])


def test_pearson_flat_input_is_nan():
    flat = np.ones(5)
    var = np.arange(5.0)
    assert np.isnan(pearson(flat, var))
