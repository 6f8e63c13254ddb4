"""Values of the numpy kernels on hand-checked inputs."""

import numpy as np

from ahtn.kernels import all_within, pearson, rank_average


def test_all_within_ball_is_closed():
    a = np.zeros((2, 3))
    on_boundary = np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert all_within(a, on_boundary, 0.1)
    outside = np.array([[0.1, 0.0, 0.0], [0.0, 0.1000001, 0.0]])
    assert not all_within(a, outside, 0.1)


def test_rank_average_values():
    v = np.array([3.0, 1.0, 3.0, 2.0])
    np.testing.assert_array_equal(rank_average(v), [3.5, 1.0, 3.5, 2.0])


def test_pearson_flat_input_is_nan():
    flat = np.ones(5)
    var = np.arange(5.0)
    assert np.isnan(pearson(flat, var))
