import numpy as np
import pytest

from coopalign import _kernels


def _random_instance(rng, n_obs=700, n_pts=300):
    y = rng.normal(size=n_obs) + 1j * rng.normal(size=n_obs)
    points = rng.normal(size=n_pts) + 1j * rng.normal(size=n_pts)
    return y, points


def test_numpy_kernel_is_argmin(rng):
    y, points = _random_instance(rng, n_obs=50, n_pts=40)
    got = _kernels.nearest_point_numpy(y, points)
    want = np.abs(y[:, None] - points[None, :]).argmin(axis=1)
    np.testing.assert_array_equal(got, want)


def test_chunk_boundaries(rng):
    # sizes around the broadcast chunk edge must not change results
    for n in (255, 256, 257, 513):
        y, points = _random_instance(rng, n_obs=n, n_pts=20)
        got = _kernels.nearest_point_numpy(y, points)
        want = np.abs(y[:, None] - points[None, :]).argmin(axis=1)
        np.testing.assert_array_equal(got, want)


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not importable")
def test_numba_matches_numpy(rng):
    y, points = _random_instance(rng)
    np.testing.assert_array_equal(_kernels.nearest_point_numba(y, points),
                                  _kernels.nearest_point_numpy(y, points))


# two candidates at identical distance: every path picks the lower index
TIE_Y = np.array([0.0 + 0.0j])
TIE_POINTS = np.array([1.0 + 0.0j, -1.0 + 0.0j, 1.0 + 0.0j])


def test_tie_break_smallest_index():
    assert _kernels.nearest_point_numpy(TIE_Y, TIE_POINTS)[0] == 0
    assert _kernels.nearest_point(TIE_Y, TIE_POINTS)[0] == 0


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not importable")
def test_tie_break_smallest_index_numba():
    assert _kernels.nearest_point_numba(TIE_Y, TIE_POINTS)[0] == 0


def test_dispatcher_runs():
    y = np.array([0.1 + 0.2j, -0.3 + 0.05j])
    points = np.array([0.0 + 0.0j, 0.1 + 0.2j, 1.0 + 1.0j])
    np.testing.assert_array_equal(_kernels.nearest_point(y, points), [1, 0])
