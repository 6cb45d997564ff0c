import numpy as np
from conftest import oracle_nearest_point
from hypothesis import given, settings
from hypothesis import strategies as st

from coopalign import _kernels


def _random_instance(rng, n_obs=700, n_pts=300):
    y = rng.normal(size=n_obs) + 1j * rng.normal(size=n_obs)
    points = rng.normal(size=n_pts) + 1j * rng.normal(size=n_pts)
    return y, points


def test_numpy_kernel_is_argmin(rng):
    y, points = _random_instance(rng)
    np.testing.assert_array_equal(_kernels.nearest_point(y, points),
                                  oracle_nearest_point(y, points))


def test_chunk_boundaries(rng):
    # sizes around the broadcast chunk edge must not change results
    for n in (255, 256, 257, 513):
        y, points = _random_instance(rng, n_obs=n, n_pts=20)
        np.testing.assert_array_equal(_kernels.nearest_point(y, points),
                                      oracle_nearest_point(y, points))


def test_tie_break_smallest_index():
    # two candidates at identical distance: the lower index wins
    y = np.array([0.0 + 0.0j])
    points = np.array([1.0 + 0.0j, -1.0 + 0.0j, 1.0 + 0.0j])
    assert _kernels.nearest_point(y, points)[0] == 0


def test_dispatcher_runs():
    y = np.array([0.1 + 0.2j, -0.3 + 0.05j])
    points = np.array([0.0 + 0.0j, 0.1 + 0.2j, 1.0 + 1.0j])
    np.testing.assert_array_equal(_kernels.nearest_point(y, points), [1, 0])


_GRID = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _grid_instance(draw):
    """Integer candidates with duplicates, and observations on the
    half-integer grid, many of them midpoints of two candidates, so every
    squared distance is exact in floating point and ties are common."""
    base = draw(st.lists(_GRID, min_size=1, max_size=8))
    dups = draw(st.lists(st.sampled_from(base), max_size=8))
    pts = draw(st.permutations(base + dups))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)),
                          max_size=8))
    # observations as doubled coordinates, so they stay integers here
    obs = [(a[0] + b[0], a[1] + b[1]) for a, b in pairs]
    obs += draw(st.lists(st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
                         min_size=1 if not obs else 0, max_size=8))
    return pts, obs


@settings(max_examples=200, deadline=None)
@given(_grid_instance())
def test_pick_is_smallest_index_among_exact_minima(inst):
    pts, obs2 = inst
    points = np.array([complex(re, im) for re, im in pts])
    y = np.array([complex(re, im) / 2 for re, im in obs2])
    got = _kernels.nearest_point(y, points)
    for k, (yr, yi) in enumerate(obs2):
        # four times the squared distance, in exact integers
        d = [(yr - 2 * pr) ** 2 + (yi - 2 * pi) ** 2 for pr, pi in pts]
        assert got[k] == d.index(min(d))
