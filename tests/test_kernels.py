import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import brute_nearest_point, oracle_nearest_point
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopalign import _kernels
from coopalign.errors import ParameterError
from coopalign.lattice import monomial_table, random_gains


def _search(y, points):
    """The kernel with the candidate step run on the candidates themselves,
    searched at scale 1."""
    return _kernels.nearest_point(y, _kernels.Candidates(points), 1.0)


def _random_instance(rng, n_obs=700, n_pts=300):
    y = rng.normal(size=n_obs) + 1j * rng.normal(size=n_obs)
    points = rng.normal(size=n_pts) + 1j * rng.normal(size=n_pts)
    return y, points


def test_numpy_kernel_is_argmin(rng):
    y, points = _random_instance(rng)
    np.testing.assert_array_equal(_search(y, points),
                                  oracle_nearest_point(y, points))
    np.testing.assert_array_equal(_search(y, points),
                                  brute_nearest_point(y, points))


@pytest.mark.parametrize("pairs", [1, 7, 300, 1 << 18])
def test_pair_blocks_split_anywhere(monkeypatch, rng, pairs):
    # the strips are evaluated in blocks of about `pairs` pairs; a block
    # edge anywhere, even inside one observation's strip, must not change a
    # pick, and a strip larger than the block budget is a block on its own
    monkeypatch.setattr(_kernels, "_PAIRS", pairs)
    y, points = _random_instance(rng, n_obs=257, n_pts=400)
    wide = np.concatenate([[20.0j], y])     # its strip holds every candidate
    np.testing.assert_array_equal(_search(wide, points),
                                  brute_nearest_point(wide, points))


def test_strip_covers_a_rounded_down_gap():
    # for p = -0.5, Re y - Re p = 2^53 + 0.5 rounds to 2^53, so p ties the
    # real-part neighbour 2^53 (1 + 1j) at d = 2^106 while lying just below
    # Re y - sqrt(d); 40 far candidates keep p out of the neighbours that
    # set d0
    y = np.array([2.0 ** 53 + 0j])
    fill = np.arange(1.0, 41.0) + 1e20j
    points = np.array([-0.5 + 0j, *fill, 2.0 ** 53 * (1 + 1j)])
    assert _search(y, points)[0] == 0
    assert brute_nearest_point(y, points)[0] == 0


def test_strip_covers_squares_that_underflow():
    # (1e-170)^2 underflows to 0, so both candidates lie at d = 0
    y = np.array([0j])
    points = np.array([1e-170 + 0j, 0j])
    assert _search(y, points)[0] == 0
    assert brute_nearest_point(y, points)[0] == 0


def test_tie_break_smallest_index():
    # two candidates at identical distance: the lower index wins
    y = np.array([0.0 + 0.0j])
    points = np.array([1.0 + 0.0j, -1.0 + 0.0j, 1.0 + 0.0j])
    assert _search(y, points)[0] == 0
    assert brute_nearest_point(y, points)[0] == 0


def test_three_point_instance():
    y = np.array([0.1 + 0.2j, -0.3 + 0.05j])
    points = np.array([0.0 + 0.0j, 0.1 + 0.2j, 1.0 + 1.0j])
    np.testing.assert_array_equal(_search(y, points), [1, 0])
    np.testing.assert_array_equal(brute_nearest_point(y, points), [1, 0])


def _unit_points(rng):
    """Unit-scale points of a reduced candidate set: 7^4 integer tables
    times four random carriers, with many near-coincident points."""
    digits = np.array(np.meshgrid(*[np.arange(-3, 4)] * 4, indexing="ij"))
    carriers = rng.normal(size=4) + 1j * rng.normal(size=4)
    return digits.reshape(4, -1).T @ carriers


@pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
def test_orders_of_the_unscaled_points_serve_every_scale(rng, gamma):
    # the sweep's path: the candidate step on base, searches at gamma; the
    # brute force runs over the complex product gamma * base, so equal picks
    # show that the kernel's scaled sorted copies hold the same parts
    base = _unit_points(rng)
    candidates = _kernels.Candidates(base)
    points = gamma * base
    y = points[rng.integers(len(points), size=300)] + \
        gamma * (rng.normal(size=300) + 1j * rng.normal(size=300))
    np.testing.assert_array_equal(_kernels.nearest_point(y, candidates, gamma),
                                  brute_nearest_point(y, points))


def _strip_pairs(monkeypatch):
    """Counts the observation-candidate pairs the strip blocks evaluate (the
    d0 neighbours are 2-D calls and are not counted)."""
    seen = []
    sq_dist = _kernels._sq_dist

    def count(yr, yi, pr, pi):
        if np.ndim(pr) == 1:
            seen.append(len(pr))
        return sq_dist(yr, yi, pr, pi)

    monkeypatch.setattr(_kernels, "_sq_dist", count)
    return seen


@pytest.mark.parametrize("line", [1j, 1.0])
def test_search_runs_on_the_narrower_axis(monkeypatch, rng, line):
    # on a vertical line (1j) every real-part strip holds every candidate,
    # on a horizontal one (1.0) every imaginary-part strip does, so the
    # search must run on the other axis to evaluate fewer than all pairs
    seen = _strip_pairs(monkeypatch)
    points = 0.5 + line * rng.normal(size=400) * 10
    y = 0.5 + line * rng.normal(size=50) * 10 + rng.normal(size=50) * 1e-3
    np.testing.assert_array_equal(_search(y, points),
                                  brute_nearest_point(y, points))
    assert 0 < sum(seen) < len(y) * len(points) // 10


def test_imaginary_axis_tie_goes_to_the_smallest_index(monkeypatch):
    # indices 1, 2 and 3 tie at d = 1; the imaginary order puts 2 first
    # (Im = -1), and far candidates on the same vertical line make the
    # imaginary strips the narrower ones
    seen = _strip_pairs(monkeypatch)
    far = 1j * np.arange(50.0, 150.0)
    points = np.array([far[0], 1j, -1j, 1j, *far[1:]])
    y = np.array([0j])
    assert _kernels.Candidates(points).axes[1][0][0] == 2
    assert _search(y, points)[0] == 1
    assert brute_nearest_point(y, points)[0] == 1
    assert sum(seen) == 3


def test_candidate_count_is_the_length(rng):
    # pipebench's traced pair count reads len() of the kernel's second
    # argument as the number of candidates
    _, points = _random_instance(rng, n_obs=1, n_pts=41)
    assert len(_kernels.Candidates(points)) == 41
    assert len(_kernels.Candidates(points[:1])) == 1


def test_each_order_sorts_its_part(rng):
    # with ties, so the stable order is the one np.argsort(kind="stable")
    # gives; both parts are laid out in each order
    points = np.round(rng.normal(size=300) * 3) + 1j * np.round(rng.normal(size=300) * 3)
    points[::7] = -0.0 + 0.0j
    for (order, re, im), part in zip(_kernels.Candidates(points).axes,
                                     (points.real, points.imag)):
        np.testing.assert_array_equal(order, np.argsort(part, kind="stable"))
        assert order.dtype == np.int64
        np.testing.assert_array_equal(re, points.real[order])
        np.testing.assert_array_equal(im, points.imag[order])
        assert re.flags.c_contiguous and im.flags.c_contiguous


@pytest.mark.parametrize("gamma", [0.0, 0, -1e-3, -2, float("nan"), float("inf"),
                                   -float("inf"), True, False, 1 + 0j, "1.0", None])
def test_bad_gamma_rejected(rng, gamma):
    y, points = _random_instance(rng, n_obs=5, n_pts=40)
    with pytest.raises(ParameterError, match="gamma"):
        _kernels.nearest_point(y, _kernels.Candidates(points), gamma)


@pytest.mark.parametrize("extreme", [1e300, -1e300, 1e300j, -1e300j])
def test_scaled_overflow_rejected(extreme):
    # gamma * base overflows at the candidate of largest magnitude on one
    # part, which is an end of that part's order; it sits mid-index here
    points = np.array([0.5 + 0.5j, extreme, -0.25 + 1j, 0.75 - 0.5j])
    candidates = _kernels.Candidates(points)
    y = np.array([0.1 + 0.2j])
    with pytest.raises(ParameterError, match="finite"):
        _kernels.nearest_point(y, candidates, 1e10)


@pytest.mark.parametrize("where", ["y", "points"])
@pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                   complex(-np.inf, 1.0)])
def test_non_finite_input_rejected(where, value):
    # non-finite candidates are refused by the candidate step, non-finite
    # observations by the search
    args = {"y": np.array([0.5 + 0.5j, 1.0 + 0.0j]),
            "points": np.array([0.0 + 0.0j, 1.0 + 1.0j, 2.0 + 0.0j])}
    args[where][1] = value
    with pytest.raises(ParameterError, match="finite"):
        _search(args["y"], args["points"])


def test_parts_beyond_2_510_rejected():
    # candidates 1e200, -1e200 and 0 with an observation at 1e199: every
    # squared distance overflowed, and the argmin picked index 0
    with pytest.raises(ParameterError, match=r"2\^510"):
        _search(np.array([1e199 + 0j]), np.array([1e200, -1e200, 0j]))
    past = np.nextafter(2.0 ** 510, np.inf)
    for y, points in (([past], [0j, 1]), ([-past * 1j], [0j, 1]),
                      ([0j], [0j, past]), ([0j], [-past * 1j, 1])):
        with pytest.raises(ParameterError, match=r"2\^510"):
            _search(np.array(y, dtype=complex), np.array(points, dtype=complex))
    # at the bound a part difference is 2^511, and the squared distance
    # 2^1022 + 2^1022 is finite
    lim = 2.0 ** 510
    assert _search(np.array([lim + lim * 1j]),
                   np.array([-lim - lim * 1j, 0j])).tolist() == [1]


def test_no_candidates_rejected():
    with pytest.raises(ParameterError, match="candidate"):
        _kernels.Candidates(np.array([], dtype=np.complex128))


_COORD = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
_POINT = st.builds(complex, _COORD, _COORD)
_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _strip_layout(draw):
    """Random float observations and candidates, in one of the layouts that
    stress the strip: free, all candidates on one real part (the strip is
    everything), duplicate candidates, observations far outside the
    candidates' hull, and a single candidate."""
    layout = draw(st.sampled_from(["free", "one_real", "duplicates", "far",
                                   "single"]))
    pts = draw(st.lists(_POINT, min_size=1,
                        max_size=1 if layout == "single" else 40))
    obs = draw(st.lists(_POINT, min_size=1, max_size=20))
    if layout == "one_real":
        re = draw(_COORD)
        pts = [complex(re, p.imag) for p in pts]
    elif layout == "duplicates":
        dups = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=20))
        pts = draw(st.permutations(pts + dups))
    elif layout == "far":
        pts = draw(st.lists(st.builds(complex, _UNIT, _UNIT), min_size=1,
                            max_size=40))
        far = st.floats(2.0, 1e100) | st.floats(-1e100, -2.0)
        obs = draw(st.lists(st.builds(complex, far, _COORD), min_size=1,
                            max_size=20))
    return np.array(obs, dtype=np.complex128), np.array(pts, dtype=np.complex128)


@settings(max_examples=300, deadline=None)
@given(_strip_layout())
def test_strip_matches_brute_force(inst):
    y, points = inst
    np.testing.assert_array_equal(_search(y, points),
                                  brute_nearest_point(y, points))


@settings(max_examples=200, deadline=None)
@given(_strip_layout(), st.sampled_from([1e-3, 0.7, 1.0, 3e5]))
def test_supplied_orders_match_brute_force(inst, gamma):
    # the candidate step on the unscaled candidates, the search at gamma;
    # the brute force runs over the complex product gamma * base
    y, base = inst
    points = gamma * base
    np.testing.assert_array_equal(
        _kernels.nearest_point(y, _kernels.Candidates(base), gamma),
        brute_nearest_point(y, points))


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
    # four times the squared distance, in exact integers
    want = []
    for yr, yi in obs2:
        d = [(yr - 2 * pr) ** 2 + (yi - 2 * pi) ** 2 for pr, pi in pts]
        want.append(d.index(min(d)))
    assert list(_search(y, points)) == want
    assert list(brute_nearest_point(y, points)) == want


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                -1e-310, 1e308, -1e308, 1.0, -1.0]


@st.composite
def _sort_inputs(draw):
    """Finite floats with repeats, signed zeros, subnormals, +-1e308 and
    one-ulp neighbours, whose keys share all but their lowest bits."""
    k = draw(st.integers(0, 7))
    size = draw(st.sampled_from([1, 2, 1 << k, (1 << k) + 1])
                | st.integers(1, 200))
    base = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                         | st.sampled_from(_EDGE_FLOATS),
                         min_size=1, max_size=8))
    big = np.finfo(np.float64).max
    pool = base + [np.nextafter(v, t) for v in base for t in (-big, big)]
    return np.array(draw(st.lists(st.sampled_from(pool),
                                  min_size=size, max_size=size)))


class TestStableOrder:
    @settings(max_examples=200, deadline=None)
    @given(_sort_inputs())
    # +0.0 before -0.0 in index order
    @example(np.array([0.0, -0.0, 0.0, -1.0]))
    # 1.0 and its upper neighbour share their high bits, which the index
    # bits would put in the wrong order
    @example(np.array([np.nextafter(1.0, 2.0), 1.0, 1.0]))
    def test_matches_stable_argsort(self, x):
        got = _kernels._stable_order(x)
        np.testing.assert_array_equal(got, np.argsort(x, kind="stable"))

    def test_carriers_of_random_channels(self):
        rng = np.random.default_rng(611)
        for n in (1, 2, 3):
            x = monomial_table(random_gains(rng), n + 1).ravel().real
            np.testing.assert_array_equal(_kernels._stable_order(x),
                                          np.argsort(x, kind="stable"))

    def test_tie_step_does_not_import_numpy_ma(self):
        # np.union1d's first call in a process imports numpy.ma, about 18 ms
        # on the candidate parts whose keys share their high bits
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from coopalign import _kernels\n"
            "x = np.random.default_rng(3).integers(0, 4, 64) / 2.0\n"
            "got = _kernels._stable_order(x)\n"
            "assert (got == np.argsort(x, kind='stable')).all()\n"
            "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(_kernels.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
