import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coopalign.indices import AXIS, COORD_NAMES, window


def _read(table, out_upper, shifts, fixed):
    # zero-filled block read through window, as the exchange engine does it
    out = np.zeros((out_upper,) * (table.ndim - len(fixed)), dtype=table.dtype)
    w = window(table.shape, out_upper, shifts, fixed)
    if w is not None:
        out[w[1]] = table[w[0]]
    return out


def test_coord_names_row_major():
    assert COORD_NAMES[0] == (1, 1)
    assert COORD_NAMES[4] == (2, 2)
    assert COORD_NAMES[8] == (3, 3)
    assert len(COORD_NAMES) == 9
    for k, c in enumerate(COORD_NAMES):
        assert AXIS[c] == k


def test_window_in_range_read(rng):
    table = rng.integers(-5, 6, size=(2,) * 9).astype(np.int64)
    src, dst = window(table.shape, 2, {}, {})
    assert src == dst == (slice(0, 2),) * 9
    # output coordinate u reads coordinate u + 1 on axis 2
    src, dst = window(table.shape, 2, {2: 1}, {})
    assert src[2] == slice(1, 2) and dst[2] == slice(0, 1)
    assert src[:2] == dst[:2] == (slice(0, 2),) * 2
    np.testing.assert_array_equal(_read(table, 2, {2: 1}, {})[:, :, 0],
                                  table[:, :, 1])


def test_window_pinned_axis_is_dropped(rng):
    table = rng.integers(-5, 6, size=(2,) * 9).astype(np.int64)
    src, dst = window(table.shape, 2, {}, {3: 2})
    assert src[3] == 1 and len(dst) == 8
    np.testing.assert_array_equal(table[src], table[:, :, :, 1])


def test_window_pin_outside_table_is_none():
    assert window((2,) * 9, 2, {}, {3: 5}) is None
    assert window((2,) * 9, 2, {}, {3: 0}) is None


def test_window_shift_past_table_is_none():
    assert window((2,) * 9, 2, {7: 4}, {}) is None
    assert window((2,) * 9, 2, {7: -2}, {}) is None


@st.composite
def _reads(draw):
    n = draw(st.integers(1, 2))
    out_upper = draw(st.integers(n, n + 1))
    axes = draw(st.lists(st.integers(0, len(COORD_NAMES) - 1), max_size=3,
                         unique=True))
    shifts = {ax: draw(st.integers(-2, 2)) for ax in axes}
    pin = {}
    if draw(st.booleans()):
        ax = draw(st.sampled_from([a for a in range(len(COORD_NAMES))
                                   if a not in shifts]))
        pin = {ax: draw(st.integers(0, n + 1))}
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n, out_upper, shifts, pin, seed


@settings(max_examples=40, deadline=None)
@given(_reads())
def test_window_read_matches_dict_lookup(case):
    n, out_upper, shifts, pin, seed = case
    table = np.random.default_rng(seed).integers(-5, 6, size=(n,) * 9)
    lut = {lab: int(table[tuple(x - 1 for x in lab)])
           for lab in itertools.product(range(1, n + 1), repeat=9)}
    got = _read(table, out_upper, shifts, pin)
    free = [ax for ax in range(len(COORD_NAMES)) if ax not in pin]
    for u in itertools.product(range(1, out_upper + 1), repeat=len(free)):
        lab = [0] * len(COORD_NAMES)
        for ax, c in zip(free, u):
            lab[ax] = c + shifts.get(ax, 0)
        for ax, c in pin.items():
            lab[ax] = c
        assert got[tuple(c - 1 for c in u)] == lut.get(tuple(lab), 0)
