"""The nearest-point kernel behind exhaustive ML detection.

`nearest_point` is an exact sorted-strip search, split between work done
once per sweep and work done once per power point.

Once per sweep, `Candidates(base)` takes the unit-scale candidate points
`base`, checks that there is at least one and that all are finite, and
sorts them once by real part and once by imaginary part, each with the
kernel's own packed-key sort (`_stable_order`).  In each of the two orders
it lays out both parts as contiguous float64 copies.  That is 2 int64
orders and 4 float64 copies, 48 B a candidate: about 1.4 MB at 28,561
candidates.

Once per power point, `nearest_point(y, candidates, gamma)` searches
`gamma * base`.  It scales the four sorted copies by `gamma` (4 more
float64 copies, held for the call) and checks only the two ends of each
sorted key against 2^510: rounding is monotone, so the largest magnitudes of
`gamma * part` sit at the ends.  Each observation takes d0, the smallest
squared distance to its `_NEIGHBOURS` neighbours on each side in both
orders, read from contiguous runs of the scaled copies.  It counts the
candidates in each axis's strips (those within sqrt(d0) of the observation
on that axis) with `searchsorted`, and compares squared distances only on
the axis whose strips hold fewer pairs in total; a strip is a contiguous run
of that axis's copies too.  The strips are evaluated together, in blocks of
at most `_PAIRS` observation-candidate pairs (or one observation's strip, if
larger), so a call needs O(max(_PAIRS, len(candidates))) memory whatever
the number of observations.

Why the scaled copies are exact: `gamma * base` multiplies each complex
point by the complex (gamma + 0j), so its real part is gamma * Re p minus
(or, fused, plus) a zero product, with or without FMA.  Adding a zero is
exact, so each part rounds once, to `gamma * part`; the two can differ only
in the sign of a zero, which no squared distance or comparison sees.

Why the search is exact, on either axis:
- The picks are the argmin over every candidate's squared distance, ties to
  the smallest original index; the tie-break reads the original indices
  (`order[p]`), so no sort order changes a pick.
- `gamma > 0` and rounding is monotone, so each order of `base` is also a
  non-decreasing order of the same part of `gamma * base`.
- fl(a + b) >= fl(b) for a, b >= 0, so a candidate with d <= d0 has both
  squared part differences <= d0 and lies in its observation's strip on
  each axis, under the same margins.
- Every squared distance is rounded as (Re y - Re p)^2 + (Im y - Im p)^2
  whichever axis is searched, so both axes compare the same floats.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, require_positive_real

# no accelerated kernel exists; pipebench/run.py's environment() still reads
# both names without a default, so they go when it stops reading them
HAVE_NUMBA = USE_NUMBA = False

_NEIGHBOURS = 32      # neighbours on each side, in each order, that set d0
_PAIRS = 1 << 18      # observation-candidate pairs per evaluated block
_AXES = ("real", "imaginary")


def _sq_dist(yr, yi, pr, pi):
    """(yr - pr)^2 + (yi - pi)^2, rounded in that order."""
    d = yr - pr
    e = yi - pi
    d *= d
    e *= e
    d += e
    return d


def _rows(x, w, s):
    """The (len(s), w) array whose row i is x[s[i]:s[i] + w], for a
    contiguous x: one gather of rows from a view of overlapping rows."""
    return np.ndarray((len(x) - w + 1, w), x.dtype, x,
                      strides=(x.itemsize, x.itemsize))[s]


_SIGN_FLIP = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _stable_order(x):
    """np.argsort(x, kind="stable") for a finite float64 array x, from one
    in-place sort of int64 keys.

    A key is the float's bits, mapped so that signed integer order is float
    order, with its low b bits, as many as an index needs, replaced by the
    entry's index.  -0.0 is first made +0.0, which float order treats as
    equal to it.  Keys with different high bits are then in float order,
    and keys of equal floats in index order.  Only floats that differ in
    their low b bits alone can end up out of order; they share their high
    bits with a sorted neighbour, and one lexsort by (value, index) over
    all such entries puts them back: the high bits already order one run
    of equal high bits against another.
    """
    size = len(x)
    b = (size - 1).bit_length()
    low = (1 << b) - 1
    key = (x + 0.0).view(np.int64)
    key ^= (key >> 63) & _SIGN_FLIP
    key &= ~low
    key |= np.arange(size)
    key.sort()
    high = key >> b
    tie = high[1:] == high[:-1]
    key &= low
    if tie.any():
        # entries i and i + 1 of each tie, without np.union1d, whose first
        # call in a process imports numpy.ma
        at = np.zeros(size, dtype=bool)
        at[1:] = tie
        at[:-1] |= tie
        at = np.flatnonzero(at)
        idx = key[at]
        key[at] = idx[np.lexsort((idx, x[idx]))]
    return key


class Candidates:
    """The candidate step: the points sorted once by each part.

    `axes[a]` is (order, real parts, imaginary parts) with both parts laid
    out in the order that sorts part a (0 real, 1 imaginary); `len()` is the
    candidate count.
    """

    __slots__ = ("axes",)

    def __init__(self, base):
        base = np.asarray(base, dtype=np.complex128)
        if not base.size:
            raise ParameterError("nearest_point needs at least one candidate")
        if not np.isfinite(base).all():
            raise ParameterError("nearest_point needs finite candidates")
        axes = []
        for part in (base.real, base.imag):
            order = _stable_order(part)
            axes.append((order, base.real[order], base.imag[order]))
        self.axes = tuple(axes)

    def __len__(self):
        return len(self.axes[0][0])


def nearest_point(y, candidates, gamma):
    """Index of the closest point of `gamma * base` for each observation.

    `candidates` is `Candidates(base)`, `gamma` a finite real > 0, and every
    part of `y` and `gamma * base` within +-2^510.  Ties resolve to the
    smallest index, the lexicographically smallest candidate in canonical
    order.  The picks are those of an argmin over every squared distance.
    """
    require_positive_real(gamma, "gamma")
    y = np.asarray(y, dtype=np.complex128)
    n = len(candidates)
    yr, yi = y.real, y.imag
    # per axis: (observation part, order, scaled real and imaginary parts,
    # the scaled part that order sorts); the largest |gamma * part| ends
    # that key, and parts within +-2^510 keep squared distances below 2^1024
    with np.errstate(over="ignore"):
        scaled = [(order, gamma * re, gamma * im) for order, re, im in candidates.axes]
    axes = []
    for a, (order, re, im) in enumerate(scaled):
        key = (re, im)[a]
        if not np.abs((yr, yi)[a]).max(initial=max(-key[0], key[-1])) <= 2.0 ** 510:
            raise ParameterError(f"observations and gamma * base must be finite within "
                                 f"+-2^510 on the {_AXES[a]} axis (gamma {gamma!r})")
        axes.append(((yr, yi)[a], order, re, im, key))

    # the window of 2 * _NEIGHBOURS candidates around each observation,
    # shifted inwards at the ends of the order
    w = min(2 * _NEIGHBOURS, n)
    d0 = None
    for obs, _order, re, im, key in axes:
        s = np.clip(np.searchsorted(key, obs) - _NEIGHBOURS, 0, n - w)
        d = _sq_dist(yr[:, None], yi[:, None], _rows(re, w, s),
                     _rows(im, w, s)).min(axis=1)
        d0 = d if d0 is None else np.minimum(d0, d)
    # fl(a + b) >= fl(b) for a, b >= 0, so both fl((Re y - Re p)^2) and
    # fl((Im y - Im p)^2) are <= fl(d): a candidate with d <= d0 lies within
    # sqrt(d0) of y on each axis up to the rounding of the difference and
    # its square.  The relative margin covers that, and the absolute one
    # covers squares that underflow.  Rounding y -/+ r is monotone and every
    # candidate part is a float, so the bounds need no margin.
    r = np.sqrt(d0) * (1 + 1e-9) + 1e-150
    strips = []
    for obs, order, re, im, key in axes:
        lo = np.searchsorted(key, obs - r, "left")
        size = np.searchsorted(key, obs + r, "right") - lo
        strips.append((int(size.sum()), lo, size, order, re, im))
    # the axis with fewer pairs, the real one on a tie; each strip holds the
    # candidate that set d0, so none is empty, as reduceat needs
    _, lo, size, order, re, im = min(strips, key=lambda s: s[0])
    ends = np.cumsum(size)

    out = np.empty(len(y), dtype=np.int64)
    start = 0
    while start < len(y):
        # the observations whose strips fit in _PAIRS pairs, at least one
        stop = max(start + 1, np.searchsorted(ends, ends[start] - size[start] + _PAIRS,
                                              "right"))
        m = size[start:stop]
        first = np.cumsum(m) - m
        # sorted positions: each observation's strip is one contiguous run
        p = np.arange(first[-1] + m[-1]) + np.repeat(lo[start:stop] - first, m)
        d = _sq_dist(np.repeat(yr[start:stop], m), np.repeat(yi[start:stop], m),
                     re[p], im[p])
        # the pairs at their strip's minimum: each strip's are one run of
        # `hit`, none empty, so the smallest original index of each run is
        # the pick
        hit = np.flatnonzero(d == np.repeat(np.minimum.reduceat(d, first), m))
        out[start:stop] = np.minimum.reduceat(order[p[hit]],
                                              np.searchsorted(hit, first))
        start = stop
    return out
