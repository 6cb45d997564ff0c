"""The nearest-point kernel behind exhaustive ML detection.

`nearest_point` is an exact sorted-strip search in two steps.

The candidate step, `axis_orders`, argsorts the candidates once by real part
and once by imaginary part.  A sweep builds its candidates once as unit-scale
points `base` and runs this step once, on `base`; at each power point it
searches `points = gamma * base`.

The observation step, `nearest_point`, runs once per power point.  Each
observation takes d0, the smallest squared distance to its `_NEIGHBOURS`
neighbours on each side in both orders.  It counts the candidates in each
axis's strips (those within sqrt(d0) of the observation on that axis) with
`searchsorted`, and compares squared distances only on the axis whose strips
hold fewer pairs in total.  The strips are evaluated together, in blocks of
at most `_PAIRS` observation-candidate pairs (or one observation's strip, if
larger), so a call needs O(max(_PAIRS, len(points))) memory whatever the
number of observations.

Why it is exact, on either axis:
- The picks are the argmin over every candidate's squared distance, ties to
  the smallest original index; the tie-break reads original indices, so no
  sort order changes a pick.
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

from .errors import ParameterError

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


def axis_orders(points):
    """The candidate step: the argsorts of the candidates' real parts and of
    their imaginary parts."""
    points = np.asarray(points, dtype=np.complex128)
    return np.argsort(points.real), np.argsort(points.imag)


def nearest_point(y, points, orders):
    """Index of the closest candidate for each observation.

    `orders` is the candidate step's (real-part order, imaginary-part
    order) of `points`, or of `base` when `points = gamma * base` with
    `gamma > 0`.  Each order must be a permutation of the candidate indices
    that sorts its part; the call checks its length and that it sorts.  Ties
    resolve to the smallest index, which is the lexicographically smallest
    candidate when candidates are enumerated in canonical order.  The picks
    are those of an argmin over every candidate's squared distance.
    """
    y = np.asarray(y, dtype=np.complex128)
    points = np.asarray(points, dtype=np.complex128)
    if not points.size:
        raise ParameterError("nearest_point needs at least one candidate")
    if not (np.isfinite(y).all() and np.isfinite(points).all()):
        raise ParameterError("nearest_point needs finite observations and candidates")
    if len(orders) != len(_AXES):
        raise ParameterError("orders must be (real-part order, imaginary-part order)")
    n = len(points)
    yr, yi = y.real, y.imag
    pr, pi = points.real, points.imag
    # (observation part, order, candidate part in that order) per axis
    axes = []
    for name, part, obs, order in zip(_AXES, (pr, pi), (yr, yi), orders):
        order = np.asarray(order)
        if order.shape != (n,):
            raise ParameterError(f"the {name}-part order has shape {order.shape}, "
                                 f"not ({n},)")
        key = part[order]
        if (key[1:] < key[:-1]).any():
            raise ParameterError(f"the {name}-part order does not sort the "
                                 f"candidates' {name} parts")
        axes.append((obs, order, key))

    # the window of 2 * _NEIGHBOURS candidates around each observation,
    # shifted inwards at the ends of the order
    w = min(2 * _NEIGHBOURS, n)
    near = np.concatenate(
        [order[np.clip(np.searchsorted(key, obs) - _NEIGHBOURS, 0, n - w)[:, None]
               + np.arange(w)] for obs, order, key in axes], axis=1)
    d0 = _sq_dist(yr[:, None], yi[:, None], pr[near], pi[near]).min(axis=1)
    # fl(a + b) >= fl(b) for a, b >= 0, so both fl((Re y - Re p)^2) and
    # fl((Im y - Im p)^2) are <= fl(d): a candidate with d <= d0 lies within
    # sqrt(d0) of y on each axis up to the rounding of the difference and
    # its square.  The relative margin covers that, and the absolute one
    # covers squares that underflow.  Rounding y -/+ r is monotone and every
    # candidate part is a float, so the bounds need no margin.
    r = np.sqrt(d0) * (1 + 1e-9) + 1e-150
    strips = []
    for obs, order, key in axes:
        lo = np.searchsorted(key, obs - r, "left")
        size = np.searchsorted(key, obs + r, "right") - lo
        strips.append((int(size.sum()), lo, size, order))
    # the axis with fewer pairs, the real one on a tie; each strip holds the
    # candidate that set d0, so none is empty, as reduceat needs
    _, lo, size, order = min(strips, key=lambda s: s[0])
    ends = np.cumsum(size)

    out = np.empty(len(y), dtype=np.int64)
    start = 0
    while start < len(y):
        # the observations whose strips fit in _PAIRS pairs, at least one
        stop = max(start + 1, np.searchsorted(ends, ends[start] - size[start] + _PAIRS,
                                              "right"))
        m = size[start:stop]
        first = np.cumsum(m) - m
        col = order[np.arange(first[-1] + m[-1]) + np.repeat(lo[start:stop] - first, m)]
        d = _sq_dist(np.repeat(yr[start:stop], m), np.repeat(yi[start:stop], m),
                     pr[col], pi[col])
        best = np.repeat(np.minimum.reduceat(d, first), m)
        out[start:stop] = np.minimum.reduceat(np.where(d == best, col, n), first)
        start = stop
    return out
