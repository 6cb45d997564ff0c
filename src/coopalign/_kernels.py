"""The nearest-point kernel behind exhaustive ML detection.

`nearest_point` is an exact sorted-strip search.  The candidates are sorted
by real part once per call.  Each observation takes d0, the smallest squared
distance to a few of its real-part neighbours, and then compares squared
distances only to the candidates whose real part lies within sqrt(d0) of its
own: no candidate outside that strip can be closer.  The strips are
evaluated together, in blocks of at most `_PAIRS` observation-candidate
pairs (or one observation's strip, if larger), so a call needs
O(max(_PAIRS, len(points))) memory whatever the number of observations.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# no accelerated kernel exists; pipebench/run.py's environment() still reads
# both names without a default, so they go when it stops reading them
HAVE_NUMBA = USE_NUMBA = False

_NEIGHBOURS = 32      # real-part neighbours on each side that set d0
_PAIRS = 1 << 18      # observation-candidate pairs per evaluated block


def _sq_dist(yr, yi, pr, pi):
    """(yr - pr)^2 + (yi - pi)^2, rounded in that order."""
    d = yr - pr
    e = yi - pi
    d *= d
    e *= e
    d += e
    return d


def nearest_point(y, points):
    """Index of the closest candidate for each observation.

    Ties resolve to the smallest index, which is the lexicographically
    smallest candidate when candidates are enumerated in canonical order.
    The picks are those of an argmin over every candidate's squared distance.
    """
    y = np.asarray(y, dtype=np.complex128)
    points = np.asarray(points, dtype=np.complex128)
    if not points.size:
        raise ParameterError("nearest_point needs at least one candidate")
    if not (np.isfinite(y).all() and np.isfinite(points).all()):
        raise ParameterError("nearest_point needs finite observations and candidates")
    # any sort order serves: ties are broken by original index at the end
    order = np.argsort(points.real)
    pr, pi = points.real[order], points.imag[order]
    yr, yi = y.real, y.imag

    at = np.searchsorted(pr, yr)
    near = np.clip(at[:, None] + np.arange(-_NEIGHBOURS, _NEIGHBOURS),
                   0, len(pr) - 1)
    d0 = _sq_dist(yr[:, None], yi[:, None], pr[near], pi[near]).min(axis=1)
    # fl((Re y - Re p)^2) <= fl(d) for every candidate, so every candidate
    # with d <= d0 has |Re y - Re p| <= sqrt(d0) up to the rounding of the
    # difference and its square: the relative margin covers that, and the
    # absolute one covers squares that underflow.  Rounding y -/+ r is
    # monotone and every Re p is a float, so the bounds need no margin.
    r = np.sqrt(d0) * (1 + 1e-9) + 1e-150
    lo = np.searchsorted(pr, yr - r, "left")
    size = np.searchsorted(pr, yr + r, "right") - lo
    # each strip holds the neighbour that set d0, so none is empty, as
    # reduceat needs
    ends = np.cumsum(size)

    out = np.empty(len(y), dtype=np.int64)
    start = 0
    while start < len(y):
        # the observations whose strips fit in _PAIRS pairs, at least one
        stop = max(start + 1, np.searchsorted(ends, ends[start] - size[start] + _PAIRS,
                                              "right"))
        n = size[start:stop]
        first = np.cumsum(n) - n
        col = np.arange(first[-1] + n[-1]) + np.repeat(lo[start:stop] - first, n)
        d = _sq_dist(np.repeat(yr[start:stop], n), np.repeat(yi[start:stop], n),
                     pr[col], pi[col])
        best = np.repeat(np.minimum.reduceat(d, first), n)
        out[start:stop] = np.minimum.reduceat(
            np.where(d == best, order[col], len(order)), first)
        start = stop
    return out
