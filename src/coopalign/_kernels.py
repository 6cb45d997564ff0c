"""The nearest-point kernel behind exhaustive ML detection.

`nearest_point` compares squared Euclidean distances from each observation
to every candidate, a block of `_CHUNK` observation rows at a time, so a
call needs two float64 arrays of `_CHUNK` x len(points) whatever the
number of observations.
"""

from __future__ import annotations

import numpy as np

# no accelerated kernel exists; pipebench/run.py's environment() still reads
# both names without a default, so they go when it stops reading them
HAVE_NUMBA = USE_NUMBA = False

_CHUNK = 256  # observation rows per broadcast block


def nearest_point(y, points):
    """Index of the closest candidate for each observation.

    Ties resolve to the smallest index, which is the lexicographically
    smallest candidate when candidates are enumerated in canonical order.
    """
    y = np.asarray(y, dtype=np.complex128)
    points = np.asarray(points, dtype=np.complex128)
    pr = np.ascontiguousarray(points.real)
    pi = np.ascontiguousarray(points.imag)
    out = np.empty(y.shape[0], dtype=np.int64)
    for lo in range(0, y.shape[0], _CHUNK):
        blk = y[lo:lo + _CHUNK]
        d = blk.real[:, None] - pr
        e = blk.imag[:, None] - pi
        d *= d
        e *= e
        d += e
        out[lo:lo + _CHUNK] = np.argmin(d, axis=1)
    return out
