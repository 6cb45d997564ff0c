"""Index algebra for the 9-coordinate monomial lattice.

Every substream is labelled by a vector of nine exponents, one per channel
gain, with coordinates named (1,1)..(3,3) in row-major order.  Tables over
these labels are stored as dense 9-d integer arrays; out-of-range labels
read as zero everywhere (the zero convention), which is what makes the
shift/gather helpers below total.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

COORD_NAMES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))
AXIS = {name: k for k, name in enumerate(COORD_NAMES)}
NUM_COORDS = len(COORD_NAMES)


def axis_of(coord):
    try:
        return AXIS[tuple(coord)]
    except (KeyError, TypeError):
        raise KeyError(f"unknown coordinate name: {coord!r}") from None


@dataclass(frozen=True)
class IndexVector:
    """Immutable 9-coordinate exponent vector."""

    coords: tuple

    def __post_init__(self):
        if len(self.coords) != NUM_COORDS:
            raise ValueError("an index vector has exactly 9 coordinates")

    @classmethod
    def of(cls, *coords):
        return cls(tuple(int(c) for c in coords))

    @classmethod
    def filled(cls, value):
        return cls((int(value),) * NUM_COORDS)

    def __getitem__(self, coord):
        return self.coords[axis_of(coord)]

    def shift(self, coord, delta):
        """Return a copy with one named coordinate moved by delta."""
        ax = axis_of(coord)
        c = list(self.coords)
        c[ax] += int(delta)
        return IndexVector(tuple(c))

    def within(self, upper):
        """True when every coordinate lies in {1..upper}."""
        return all(1 <= c <= upper for c in self.coords)

    def as_array_index(self):
        # array index = coordinate - 1 on every axis
        return tuple(c - 1 for c in self.coords)


def shift(s: IndexVector, coord, delta) -> IndexVector:
    return s.shift(coord, delta)


def iter_cube(upper, repeat=NUM_COORDS):
    """Yield every index vector with coordinates in {1..upper}."""
    for tup in product(range(1, upper + 1), repeat=repeat):
        yield IndexVector(tup)


def window(shape, out_upper, shifts, fixed):
    """Index pair (source, output) of a shifted block read, or None when
    the read lies wholly outside the table.

    A table of ``shape`` holds coordinates {1..size} per axis (array index =
    coordinate - 1).  Axes in ``fixed`` are pinned to one coordinate and
    dropped from the output; every other axis is read at coordinate
    u + shifts[axis] for output coordinate u in {1..out_upper}.  Output
    entries whose read falls outside the table are not covered.
    """
    src = [None] * len(shape)
    dst = []
    for ax, size in enumerate(shape):
        if ax in fixed:
            if not 1 <= fixed[ax] <= size:
                return None
            src[ax] = fixed[ax] - 1
            continue
        d = int(shifts.get(ax, 0))
        lo = max(1, 1 + d)                      # smallest source coordinate
        hi = min(size, out_upper + d)
        if lo > hi:
            return None
        src[ax] = slice(lo - 1, hi)
        dst.append(slice(lo - d - 1, hi - d))
    return tuple(src), tuple(dst)


def gather_block(table, out_upper, shifts=None, fixed=None):
    """Shifted block read with zero fill: the zero-convention lookup of
    ``table`` evaluated on a full block (see ``window``)."""
    table = np.asarray(table)
    fixed = fixed or {}
    out = np.zeros((out_upper,) * (table.ndim - len(fixed)), dtype=table.dtype)
    w = window(table.shape, out_upper, shifts or {}, fixed)
    if w is not None:
        out[w[1]] = table[w[0]]
    return out


def embed_shifted(src, axis, upper):
    """Embed a cube into a larger one, offset by +1 along one axis.

    Used to realise lookups at "coordinate minus one": the value stored at
    coordinate c of ``src`` appears at coordinate c+1 of the result along
    ``axis`` and at the same coordinate elsewhere.  ``upper`` is the
    coordinate bound of the output cube.
    """
    src = np.asarray(src)
    out = np.zeros((upper,) * src.ndim, dtype=src.dtype)
    sl = [slice(0, n) for n in src.shape]
    sl[axis] = slice(1, src.shape[axis] + 1)
    out[tuple(sl)] = src
    return out
